"""``python -m corrlink``: the same command line as the ``corrlink`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
