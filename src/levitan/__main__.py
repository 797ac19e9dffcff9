"""``python -m levitan``: the same command line as the ``levitan`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
