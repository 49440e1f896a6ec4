"""``python -m flagtype``: the command-line frontend, exiting with its code."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
