"""`python -m qccheck`: the command line of `qccheck.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
