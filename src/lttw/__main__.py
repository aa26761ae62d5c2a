"""`python -m lttw`: the same command line as the installed `lttw`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
