"""`python -m symplext`: the command line of symplext.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
