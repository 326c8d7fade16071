"""`python -m uqc ...` runs the command-line driver, as the `uqc` script does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
