"""`python -m deltoid_lab ...` runs the deltoid-lab command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
