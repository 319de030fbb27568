"""``python -m ramify``: the same command line as the ``ramify`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
