"""``python -m pqeuler``: the command-line interface of ``pqeuler.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
