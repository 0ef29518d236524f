"""`python -m qshock ...` runs the command-line interface (see qshock.cli)."""

import sys

from .cli import main

sys.exit(main())
