"""``python -m lfyukawa``: the command-line runner of :mod:`lfyukawa.cli`."""

import sys

from .cli import main

sys.exit(main())
