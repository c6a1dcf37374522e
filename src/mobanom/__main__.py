"""``python -m mobanom``: the ``mobanom`` command without an installed entry point."""

import sys

from .cli import main

sys.exit(main())
