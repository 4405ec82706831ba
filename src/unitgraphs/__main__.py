"""``python -m unitgraphs``: the ``unitgraphs`` command."""

import sys

from .cli import main

sys.exit(main())
