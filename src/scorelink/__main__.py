"""``python -m scorelink``: the ``scorelink`` command line."""

import sys

from .cli import main

# a spawned pool worker imports this module under another name
if __name__ == "__main__":
    sys.exit(main())
