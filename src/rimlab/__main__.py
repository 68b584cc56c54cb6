"""Process entry shared by ``python -m rimlab`` and the ``rimlab`` script.

The entry runs ``cli.main`` with Python's cyclic garbage collector off.
rimlab's solves create no reference cycles, so reference counting frees
every array as before; with the collector on, SciPy's lazy import pays
for collections that walk every tracked object, and interpreter exit
walks them all once more.  ``gc.freeze()`` before exit moves the
survivors out of reach of that final collection.  ``cli.main`` itself,
which tests call in-process, leaves the collector alone, and importing
this module changes nothing.
"""

import gc
import sys

from .cli import main


def run() -> None:
    """Run the CLI on ``sys.argv`` and exit with its code."""
    gc.disable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
