"""The process entry of ``python -m agiecon`` and the ``agiecon`` script."""

import gc

from .cli import main


def run() -> int:
    """Run the command line on ``sys.argv`` and return its exit status.

    The process is about to exit, so ``gc.freeze()`` first moves every
    object the collector tracks into its permanent generation: the
    interpreter's finalization then collects without walking the objects
    left over from import time.  ``cli.main`` does not freeze, because
    library code and tests call it in process.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
