"""The process entry of ``python -m agiecon`` and the ``agiecon`` script."""

import gc

from .cli import main


def run() -> int:
    """Run the command line on ``sys.argv`` and return its exit status.

    ``gc.disable()`` comes first: a command's records, windows and curves
    hold no reference cycles, so the cyclic collector, which would walk
    each window's records a few dozen times in a long ``simulate``, frees
    nothing, and reference counting frees every window as before.  The
    process is about to exit, so ``gc.freeze()`` then moves every object
    the collector tracks into its permanent generation: the interpreter's
    finalization collects without walking the objects left over from
    import time.  ``cli.main`` does neither, because library code and
    tests call it in process.
    """
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
