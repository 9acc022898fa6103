"""Process entry point of `python -m absorbing_ideals` and of the
`absorbing-ideals` console script."""

import gc

from .cli import main


def run() -> int:
    """`cli.main()` in a one-shot process.

    What the import made lives until the process exits, so it is frozen
    out of the collector's reach and no collection walks it again.  A
    higher gen-0 threshold saved more CPU but raised a corpus scan's peak
    RSS by 2-4%; this keeps the interpreter's thresholds.  Library code
    and in-process callers of `cli.main` keep the whole policy as it is.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
