"""Process entry point of `python -m absorbing_ideals` and of the
`absorbing-ideals` console script."""

import gc
import os
import sys

from .cli import main
from .errors import error_kind


def run() -> int:
    """`cli.main()` in a one-shot process.

    What the import made lives until the process exits, so it is frozen
    out of the collector's reach and no collection walks it again.  A
    higher gen-0 threshold saved more CPU but raised a corpus scan's peak
    RSS by 2-4%; this keeps the interpreter's thresholds.  Library code
    and in-process callers of `cli.main` keep the whole policy as it is.

    A stdout closed by its reader (`... | head -1`) ends the run with the
    usage exit code of an output that cannot be written, 2, and no
    traceback.  stdout is flushed inside the `try`, so the error shows
    there, and then points at os.devnull, so the interpreter's final
    flush has nowhere to fail.  `cli.main` called in-process keeps the
    caller's stdout and lets the error through.
    """
    gc.freeze()
    try:
        try:
            return main()
        finally:
            sys.stdout.flush()
    except BrokenPipeError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return error_kind(type(exc))[1]


if __name__ == "__main__":
    raise SystemExit(run())
