"""``python -m pilot`` and the ``pilot`` console script."""

import os
import sys

from . import THREAD_ENV_VARS


def main() -> int:
    # numpy loaded with the package, before any argument was read, so a
    # --deterministic run starts over with the one-thread cap in its
    # environment (once: the new process finds the cap already set).
    if "--deterministic" in sys.argv[1:] and any(os.environ.get(v) != "1" for v in THREAD_ENV_VARS):
        for var in THREAD_ENV_VARS:
            os.environ[var] = "1"
        os.execv(sys.executable, sys.orig_argv)
    from .cli import main as run

    return run()


if __name__ == "__main__":
    raise SystemExit(main())
