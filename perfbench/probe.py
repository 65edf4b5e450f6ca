"""Set-up probe: import ``robustcut`` from the given ``src`` directory, make
a first LAPACK call, print ``ready`` and exit.

Usage: ``python3 probe.py SRC``.  ``run.py`` times this process from spawn
to the ``ready`` line; that interval is the benchmark's set-up time.
"""

import os
import sys

if __name__ == "__main__":
    src = sys.argv[1]
    sys.path.insert(0, src)
    import robustcut  # before numpy, so ROBUSTCUT_THREADS reaches BLAS

    if not os.path.realpath(robustcut.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"robustcut imported from {robustcut.__file__}, not from {src}")
    import numpy as np

    np.linalg.eigvalsh(np.eye(4) + 0.5)
    print("ready", flush=True)
