"""Time a cold start: import ``isingring`` and call each layer once.

Run by ``run.py`` as a fresh process (the BLAS thread limit is inherited
through the environment).  Usage: ``python3 setup_probe.py SRC_DIR WORKDIR``.
numpy is imported before the clock starts, because the ``SpeedClock`` that
samples the machine's speed during the probe needs it (see ``speed.py``).
Prints the elapsed wall seconds and the same time in reference seconds as
its last line.
"""

import pathlib
import sys
import time

sys.path.insert(0, sys.argv[1])

from speed import SpeedClock  # noqa: E402

clock = SpeedClock()
t0 = time.perf_counter()
clock.start()

import isingring  # noqa: E402
import isingring.cli  # noqa: E402
from layers import setup_pass  # noqa: E402

setup_pass(isingring, isingring.cli, pathlib.Path(sys.argv[2]))
ref = clock.stop()
wall = time.perf_counter() - t0
print(repr(wall), repr(ref))
