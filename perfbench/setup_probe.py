"""Time one workload's set-up in this fresh interpreter and print the seconds.

Set-up is the import of ``pseudoquotients.cli`` plus building the
workload's instances and presentations.  The benchmark's own modules are
imported between the two timed parts, so their imports are not counted.

    python3 perfbench/setup_probe.py <workload>
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

start = time.perf_counter()
import pseudoquotients.cli  # noqa: E402
import_s = time.perf_counter() - start

import pseudoquotients  # noqa: E402

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]](pseudoquotients, HERE.parent)
start = time.perf_counter()
workload.setup()
print(repr(import_s + time.perf_counter() - start))
