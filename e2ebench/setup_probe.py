"""One set-up probe, run in a fresh interpreter by ``run.py``.

Times ``import repro`` plus building the workload's first workload and
first testbed, bracketed by the host reference kernel in this same
interpreter, and prints ``{"raw_s", "before_s", "after_s"}`` as JSON.

    PYTHONPATH=src:e2ebench python3 e2ebench/setup_probe.py benefits 1
"""

import json
import sys
import time

from hostref import time_reference


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    before = time_reference()
    started = time.perf_counter()
    import workloads
    cell = workloads.first_cell(name, seed)
    cell.build_testbed(cell.build_workload())
    raw = time.perf_counter() - started
    after = time_reference()
    print(json.dumps({"raw_s": raw, "before_s": before, "after_s": after}))


if __name__ == "__main__":
    main()
