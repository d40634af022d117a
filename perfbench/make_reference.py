"""Record the reference loss traces that the benchmark's checks compare against.

Run from the repository root after a deliberate change to training numerics:

    python3 perfbench/make_reference.py

It trains each workload once at the reference seed and writes
perfbench/reference/<workload>.csv (the trace.csv rows of ``ckl train``).
"""

import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.import_program()
    from workloads import WORKLOADS, op_train, set_up

    run.REFERENCE_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp())
    try:
        for name, workload in WORKLOADS.items():
            files = set_up(workload, run.REFERENCE_SEED, work / name)
            lines = op_train(workload, files).output
            (run.REFERENCE_DIR / f"{name}.csv").write_text("\n".join(lines) + "\n")
            print(f"{name}: {len(lines)} trace rows")
    finally:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
