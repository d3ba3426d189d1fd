"""One set-up of a workload: import hyperlu, generate and write its inputs.

Run as a child of ``run.py``; prints ``{"setup_s": seconds}``, timed
from just before the import to the last file written.

    python3 perfbench/setup_inputs.py --workload W --seed N --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    start = time.perf_counter()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import hyperlu.cli  # noqa: F401  (import time is part of set-up)
    import workloads

    workloads.make_jobs(args.workload, args.seed, Path(args.out))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
