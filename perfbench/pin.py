"""Write pins.json: the answers of every job whose inputs do not depend on
the seed, as the current tree computes them.

    python3 perfbench/pin.py

Run it only on a commit whose answers are trusted: the benchmark fails
any later answer that differs from a pin.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

from hyperlu import cli  # noqa: E402


def main() -> int:
    work = run.WORK / "pins"
    pins = {}
    try:
        for workload in workloads.WORKLOADS:
            for job in workloads.make_jobs(workload, 0, work / workload)["jobs"]:
                if job["pin"] is None or job["kind"] == "verify-against":
                    continue
                runner = run.Runner(cli, [job])
                runner.run_passes(0)
                pins[job["pin"]] = checks.pin_entry(job, runner.first[0][2])
                print(job["pin"], pins[job["pin"]], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
