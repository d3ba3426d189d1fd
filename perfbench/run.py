"""hyperlu benchmark: one workload, closed loop, one client, one thread.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Every job is an in-process ``hyperlu.cli.main(argv)`` call on generated
files, so the timed path is the one users run. Jobs run back to back in
passes over the workload's job list; a new pass starts only while it is
expected to end within ``--seconds`` (the first pass always runs).

With ``--trace 0`` the last line reports the end-to-end metrics. With
``--trace 1`` half the time runs untraced and half under the outside-in
tracer, and the last line reports per-layer metrics, including the
tracing overhead (traced minus untraced wall time). Every job's answer
is checked after the timed passes; the line's ``failed`` counts wrong
exit codes or verdicts, failed independent checks and exceptions.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10

END_TO_END = {
    "wall_s": "s",
    "largest_job_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.self_s": "s",
    "serialize.self_s": "s",
    "hypergraph.make_s": "s",
    "hypergraph.make_calls": "count",
    "hypergraph.make_items": "count",
    "hypergraph.graph_validate_s": "s",
    "hypergraph.graph_constructions": "count",
    "transforms.apply_sequence_s": "s",
    "transforms.gates_applied": "count",
    "transforms.local_complement_s": "s",
    "transforms.local_complement_calls": "count",
    "phase_algebra.power_of_product_s": "s",
    "phase_algebra.power_of_product_calls": "count",
    "phase_algebra.link_edges": "count",
    "phase_algebra.subsets_enumerated": "count",
    "phase_algebra.delta_edges": "count",
    "counterexamples.self_s": "s",
    "counterexamples.derive_calls": "count",
    "counterexamples.search_subsets": "count",
    "counterexamples.sequence_calls": "count",
    "gf2.solve_s": "s",
    "gf2.solve_calls": "count",
    "gf2.rows_raw": "count",
    "gf2.rows_distinct": "count",
    "gf2.rows_zero": "count",
    "gf2.cols": "count",
    "gf2.rank": "count",
    "gf2.nullity": "count",
    "gf2.useful_row_ratio": "ratio",
    "gf2.echelonize_s": "s",
    "gf2.rank_s": "s",
    "lc_solver.self_s": "s",
    "lc_solver.verify_witness_s": "s",
    "lc_solver.lemma_s": "s",
    "lc_solver.orbit_s": "s",
    "lc_solver.orbit_graphs": "count",
    "trace.harness_s": "s",
    "trace.bookkeeping_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_ratio": "ratio",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _setup(workload: str, seed: int, work: Path) -> tuple[Path, list[float]]:
    """Set the workload up SETUP_REPEATS times in child processes; keep the last."""
    times = []
    for k in range(SETUP_REPEATS):
        target = work / f"inputs{k}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_inputs.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(target)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        if k:
            shutil.rmtree(work / f"inputs{k - 1}")
    return target, times


def _call(cli, argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with stdout and stderr captured; returns (exit, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


class Runner:
    """Runs passes over one job list and remembers every job's answer."""

    def __init__(self, cli, jobs: list[dict]):
        self.cli, self.jobs = cli, jobs
        self.first: dict[int, tuple[int, str, dict, str]] = {}
        self.reasons: dict[int, list[str]] = {}
        self.runs = [0] * len(jobs)
        self.bad_runs = [0] * len(jobs)
        self.wrong: set[int] = set()
        self.pass_id = 0

    def run_passes(self, budget: float, tracer=None) -> list[list[float]]:
        """Whole passes for about ``budget`` seconds; per-job seconds per pass."""
        passes: list[list[float]] = []
        began = time.perf_counter()
        while not passes or (time.perf_counter() - began) * (len(passes) + 1) / len(passes) <= budget:
            self.pass_id += 1
            passes.append([self._run(i, job, tracer) for i, job in enumerate(self.jobs)])
        return passes

    def _run(self, i: int, job: dict, tracer) -> float:
        self.runs[i] += 1
        tag = str(self.pass_id)
        argv = [a.replace("{pass}", tag) for a in job["argv"]]
        outputs = {k: Path(p.replace("{pass}", tag)) for k, p in job.get("outputs", {}).items()}
        gc.collect()  # a job's time must not depend on the garbage earlier jobs left
        start = time.perf_counter()
        try:
            if tracer is None:
                code, out = _call(self.cli, argv)
                seconds = time.perf_counter() - start
            else:
                (code, out), seconds = tracer.job(i, _call, self.cli, argv)
            files = {k: p.read_text() for k, p in outputs.items()}
            for p in outputs.values():
                p.unlink()
            ans = checks.answer(job, code, out, files)
        except Exception as exc:  # a crash is a failed job, never a verdict
            self._bad(i, f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        key = checks.digest(ans)
        if i not in self.first:
            self.first[i] = (code, out, ans, key)
        elif self.first[i][3] != key:
            self._bad(i, "answer changed between passes")
        return seconds

    def _bad(self, i: int, reason: str) -> None:
        self.bad_runs[i] += 1
        self.reasons.setdefault(i, []).append(reason)

    def check_first_answers(self, pins: dict) -> None:
        """Check each job's first answer; a wrong answer fails all its runs."""
        for i, (code, out, ans, _) in self.first.items():
            try:
                errors = checks.check(self.jobs[i], code, out, ans, pins)
            except Exception as exc:
                errors = [f"check raised {type(exc).__name__}: {exc}"]
            if errors:
                self.wrong.add(i)
                self.reasons.setdefault(i, []).extend(errors)

    @property
    def attempted(self) -> int:
        return sum(self.runs)

    @property
    def failed(self) -> int:
        return sum(self.runs[i] if i in self.wrong else self.bad_runs[i] for i in range(len(self.jobs)))


def _tail(samples: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond). With too few samples the
    maximum is returned and the count beyond is 0.
    """
    ordered = sorted(samples)
    index = len(ordered) - 1 - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def _end_to_end(jobs, passes, setup_times) -> tuple[dict, list[str]]:
    largest = next(i for i, job in enumerate(jobs) if job["largest"])
    pooled = [t for p in passes for t in p]
    tail, pct, beyond = _tail(pooled)
    values = {
        "wall_s": statistics.median(sum(p) for p in passes),
        "largest_job_s": statistics.median(p[largest] for p in passes),
        "job_p50_s": statistics.median(pooled),
        "job_tail_s": tail,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"passes {len(passes)}, jobs per pass {len(jobs)}, largest job: {jobs[largest]['id']}",
        f"job_p50_s over {len(pooled)} samples; job_tail_s is p{pct:.1f} "
        f"with {beyond} samples beyond it",
        f"setup_s is the median of {len(setup_times)} set-ups",
    ]
    return values, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hyperlu" / "cli.py").is_file():
        return _fail(f"no hyperlu sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs, setup_times = _setup(args.workload, args.seed, work)
        from hyperlu import cli

        jobs = json.loads((inputs / "manifest.json").read_text())["jobs"]
        # objects alive now (modules, manifest) are never scanned again
        gc.collect()
        gc.freeze()
        runner = Runner(cli, jobs)
        budget = args.seconds / 2 if args.trace else args.seconds
        passes = runner.run_passes(budget)
        values, notes = _end_to_end(jobs, passes, setup_times)
        runner.check_first_answers(checks.load_pins())

        if args.trace:
            values, notes = _traced(runner, budget, values["wall_s"], args), []
            units = PER_LAYER
        else:
            units = END_TO_END
    except RuntimeError as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    failed = runner.failed
    for i, reasons in sorted(runner.reasons.items()):
        print(f"FAILED {jobs[i]['id']}: {'; '.join(reasons)}")
    print(f"workload {args.workload}, seed {args.seed}: "
          f"fail_ratio {failed}/{runner.attempted} = {failed / runner.attempted:.4f}")
    for note in notes:
        print(note)
    for name, unit in units.items():
        if name in values:
            print(f"{name:40s} {values[name]:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}))
    return 0


def _traced(runner: Runner, budget: float, untraced_wall: float, args) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        passes = runner.run_passes(budget, tracer)
    finally:
        tracer.uninstall()
    for note in tracer.notes:
        print(f"trace: {note}")
    values = tracer.metrics(len(passes))
    traced_wall = statistics.median(sum(p) for p in passes)
    layers = sum(v for k, v in values.items() if k.endswith("_s") and not k.startswith("trace."))
    values.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        # near 1 when the tracer's own cost is kept out of the layers
        "trace.accounted_ratio": layers / untraced_wall,
    })
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}.bin"
    tracer.spans.write(spans)
    print(f"trace: {len(tracer.spans)} spans written to {spans.relative_to(ROOT)} (header {spans.with_suffix('.json').name})")
    return values


if __name__ == "__main__":
    raise SystemExit(main())
