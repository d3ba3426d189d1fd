"""Seeded job lists for the four workloads.

``make_jobs`` writes every input file a workload needs into ``outdir``
and returns the manifest: one entry per ``hyperlu`` command line, with
what the answer gate needs to check its output. Generation uses only
``reference`` and ``random.Random(seed)``; the program sees only the
files.

Output paths contain ``{pass}``: every run of a job writes a new file,
which the runner reads and deletes outside the timed region. Rewriting
one path would time the file system's truncation instead of the program.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import reference as ref

WORKLOADS = ("verify", "lc_decide", "lc_walk", "transform")

# The size ladder of the paper's pipeline (27 to 473 qubits) plus one
# spec whose sweep does not cancel (exit 1 through CancellationError).
VERIFY_LADDER = (
    "bipartite:7:5",
    "twentyseven",
    "bipartite:7:4",
    "bipartite:8:5",
    "bipartite:11:9",
    "bipartite:11:8",
    "bipartite:11:4",
    "bipartite:11:7",
    "bipartite:11:6",
    "bipartite:9:5",
)
VERIFY_LARGEST = "bipartite:11:6"

# lc_decide: random graph against a random LC walk of itself (mean degree 8).
# Sizes repeat so that the pooled quantiles fall inside a size class rather
# than on one seeded graph; the five 60-vertex graphs hold the median.
LC_RANDOM_SIZES = (30, 40, 40, 50, 50, 60, 60, 60, 60, 60, 80, 80, 100, 100, 120, 120, 150, 150, 200, 280)
# lc_decide: connected bipartite graphs (left, right, least and largest
# right-vertex degree) against themselves plus random left-side edges; the
# lemma decides yes or no. Without degree-2 right vertices the answer is
# mostly no. The sizes keep these seed-dependent shapes away from the
# pooled median and tail ranks.
LC_BIPARTITE_SHAPES = ((6, 40, 3, 3), (8, 24, 3, 4), (8, 40, 2, 4), (12, 200, 2, 5))
# lc_decide: the construction pairs against the graph plus a left clique;
# bipartite:11:7 (341 vertices) is the workload's largest instance.
LC_CONSTRUCTIONS = (("bipartite:11:7", True), ("bipartite:7:5", False), ("twentyseven", False))
LC_LARGEST = "bipartite:11:7"

SEARCH_BUDGET = 3000
# lc_walk orbits: fixed graphs under a seeded relabeling, so the orbit
# size (and the work) does not depend on the seed. grid4x4 is truncated
# at its cap (exit 2); it is kept small because the members a truncated
# search visits, and so its time, do depend on the labels.
ORBIT_GRAPHS = (
    ("grid4x4", 16, [(i, i + 1) for i in range(16) if i % 4 < 3] + [(i, i + 4) for i in range(12)], 3_000),
    ("path9", 9, [(i, i + 1) for i in range(8)], 40_000),
    ("cycle8", 8, [(i, (i + 1) % 8) for i in range(8)], 40_000),
    ("path10", 10, [(i, i + 1) for i in range(9)], 40_000),
    ("cycle9", 9, [(i, (i + 1) % 9) for i in range(9)], 40_000),
    ("grid3x3", 9, [(i, i + 1) for i in range(9) if i % 3 < 2] + [(i, i + 3) for i in range(6)], 40_000),
    ("cycle10", 10, [(i, (i + 1) % 10) for i in range(10)], 40_000),
)

TRANSFORM_JOBS = 25
TRANSFORM_SIZES = tuple(range(8, 17))
# The largest case (16 qubits) takes about four times the next one, so the
# pooled tail (the 11th slowest of thousands of runs) is a percentile of
# that one case rather than whichever small job met a scheduling delay.
TRANSFORM_LARGEST_GATES = 160
MAX_XP_LINK = 8  # bounds how fast hyperedges multiply along a sequence


def _write_adj(path: Path, rows: list[int]) -> None:
    n = len(rows)
    lines = [str(n)] + ["".join("1" if (r >> j) & 1 else "0" for j in range(n)) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def _random_graph(rng: random.Random, n: int, degree: float) -> list[int]:
    p = degree / (n - 1)
    return ref.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def _walk(rng: random.Random, rows: list[int], steps: int) -> list[int]:
    """``rows`` after local complementation at ``steps`` random vertices."""
    for _ in range(steps):
        rows = ref.local_complement(rows, rng.randrange(len(rows)))
    return rows


def _verify_jobs(rng, out):
    return [
        {
            "id": f"verify {spec}",
            "kind": "verify",
            "argv": ["verify", "--spec", spec, "--report", str(out / f"report-{i}-{{pass}}.json")],
            "outputs": {"report": str(out / f"report-{i}-{{pass}}.json")},
            "spec": spec,
            "pin": f"verify/{spec}",
            "largest": spec == VERIFY_LARGEST,
        }
        for i, spec in enumerate(VERIFY_LADDER)
    ]


def _check_lc_job(out, name, g1, g2, expect, **extra):
    a, b = out / f"{name}-a.adj", out / f"{name}-b.adj"
    _write_adj(a, g1)
    _write_adj(b, g2)
    job = {
        "id": f"check-lc {name}",
        "kind": "check-lc",
        "argv": ["check-lc", str(a), str(b)],
        "g1": g1,
        "g2": g2,
        "expect": expect,
        "pin": None,
        "largest": False,
    }
    job.update(extra)
    return job


def _lc_decide_jobs(rng, out):
    jobs = []
    for i, n in enumerate(LC_RANDOM_SIZES):
        g1 = _random_graph(rng, n, 8.0)
        g2 = g1
        while g2 == g1:
            g2 = _walk(rng, g1, n // 2 + 5)
        jobs.append(_check_lc_job(out, f"random{n}-{i}", g1, g2, "yes"))
    for k1, k2, low, high in LC_BIPARTITE_SHAPES:
        left, right = list(range(k1)), list(range(k1, k1 + k2))
        while True:
            edges = []
            for v in right:
                edges += [(u, v) for u in rng.sample(left, rng.randint(low, high))]
            g1 = ref.from_edges(k1 + k2, edges)
            if ref.is_connected(g1):
                break
        pairs = [(u, w) for u in left for w in left if u < w]
        added = rng.sample(pairs, rng.randint(1, len(pairs)))
        g2 = list(g1)
        for u, w in added:
            g2[u] |= 1 << w
            g2[w] |= 1 << u
        jobs.append(
            _check_lc_job(out, f"bipartite{k1}x{k2}", g1, g2, "lemma", left=left, right=right)
        )
    for spec, yes in LC_CONSTRUCTIONS:
        g1, left, right = ref.construction(spec)
        g2 = ref.with_clique(g1, left)
        jobs.append(
            _check_lc_job(
                out, spec.replace(":", "_"), g1, g2, "yes" if yes else "no",
                left=left, right=right, pin=f"lc_decide/{spec}", largest=spec == LC_LARGEST,
            )
        )
    return jobs


def _lc_walk_jobs(rng, out):
    jobs = []
    # twentyseven against a walk of its LU partner (the graph plus a left
    # clique): LC-inequivalent, since the partner is; bipartite:7:5 against
    # a walk of itself: LC-equivalent.
    for spec, start, expect in (("twentyseven", "partner", "none"), ("bipartite:7:5", "self", "witness")):
        g, left, right = ref.construction(spec)
        base = ref.with_clique(g, left) if start == "partner" else g
        other = _walk(rng, base, 12)
        path = out / f"against-{spec.replace(':', '_')}.adj"
        _write_adj(path, other)
        jobs.append({
            "id": f"verify {spec} --against",
            "kind": "verify-against",
            "argv": ["verify", "--spec", spec, "--against", str(path), "--budget", str(SEARCH_BUDGET)],
            "spec": spec,
            "against": other,
            "expect": expect,
            "pin": f"verify/{spec}",
            "largest": spec == "twentyseven",
        })
    for name, n, edges, cap in ORBIT_GRAPHS:
        perm = list(range(n))
        rng.shuffle(perm)
        path = out / f"orbit-{name}.adj"
        _write_adj(path, ref.from_edges(n, [(perm[i], perm[j]) for i, j in edges]))
        jobs.append({
            "id": f"orbit {name} --cap {cap}",
            "kind": "orbit",
            "argv": ["orbit", str(path), "--cap", str(cap)],
            "pin": f"lc_walk/orbit/{name}/{cap}",
            "largest": False,
        })
    return jobs


def _transform_case(rng: random.Random, n: int, length: int):
    """Random graph state with a few weight-1 three-edges, and a legal sequence."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = {e: Fraction(1) for e in pairs if rng.random() < 2.5 / (n - 1)}
    for _ in range(2):
        edges[tuple(sorted(rng.sample(range(n), 3)))] = Fraction(1)
    start = ref.StateModel(n, edges)
    model = start.copy()
    seq = []
    while len(seq) < length:
        q = rng.randrange(n)
        kind = rng.choice(("X", "Xp", "Xp", "Zp", "LC"))
        if kind == "Zp":
            a = Fraction(rng.randrange(1, 16), 8)  # in (0, 2)
        elif kind == "Xp":
            if not model.x_legal(q) or len(model.at(q)) > MAX_XP_LINK:
                continue
            a = Fraction(rng.choice((1, 3, 5, 7)), rng.choice((2, 4, 8))) % 2
        elif kind == "X":
            if not model.x_legal(q):
                continue
            a = None
        else:
            if not model.lc_legal(q):
                continue
            a = None
        model.apply(q, kind, a)
        gate = {"q": q, "g": kind}
        if a is not None:
            gate["a"] = ref.weight_text(a)
        seq.append(gate)
    return start, seq, model


def _transform_jobs(rng, out):
    # The cases are fixed and the seed relabels their qubits, so every
    # seed asks for the same work: seeded structure would move the tail
    # and the largest job by half their value from seed to seed.
    jobs = []
    for i in range(TRANSFORM_JOBS):
        case_rng = random.Random(f"transform-case:{i}")
        largest = i == TRANSFORM_JOBS - 1
        n = max(TRANSFORM_SIZES) if largest else TRANSFORM_SIZES[i % len(TRANSFORM_SIZES)]
        length = TRANSFORM_LARGEST_GATES if largest else case_rng.randint(12, 30)
        start, seq, final = _transform_case(case_rng, n, length)
        perm = list(range(n))
        rng.shuffle(perm)
        start, final = start.relabeled(perm), final.relabeled(perm)
        seq = [dict(gate, q=perm[gate["q"]]) for gate in seq]
        state_path, seq_path = out / f"t{i}-state.json", out / f"t{i}-seq.json"
        out_path = out / f"t{i}-out-{{pass}}.json"
        state_path.write_text(json.dumps(ref.state_json(start)))
        seq_path.write_text(json.dumps(seq))
        jobs.append({
            "id": f"transform t{i} n={n} gates={len(seq)}",
            "kind": "transform",
            "argv": ["transform", str(state_path), str(seq_path), "--out", str(out_path), "--ledger"],
            "n": n,
            "state": str(state_path),
            "sequence": str(seq_path),
            "outputs": {"out": str(out_path)},
            "expect_state": ref.state_json(final),
            "expect_ledger": ref.ledger_lines(start, final),
            "pin": None,
            "largest": largest,
        })
    return jobs


def make_jobs(workload: str, seed: int, outdir: Path) -> dict:
    """Write the inputs of one workload and return its manifest."""
    rng = random.Random(f"{workload}:{seed}")
    build = {
        "verify": _verify_jobs,
        "lc_decide": _lc_decide_jobs,
        "lc_walk": _lc_walk_jobs,
        "transform": _transform_jobs,
    }[workload]
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "jobs": build(rng, outdir)}
    (outdir / "manifest.json").write_text(json.dumps(manifest))
    return manifest
