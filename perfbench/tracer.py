"""Outside-in tracer: wraps hyperlu's public functions by name.

Each target is a dotted path inside a hyperlu module ("gf2.solve_linear_gf2",
"hypergraph.WeightedHypergraph.make"). A function is replaced in every
loaded hyperlu module that binds it, so ``lc_solver.solve_linear_gf2``
and ``cli.lc_equivalent`` are traced too; a method is replaced on its
class. A target that no longer exists is skipped with a note, and the
metrics only it produces are left out; so are the counts of a target
whose arguments no longer fit its counter. A later rename, deletion or
signature change never fails a run.

Spans (name, start, end, parent, job) are kept in memory. Self time is
a span's duration minus its direct children's. Counts come only from
call arguments and results (``None`` when the call raised), computed
after the call. Everything a wrapper does outside the wrapped call,
counting included, goes to one "trace.bookkeeping" span per call: a
child of the caller that starts when the wrapper is entered and lasts
as long as the wrapper ran before and after the call, plus the cost of
entering and leaving the wrapper, which no clock inside it can see and
which ``install`` calibrates on a no-op. So the layers' self times add
up to about the untraced run.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

PACKAGE = "hyperlu"
HARNESS = "trace.harness_s"
BOOKKEEPING = "trace.bookkeeping_s"


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _calls(metric: str) -> Callable:
    def count(c, args, kwargs, result):
        c[metric] += 1
    return count


def _count_make(c, args, kwargs, result):
    # args[0] is the class: make is a classmethod
    c["hypergraph.make_calls"] += 1
    if len(args) > 2 or "weights" in kwargs:
        c["hypergraph.make_items"] += len(_arg(args, kwargs, 2, "weights"))


def _count_sequence(c, args, kwargs, result):
    c["transforms.gates_applied"] += len(_arg(args, kwargs, 1, "seq"))


def _count_power(c, args, kwargs, result):
    edges = _arg(args, kwargs, 0, "edges")
    alpha = _arg(args, kwargs, 1, "alpha")
    prune = kwargs.get("prune", args[2] if len(args) > 2 else True)
    k = len(edges)
    top = min(k, alpha.exp + 1) if prune else k
    c["phase_algebra.power_of_product_calls"] += 1
    c["phase_algebra.link_edges"] += k
    c["phase_algebra.subsets_enumerated"] += sum(math.comb(k, s) for s in range(1, top + 1))
    if result is not None:
        c["phase_algebra.delta_edges"] += len(result)


def _count_search(c, args, kwargs, result):
    if result is not None:
        c["counterexamples.search_subsets"] += result.examined


def _count_solve(c, args, kwargs, result):
    m = _arg(args, kwargs, 0, "m")
    distinct = set(m.rows)
    c["gf2.solve_calls"] += 1
    c["gf2.rows_raw"] += m.nrows
    c["gf2.rows_distinct"] += len(distinct)
    c["gf2.rows_zero"] += m.rows.count(0)
    c["gf2.rows_useful"] += len(distinct - {0})
    c["gf2.cols"] += m.ncols
    if result is not None:
        c["gf2.nullity"] += len(result.nullspace)
        c["gf2.rank"] += m.ncols - len(result.nullspace)


def _count_orbit(c, args, kwargs, result):
    if result is not None:
        c["lc_solver.orbit_graphs"] += len(result.graphs)


@dataclass(frozen=True)
class Target:
    time_metric: str
    counter: Callable | None = None
    counts: tuple[str, ...] = ()


_SERIALIZE = (
    "load_graph", "load_state", "load_sequence", "load_hypergraph",
    "graph_from_adjacency_text", "hypergraph_from_dict", "sequence_from_list",
    "hypergraph_to_dict", "dump_hypergraph", "sequence_to_list", "dump_sequence",
    "graph_to_adjacency_text", "write_text",
)

TARGETS: dict[str, Target] = {
    "cli.main": Target("cli.self_s"),
    **{f"serialize.{name}": Target("serialize.self_s") for name in _SERIALIZE},
    "hypergraph.WeightedHypergraph.make": Target(
        "hypergraph.make_s", _count_make,
        ("hypergraph.make_calls", "hypergraph.make_items")),
    "hypergraph.SimpleGraph.__post_init__": Target(
        "hypergraph.graph_validate_s", _calls("hypergraph.graph_constructions"),
        ("hypergraph.graph_constructions",)),
    "transforms.apply_sequence": Target(
        "transforms.apply_sequence_s", _count_sequence, ("transforms.gates_applied",)),
    "transforms.local_complement": Target(
        "transforms.local_complement_s", _calls("transforms.local_complement_calls"),
        ("transforms.local_complement_calls",)),
    "phase_algebra.power_of_product": Target(
        "phase_algebra.power_of_product_s", _count_power,
        ("phase_algebra.power_of_product_calls", "phase_algebra.link_edges",
         "phase_algebra.subsets_enumerated", "phase_algebra.delta_edges")),
    "counterexamples.verify_construction": Target("counterexamples.self_s"),
    "counterexamples.verify_counterexample": Target("counterexamples.self_s"),
    "counterexamples.derive_lu_partner": Target(
        "counterexamples.self_s", _calls("counterexamples.derive_calls"),
        ("counterexamples.derive_calls",)),
    "counterexamples.degree_distribution_search": Target(
        "counterexamples.self_s", _count_search, ("counterexamples.search_subsets",)),
    "counterexamples.bipartite_preserving_sequence": Target(
        "counterexamples.self_s", _calls("counterexamples.sequence_calls"),
        ("counterexamples.sequence_calls",)),
    "gf2.solve_linear_gf2": Target(
        "gf2.solve_s", _count_solve,
        ("gf2.solve_calls", "gf2.rows_raw", "gf2.rows_distinct", "gf2.rows_zero",
         "gf2.rows_useful", "gf2.cols", "gf2.rank", "gf2.nullity")),
    "gf2.echelonize": Target("gf2.echelonize_s"),
    "gf2.GF2Matrix.rank": Target("gf2.rank_s"),
    "lc_solver.lc_equivalent": Target("lc_solver.self_s"),
    "lc_solver.verify_witness": Target("lc_solver.verify_witness_s"),
    "lc_solver.lemma_case_analysis": Target("lc_solver.lemma_s"),
    "lc_solver.lc_orbit": Target("lc_solver.orbit_s", _count_orbit, ("lc_solver.orbit_graphs",)),
}


class Spans:
    """Spans in parallel arrays (about 28 bytes each): name id, parent
    index (-1 for a job's root), job index, start and end seconds."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name, self.parent, self.job = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, name_id: int, parent: int, job: int) -> int:
        """Reserve a span whose times are filled in by ``close``."""
        self.name.append(name_id)
        self.parent.append(parent)
        self.job.append(job)
        self.start.append(0.0)
        self.end.append(0.0)
        return len(self.name) - 1

    def close(self, index: int, start: float, end: float) -> None:
        self.start[index] = start
        self.end[index] = end

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name: duration minus direct children's."""
        total = [0.0] * len(self.names)
        name, parent = self.name, self.parent
        for i in range(len(name)):
            d = self.end[i] - self.start[i]
            total[name[i]] += d
            if parent[i] >= 0:
                total[name[parent[i]]] -= d
        return dict(zip(self.names, total))

    def write(self, path: Path) -> None:
        """Arrays as raw machine values, with a JSON header naming them."""
        header = {"names": self.names, "count": len(self),
                  "arrays": [["name", "i"], ["parent", "i"], ["job", "i"], ["start", "d"], ["end", "d"]]}
        path.with_suffix(".json").write_text(json.dumps(header))
        with open(path, "wb") as fh:
            for arr in (self.name, self.parent, self.job, self.start, self.end):
                arr.tofile(fh)


@dataclass
class Tracer:
    """Installs wrappers, records spans, and turns them into layer metrics."""

    targets: dict[str, Target] = field(default_factory=lambda: dict(TARGETS))
    spans: Spans = field(default_factory=Spans)
    counts: defaultdict = field(default_factory=lambda: defaultdict(int))
    notes: list[str] = field(default_factory=list)
    installed: set[str] = field(default_factory=set)
    dropped: set[str] = field(default_factory=set)
    _stack: list[int] = field(default_factory=lambda: [-1])
    _undo: list = field(default_factory=list)
    _job: int = -1
    _leak: float = 0.0  # seconds per wrapped call that the wrapper's clocks miss

    # -- installation ------------------------------------------------

    def install(self) -> None:
        self._leak = self._calibrate()
        for path, target in self.targets.items():
            module_name, _, attr_path = path.partition(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                owner, attr = module, attr_path
                while "." in attr:
                    head, _, attr = attr.partition(".")
                    owner = getattr(owner, head)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.notes.append(f"{path} not found; its metrics are left out")
                continue
            if isinstance(owner, type):
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapped = self._wrap(path, fn, target)
                self._set(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
            else:
                wrapped = self._wrap(path, raw, target)
                for name, mod in list(sys.modules.items()):
                    if (name == PACKAGE or name.startswith(PACKAGE + ".")) and mod:
                        for key, value in list(vars(mod).items()):
                            if value is raw:
                                self._set(mod, key, wrapped)
            self.installed.add(path)

    @staticmethod
    def _calibrate() -> float:
        """Median cost per call of a wrapped no-op beyond the bare call and
        beyond what the wrapper's spans record."""
        def noop(x):
            return x

        calls, estimates = 20_000, []
        for _ in range(5):
            probe = Tracer(targets={})
            wrapped = probe._wrap("probe", noop, Target("probe_s"))
            t0 = time.perf_counter()
            for i in range(calls):
                noop(i)
            t1 = time.perf_counter()
            for i in range(calls):
                wrapped(i)
            t2 = time.perf_counter()
            seen = sum(probe.spans.self_times().values())
            estimates.append((t2 - t1 - (t1 - t0) - seen) / calls)
        return max(0.0, statistics.median(estimates))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, path: str, fn: Callable, target: Target) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        counter, leak = target.counter, self._leak
        own_id, book_id = spans.name_id(path), spans.name_id(BOOKKEEPING)

        def traced(*args, **kwargs):
            enter = clock()
            parent = stack[-1]
            index = spans.open(own_id, parent, self._job)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.close(index, start, end)
                if counter is not None and path not in self.dropped:
                    try:
                        counter(counts, args, kwargs, result)
                    except Exception as exc:  # a changed signature must not fail the job
                        self.dropped.add(path)
                        self.notes.append(f"counting {path} failed ({exc!r}); its counts are left out")
                book = spans.open(book_id, parent, self._job)
                spans.close(book, enter, enter + (start - enter) + (clock() - end) + leak)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", path)
        return traced

    # -- spans ----------------------------------------------------------

    def job(self, job_id: int, fn: Callable, *args):
        """Run ``fn(*args)`` as the root span of one job; returns (result, seconds)."""
        self._job = job_id
        index = self.spans.open(self.spans.name_id(HARNESS), -1, job_id)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.close(index, start, end)
        return result, end - start

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics: self times, counts and the useful-row ratio."""
        live = [t for p, t in self.targets.items() if p in self.installed]
        out: dict[str, float] = {t.time_metric: 0.0 for t in live}
        for path, t in self.targets.items():
            if path in self.installed and path not in self.dropped:
                for name in t.counts:
                    out[name] = self.counts.get(name, 0) / passes
        for name, seconds in self.spans.self_times().items():
            metric = self.targets[name].time_metric if name in self.targets else name
            out[metric] = out.get(metric, 0.0) + seconds / passes
        if "gf2.rows_useful" in out:
            raw = out["gf2.rows_raw"]
            out["gf2.useful_row_ratio"] = out["gf2.rows_useful"] / raw if raw else 0.0
        return out
