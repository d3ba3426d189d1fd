"""Answer gate: what each job printed, and whether it is right.

``answer`` reduces one job's exit code, standard output and output
files to a timing-free dict; its digest must repeat on every pass.
``check`` compares the answer against ``pins.json`` (answers written by
``pin.py`` on a trusted commit, for jobs whose inputs do not depend on
the seed) and against independent certificates: every LC witness is re-checked
with ``lc_solver.verify_witness`` and ``reference.lc_witness_ok``, every
"not equivalent" verdict on a bipartite pair needs ``lemma_case_analysis``
and ``reference.lemma_solvable`` to agree, search candidates
are recomputed by ``reference.degree_search``, transform outputs are
compared with ``reference.StateModel`` and, up to 12 qubits, with
``oracle.replay_dense``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import reference as ref

PINS_PATH = Path(__file__).with_name("pins.json")
ORACLE_MAX_QUBITS = 12
ORACLE_TOL = 1e-9


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def _report_without_timing(text: str) -> tuple[dict, dict | None, dict | None]:
    """Report with elapsed time dropped and LC witnesses replaced by a marker."""
    report = json.loads(text)
    report.pop("elapsed_seconds")
    witness = report["lc"]["witness"]
    if witness is not None:
        report["lc"]["witness"] = "re-checked"
    against_witness = None
    if "against" in report:
        against_witness = report["against"].get("lc_witness")
        if against_witness is not None:
            report["against"]["lc_witness"] = "re-checked"
    return report, witness, against_witness


def answer(job: dict, code: int, out: str, files: dict[str, str]) -> dict:
    """Everything the job decided, without timings; ``files`` holds the
    text of the job's output files by their key in ``job["outputs"]``."""
    kind = job["kind"]
    if kind in ("verify", "verify-against"):
        report, _, _ = _report_without_timing(out)
        result = {"exit": code, "report": report}
        if kind == "verify":
            result["report_file_matches"] = files["report"] == out
        return result
    if kind in ("check-lc", "orbit"):
        return {"exit": code, "stdout": out}
    if kind == "transform":
        return {"exit": code, "ledger": out, "state": files["out"]}
    raise ValueError(f"unknown job kind {kind!r}")


def pin_entry(job: dict, ans: dict) -> dict:
    """What pins.json records for a seed-independent job."""
    if job["kind"] == "verify":
        return {"exit": ans["exit"], "report": digest(ans["report"])}
    if job["kind"] == "check-lc":
        return {"exit": ans["exit"]}
    if job["kind"] == "orbit":
        return {"exit": ans["exit"], "stdout": ans["stdout"]}
    raise ValueError(f"job kind {job['kind']!r} has no pin")


def _graph(rows):
    from hyperlu.hypergraph import SimpleGraph

    return SimpleGraph(len(rows), tuple(rows))


def _witness_ok(g1_rows, g2_rows, witness: dict) -> bool:
    """Both ``lc_solver.verify_witness`` and ``reference.lc_witness_ok`` accept it."""
    from hyperlu.lc_solver import CliffordWitness, verify_witness

    try:
        w = CliffordWitness(*(tuple(witness[k]) for k in "abcd"))
    except ValueError:
        return False
    return verify_witness(_graph(g1_rows), _graph(g2_rows), w) and ref.lc_witness_ok(g1_rows, g2_rows, witness)


def _lemma_solvable(g1_rows, left, right, g2_rows) -> bool:
    """``lemma_case_analysis``'s answer, which ``reference.lemma_solvable`` must share."""
    from hyperlu.lc_solver import BipartiteSplit, lemma_case_analysis

    lemma = lemma_case_analysis(_graph(g1_rows), BipartiteSplit(tuple(left), tuple(right)), _graph(g2_rows))
    if lemma.case2_solvable and not lemma.graph_check_passed:
        raise AssertionError("lemma found a complementation set that does not reproduce g2")
    if lemma.case2_solvable != ref.lemma_solvable(g1_rows, left, right, g2_rows):
        raise AssertionError("lemma_case_analysis and the reference lemma disagree")
    return lemma.case2_solvable


def check(job: dict, code: int, out: str, ans: dict, pins: dict) -> list[str]:
    """Reasons the job's answer is wrong; empty when it is right."""
    kind = job["kind"]
    errors: list[str] = []
    pin = pins.get(job["pin"]) if job["pin"] else None
    if job["pin"] and pin is None:
        errors.append(f"no pin {job['pin']!r}")
    elif pin and kind != "verify-against" and pin != pin_entry(job, ans):
        errors.append(f"answer differs from pin {job['pin']}")

    if kind == "verify":
        if not ans["report_file_matches"]:
            errors.append("--report file differs from stdout")
        _, witness, _ = _report_without_timing(out)
        errors += _check_construction_verdict(job["spec"], ans["report"], witness)

    elif kind == "check-lc":
        expect = job["expect"]
        if expect == "lemma":
            expect = "yes" if _lemma_solvable(job["g1"], job["left"], job["right"], job["g2"]) else "no"
        elif expect == "no" and _lemma_solvable(job["g1"], job["left"], job["right"], job["g2"]):
            errors.append("expected 'no' lacks a lemma certificate")
        if expect == "yes":
            if code != 0:
                errors.append(f"exit {code}, expected 0 (equivalent)")
            elif not _witness_ok(job["g1"], job["g2"], json.loads(out)):
                errors.append("LC witness fails verify_witness")
        elif code != 1 or out != "not LC-equivalent\n":
            errors.append(f"exit {code}, expected 1 (not equivalent)")

    elif kind == "verify-against":
        report, witness, against_witness = _report_without_timing(out)
        against = report.pop("against")
        if pin and pin["report"] != digest(report):
            errors.append(f"construction report differs from pin {job['pin']}")
        errors += _check_construction_verdict(job["spec"], report, witness)
        errors += _check_against(job, against, against_witness)
        if code != (2 if against["search"]["budget_exhausted"] else 0):
            errors.append(f"exit {code} does not match the search outcome")

    elif kind == "transform":
        errors += _check_transform(job, code, ans)
    return errors


def _check_construction_verdict(spec: str, report: dict, witness: dict | None) -> list[str]:
    """Re-derive the LU partner from the report's witness and re-check the LC verdict."""
    if not report["lu"]["equivalent"]:
        return []
    g1, left, right = ref.construction(spec)
    g2 = ref.graph_of(ref.replay(g1, report["lu"]["witness"]))
    if g2 is None:
        return ["LU witness does not end in a graph state"]
    verdict = report["lc"]["verdict"]
    if verdict == "yes-with-witness":
        return [] if witness and _witness_ok(g1, g2, witness) else ["LC witness fails verify_witness"]
    if verdict in ("no-by-solver", "no-by-parity"):
        return ["'not equivalent' lacks a lemma certificate"] if _lemma_solvable(g1, left, right, g2) else []
    return [f"unexpected LC verdict {verdict!r}"]


def _check_against(job: dict, against: dict, witness: dict | None) -> list[str]:
    errors = []
    g, left, right = ref.construction(job["spec"])
    other = job["against"]
    if against["imported_n"] != len(other):
        errors.append("imported_n is wrong")
    verdict = against["lc_verdict"]
    if verdict != job["expect"]:
        errors.append(f"lc_verdict {verdict!r}, expected {job['expect']!r}")
    elif verdict == "witness" and not _witness_ok(g, other, witness):
        errors.append("LC witness fails verify_witness")
    elif verdict == "none":
        # expect == "none" only for an LC walk of g plus a left clique, so
        # the lemma's certificate for that pair covers the imported graph
        if _lemma_solvable(g, left, right, ref.with_clique(g, left)):
            errors.append("'none' lacks a lemma certificate")
    budget = int(job["argv"][job["argv"].index("--budget") + 1])
    candidates, examined, exhausted = ref.degree_search(
        g, left, right, [r.bit_count() for r in other], budget
    )
    expected = {"candidates": candidates, "examined": examined, "budget_exhausted": exhausted}
    if against["search"] != expected:
        errors.append("search result differs from the reference search")
    return errors


def _check_transform(job: dict, code: int, ans: dict) -> list[str]:
    if code != 0:
        return [f"exit {code}, expected 0"]
    errors = []
    if json.loads(ans["state"]) != job["expect_state"]:
        errors.append("output state differs from the reference model")
    if ans["ledger"].splitlines() != job["expect_ledger"]:
        errors.append("ledger differs from the reference model")
    if job["n"] <= ORACLE_MAX_QUBITS:
        from hyperlu import oracle, serialize

        state = serialize.load_state(job["state"])
        seq = list(serialize.load_sequence(job["sequence"]))
        dense = oracle.replay_dense(state, seq)
        predicted = oracle.dense_state(serialize.hypergraph_from_dict(json.loads(ans["state"])))
        if oracle.global_phase_deviation(predicted, dense) > ORACLE_TOL:
            errors.append("output state differs from oracle.replay_dense")
    return errors
