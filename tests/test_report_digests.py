"""Pinned answers of in-process ``verify --spec`` runs.

Each spec stores the sha256 of its stdout with the ``elapsed_seconds``
line removed, of its stderr and of its exit code. A digest changes only
when the report, an error message or an exit code does, so a change that
keeps answers byte-identical leaves this table as it is. Every spec is a
subset family, so none of them may enumerate its sweep ledger.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

from conftest import SMALL_SPECS, VERIFY_LADDER
from hyperlu import counterexamples as cx
from hyperlu import serialize, transforms
from hyperlu.cli import main
from hyperlu.hypergraph import SimpleGraph

DIGEST_SPECS = VERIFY_LADDER + (
    "g2h7", "bipartite:15:12", "bipartite:15:13", "bipartite:31:30",
) + SMALL_SPECS


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verify_digests(spec: str, capsys, *extra: str) -> tuple[str, str, str]:
    """(stdout, stderr, exit code) digests of ``verify --spec spec``."""
    code = main(["verify", "--spec", spec, *extra])
    out, err = capsys.readouterr()
    out = "".join(
        line for line in out.splitlines(keepends=True)
        if not line.lstrip().startswith('"elapsed_seconds"')
    )
    return _sha(out), _sha(err), _sha(str(code))


# computed on the tree before the ledger was read off the graph
DIGESTS = {
    "bipartite:7:5": (
        "784adab5f99c8370244dad8fd2e333cf1437353e2297904c8bb099de9b09f5f3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    ),
    "twentyseven": (
        "41916aaac87e5514e20a55358ee303a6f569a1d6388fbfff3264d06a021423f0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    ),
    "bipartite:7:4": (
        "eb89098a548ab735b418473ef6b051163f83f4edfe6e52188dd1c088239bee09",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    ),
    "bipartite:8:5": (
        "f413382cd2c45741f0596445a6430e56a5e921b7946e834819dcd3a925cff917",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ),
    "bipartite:11:9": (
        "f3b196754cd52f52f08c12669c5bd2db3e315e495ccbd7c9263f9df62d318b82",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ),
    "bipartite:11:8": (
        "d13641ecaa105cb5a33454c5a36e5342cdffd2ea920b0f16bcbd2d5cb00704f8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ),
    "bipartite:11:4": (
        "a162a6245c284368a2e8886bf78dbe2e9545cbfbd8421cb4c9b4181008477dab",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ),
    "bipartite:11:7": (
        "6b2edd99a94618cb43ee81401f168d685725d44e79dfe062418ef5ebba4fb743",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ),
    "bipartite:11:6": (
        "11c1287e1abf70ec9b1300861d7ed50afd93eee41840966ac62ed77388f65bee",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ),
    "bipartite:9:5": (
        "0e9b029adcca4804babf0a0582af94e8a41bf4eb813beffde9c3d1dd7a85a42f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ),
    "g2h7": (
        "e84602dace0aa113718bffc5fcbc5f5b3ff7203a829d982d5575810ffeb4799d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ),
    "bipartite:15:12": (
        "3193fd837831f5b9202f303841db51663bb75a92a3beb8c2e9ade2134737939e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    ),
    "bipartite:15:13": (
        "1e33d5e2b7a688ab5cdb629baf8a5eb7213fbb3e3e4459b36c3dd54d2cf2de5f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    ),
    "bipartite:31:30": (
        "f818d9780f463c45471bfc8b3b0bba9285209508772996196ee571afc8061360",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ),
    "bipartite:5:2": (
        "7426dbb9ded9543be6997397fc3da8d9d6d30561611a92bfb0aee43794c64558",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ),
    "bipartite:6:3": (
        "1c7f9a691507ce6d61dd5d530c2b05b8c90bd829f3f3a26cb0db0e82486a39cb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ),
    "bipartite:4:4": (
        "99b62dd4001816d0d495e81a8c218083e8a8a7955571f5bd7c77cc11ac2802f9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ),
    "bipartite:3:2": (
        "8178dc6bc24a9eb43150fdf25083183d2fee91c6a513a80f5a552299818587fa",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ),
    "bipartite:1:1": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "77137b9a542c28e4f9f3e08f8ae656a2fb50e978d9c473ebc5b5c59b0062c429",
        "4e07408562bedb8b60ce05c1decfe3ad16b72230967de01f640b7e4729b49fce",
    ),
    "bipartite:2:1": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "c63f68fbf6f08e401145fc4267bcffa9eb3669daa5da8bd973fdae163cb6c3f5",
        "4e07408562bedb8b60ce05c1decfe3ad16b72230967de01f640b7e4729b49fce",
    ),
}


@pytest.mark.parametrize("spec", DIGEST_SPECS)
def test_verify_report_is_pinned(spec, capsys, monkeypatch):
    """No spec enumerates its ledger, and none builds the canonical sweep
    state: the check reads the fold's numerators."""
    enumerated, canonical = [], []
    monkeypatch.setattr(cx, "_raw_sweep_deltas", lambda *args: enumerated.append(args))
    state = transforms._Fold.state
    monkeypatch.setattr(transforms._Fold, "state", lambda self: canonical.append(1) or state(self))
    digests = verify_digests(spec, capsys)
    assert enumerated == [] and canonical == []
    assert digests == DIGESTS[spec]


# verify --spec <spec> --against <walk> --budget 3000, where the walk is 12
# local complementations at seeded random vertices of twentyseven's LU
# partner (the graph plus a left clique) or of bipartite:7:5 itself;
# computed before the sweep check moved onto edge masks
AGAINST_DIGESTS = {
    "twentyseven": (
        "f84716d7f33ac80bfaaed235e3d626f660afefb487d64ef9d46617b490b3ef23",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35",
    ),
    "bipartite:7:5": (
        "dd244570d95706b6f4a3280ac790a25c2b5697b5ec5568e7a04177ba02da5cc1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35",
    ),
}


def walked_adjacency(spec: str, path) -> str:
    g, split = cx.build(cx.parse_spec(spec))
    rows = list(g.rows)
    if spec == "twentyseven":
        for u, v in combinations(split.left, 2):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    rng = random.Random(1901)
    for _ in range(12):
        transforms.local_complement_rows(rows, rng.randrange(len(rows)))
    path.write_text(serialize.graph_to_adjacency_text(SimpleGraph._trusted(g.n, tuple(rows))))
    return str(path)


@pytest.mark.parametrize("spec", sorted(AGAINST_DIGESTS))
def test_verify_against_a_walk_is_pinned(spec, capsys, tmp_path):
    adj = walked_adjacency(spec, tmp_path / "walk.adj")
    assert verify_digests(spec, capsys, "--against", adj, "--budget", "3000") == AGAINST_DIGESTS[spec]
