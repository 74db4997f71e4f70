"""The benchmark's checks accept correct outputs and reject corrupted ones.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from worker import _call_cli  # noqa: E402

GOOD_EVEN6 = {
    "schema": 1,
    "report": "even_unplayable",
    "max_n": 6,
    "results": [
        {
            "n": n,
            "tournament_count": 2 ** (n * (n - 1) // 2),
            "all_polytopes_empty": True,
            "all_determinants_odd_squares": True,
            "all_pfaffians_odd": True,
            "failures": [],
        }
        for n in (2, 4, 6)
    ],
    "ok": True,
}

GOOD_THEOREM7 = {
    "schema": 1,
    "report": "theorem",
    "n": 3,
    "objects": 7,
    "class_count": 456,
    "playable_count": 12,
    "construction_canonical": 35072,
    "champion_canonical": 35072,
    "statistics": [
        {"name": "ui_variance", "construction_value": "10/63"},
        {"name": "nash_ties", "construction_value": "61/243"},
    ],
    "e_in_majorization": {"strict": 11, "equal": 0, "no": 0, "counterexamples": []},
    "equilibrium_majorization": {
        "strict": 10,
        "equal": 0,
        "no": 1,
        "counterexamples": [
            {
                "canonical": 103560,
                "sequence": "['9/35', '1/5', '1/5', '1/7', '1/7', '1/35', '1/35']",
            }
        ],
    },
    "schur_violations": 0,
    "assertions": {
        "unique_variance_and_ties": True,
        "attains_entropy_extremes": True,
        "e_in_strictly_majorizes": True,
        "equilibrium_strictly_majorizes": False,
    },
    "ok": False,
}


def test_even6_accepts_the_correct_report():
    assert checks.check_even6(GOOD_EVEN6, 0) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["results"][2].update(tournament_count=32767),
        lambda r: r["results"][1].update(failures=[17]),
        lambda r: r["results"][0].update(all_pfaffians_odd=False),
        lambda r: r["results"].pop(),
        lambda r: r.update(ok=False),
    ],
    ids=["wrong-count", "failure-list", "flag", "missing-order", "not-ok"],
)
def test_even6_rejects(corrupt):
    bad = copy.deepcopy(GOOD_EVEN6)
    corrupt(bad)
    assert checks.check_even6(bad, 0)


def test_theorem7_accepts_the_documented_red():
    assert checks.check_theorem7(GOOD_THEOREM7, 1) == []


def _drop_counterexample(r):
    r["equilibrium_majorization"] = {"strict": 11, "equal": 0, "no": 0, "counterexamples": []}
    r["assertions"]["equilibrium_strictly_majorizes"] = True
    r["ok"] = True


@pytest.mark.parametrize(
    "corrupt, rc",
    [
        (lambda r: r.update(class_count=455), 1),
        (lambda r: r.update(construction_canonical=35073), 1),
        (
            lambda r: r["equilibrium_majorization"]["counterexamples"][0].update(
                sequence="['9/35', '1/5', '1/5', '1/7', '1/7', '2/35', '0']"
            ),
            1,
        ),
        (
            lambda r: r["equilibrium_majorization"]["counterexamples"][0].update(canonical=35072),
            1,
        ),
        (_drop_counterexample, 0),
        (lambda r: r["statistics"][0].update(construction_value="8/63"), 1),
        (lambda r: None, 0),
    ],
    ids=["class-count", "construction", "sequence", "not-a-counterexample",
         "dropped-counterexample", "statistic", "exit-code"],
)
def test_theorem7_rejects(corrupt, rc):
    bad = copy.deepcopy(GOOD_THEOREM7)
    corrupt(bad)
    assert checks.check_theorem7(bad, rc)


def test_kernel_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    for n in (3, 4, 7, 10, 15):
        g = inputs.random_game(n, rng)
        A = checks.payoff(g.beats)
        ours = checks.kernel(A)
        theirs = sympy.Matrix(A).nullspace()
        assert len(ours) == len(theirs) == n % 2
        if ours:
            v = [Fraction(int(x.p), int(x.q)) for x in theirs[0]]
            scale = next(a / b for a, b in zip(ours[0], v) if b)
            assert list(ours[0]) == [scale * x for x in v]


def test_lexmin_is_relabeling_invariant():
    rng = random.Random(3)
    g = inputs.star(3)
    assert checks.lexmin(inputs.shuffled(g, rng).beats) == checks.lexmin(g.beats)
    packed = checks.lexmin(g.beats)
    assert checks.pack(checks.unpack(7, packed), range(7)) == packed


def _analyze(tmp_path: Path, g: inputs.Game) -> tuple[int, dict]:
    path = tmp_path / "game.edges"
    path.write_text(inputs.edge_list_text(g), encoding="utf-8")
    rc, out, _ = _call_cli(["analyze", str(path)])
    return rc, json.loads(out)


def _find(kind_witness: str, n: int) -> inputs.Game:
    """A random game whose analysis carries the given kind of witness."""
    from tourneylab.equilibrium import classify_playability
    from tourneylab.tournament import Tournament

    rng = random.Random(11)
    for _ in range(500):
        g = inputs.random_game(n, rng)
        text = classify_playability(Tournament(g.n, g.beats, g.labels)).witness_text(g.labels)
        if kind_witness in text:
            return g
    raise AssertionError(f"no {n}-object game with witness {kind_witness!r}")


@pytest.fixture(scope="module")
def games():
    rng = random.Random(5)
    return {
        "star": inputs.shuffled(inputs.star(4), rng),
        "cycle": inputs.shuffled(inputs.cycle(7), rng),
        "blowup": inputs.shuffled(inputs.blow(inputs.cycle(5), 2, inputs.star(2)), rng),
        "dominated": _find("weakly dominates", 7),
        "empty": _find("empty kernel polytope", 21),
        "even": inputs.random_game(8, rng),
    }


def test_analysis_accepts_correct_reports(tmp_path, games):
    for g in games.values():
        rc, doc = _analyze(tmp_path, g)
        assert checks.check_analysis(g, rc, json.dumps(doc)) == [], g.kind


def _perturb_equilibrium(doc):
    v = doc["equilibrium"]["exact"]
    v[0] = str(Fraction(v[0]) + Fraction(1, 1000))
    v[1] = str(Fraction(v[1]) - Fraction(1, 1000))


def _swap_dominance(doc):
    better, worse = doc["playability"]["witness"].split(" weakly dominates ")
    doc["playability"]["witness"] = f"{worse} weakly dominates {better}"


def _call_unplayable(doc):
    doc["playability"].update(
        {"class": "unplayable", "witness": "no equilibrium plays every object (empty kernel polytope)"}
    )
    doc["equilibrium"] = None


def _call_playable(doc):
    n = doc["input"]["n"]
    doc["playability"].update({"class": "strongly_playable", "witness": "unique totally mixed equilibrium"})
    doc["equilibrium"] = {"exact": [f"1/{n}"] * n, "approx": [1 / n] * n}
    doc["imbalance"]["nash_ties"] = {"exact": f"1/{n}", "approx": 1 / n}
    doc["imbalance"]["sorted_equilibrium"] = doc["equilibrium"]


@pytest.mark.parametrize(
    "name, corrupt, rc",
    [
        ("star", _perturb_equilibrium, 0),
        ("cycle", _perturb_equilibrium, 0),
        ("blowup", _perturb_equilibrium, 0),
        ("dominated", _swap_dominance, 2),
        ("star", _call_unplayable, 2),
        ("empty", _call_playable, 0),
        ("even", _call_playable, 0),
        ("even", lambda d: d["imbalance"]["ui_variance"].update(exact="1/3"), 2),
        ("dominated", lambda d: d["degree_profile"]["wins"].reverse(), 2),
        ("cycle", lambda d: d["playability"].update(is_strong=False), 0),
        ("cycle", lambda d: None, 2),
    ],
    ids=["star-equilibrium", "cycle-equilibrium", "blowup-equilibrium",
         "false-dominance", "playable-called-unplayable", "unplayable-called-playable",
         "even-called-playable", "ui-variance", "wins", "is-strong", "exit-code"],
)
def test_analysis_rejects(tmp_path, games, name, corrupt, rc):
    g = games[name]
    _, doc = _analyze(tmp_path, g)
    corrupt(doc)
    assert checks.check_analysis(g, rc, json.dumps(doc))
