"""Independent checks of the program's outputs.

Nothing here imports tourneylab: the exact linear algebra, the canonical
labelling and the expected values are the benchmark's own. Each check returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import ast
import itertools
import json
import math
from fractions import Fraction

from inputs import Game, star

PLAYABLE_CLASSES = ("playable", "strongly_playable")

# Isomorphism classes of 7-object tournaments (OEIS A000568).
CLASSES_7 = 456
# A playable 7-object class whose equilibrium the construction's does not
# majorize: the red of acceptance criterion 3. The benchmark re-derives it.
MAJORIZATION_WITNESS_7 = 103560


# ---------------------------------------------------------------------------
# exact linear algebra on integer matrices
# ---------------------------------------------------------------------------

def payoff(beats: list[list[bool]]) -> list[list[int]]:
    n = len(beats)
    return [
        [1 if beats[i][j] else (-1 if i != j else 0) for j in range(n)]
        for i in range(n)
    ]


def kernel(rows: list[list[int]]) -> list[tuple[Fraction, ...]]:
    """Null-space basis of an integer matrix by Gauss-Jordan elimination.

    Rows stay integer: each elimination step is a cross-multiplication and
    the new row is divided by the gcd of its entries.
    """
    m = [list(r) for r in rows]
    n_cols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        prow = m[r]
        for i in range(len(m)):
            f = m[i][c]
            if i == r or not f:
                continue
            g = prow[c]
            row = [g * x - f * y for x, y in zip(m[i], prow)]
            d = math.gcd(*row)
            m[i] = [x // d for x in row] if d > 1 else row
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    basis = []
    for free in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[free] = Fraction(1)
        for k, pc in enumerate(pivots):
            v[pc] = Fraction(-m[k][free], m[k][pc])
        basis.append(tuple(v))
    return basis


def positive_kernel_point(beats: list[list[bool]]) -> tuple[Fraction, ...] | None:
    """The equilibrium with every object in play, or None if there is none.

    Tournament matrices have a kernel of dimension n mod 2, so a kernel of
    any other dimension is reported as an error rather than decided.
    """
    basis = kernel(payoff(beats))
    if len(basis) != len(beats) % 2:
        raise ValueError(f"kernel dimension {len(basis)} at n = {len(beats)}")
    if not basis:
        return None
    v = basis[0]
    total = sum(v)
    if total == 0:
        return None
    point = tuple(x / total for x in v)
    return point if all(x > 0 for x in point) else None


def _applies_to_zero(beats: list[list[bool]], v) -> bool:
    return all(sum(a * x for a, x in zip(row, v)) == 0 for row in payoff(beats))


def _prefix_sums(xs) -> list:
    return list(itertools.accumulate(sorted(xs, reverse=True)))


def majorizes_strictly(x, y) -> bool:
    """x strictly majorizes y: equal totals, every prefix of x at least y's,
    and the two sorted sequences differ."""
    px, py = _prefix_sums(x), _prefix_sums(y)
    return (
        px[-1] == py[-1]
        and all(a >= b for a, b in zip(px, py))
        and sorted(x) != sorted(y)
    )


def incomparable(x, y) -> bool:
    px, py = _prefix_sums(x), _prefix_sums(y)
    return any(a > b for a, b in zip(px, py)) and any(a < b for a, b in zip(px, py))


# ---------------------------------------------------------------------------
# canonical labelling
# ---------------------------------------------------------------------------

def pack(beats: list[list[bool]], order) -> int:
    """Row-major upper triangle, row 0 most significant; bit 1 iff the
    object in position i beats the one in position j."""
    n = len(order)
    m = 0
    for i in range(n):
        bi = beats[order[i]]
        for j in range(i + 1, n):
            m = (m << 1) | bi[order[j]]
    return m


def unpack(n: int, packed: int) -> list[list[bool]]:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    beats = [[False] * n for _ in range(n)]
    for b, (i, j) in enumerate(pairs):
        if (packed >> (len(pairs) - 1 - b)) & 1:
            beats[i][j] = True
        else:
            beats[j][i] = True
    return beats


def lexmin(beats: list[list[bool]]) -> int:
    """Brute-force canonical form: the least packing over all n! orders."""
    return min(pack(beats, p) for p in itertools.permutations(range(len(beats))))


# ---------------------------------------------------------------------------
# workload checks
# ---------------------------------------------------------------------------

def check_even6(report: dict, rc: int) -> list[str]:
    """verify even --max-n 6: every labeled even game counted, none failing."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    if report.get("max_n") != 6:
        problems.append(f"max_n {report.get('max_n')}")
    results = report.get("results", [])
    if [r.get("n") for r in results] != [2, 4, 6]:
        problems.append(f"orders {[r.get('n') for r in results]}, expected [2, 4, 6]")
    for r in results:
        n = r.get("n", 0)
        want = 2 ** (n * (n - 1) // 2)
        if r.get("tournament_count") != want:
            problems.append(f"n={n}: {r.get('tournament_count')} games, expected {want}")
        if r.get("failures"):
            problems.append(f"n={n}: failures {r['failures'][:5]}")
        for flag in ("all_polytopes_empty", "all_determinants_odd_squares", "all_pfaffians_odd"):
            if r.get(flag) is not True:
                problems.append(f"n={n}: {flag} is {r.get(flag)}")
    if report.get("ok") is not True:
        problems.append(f"ok is {report.get('ok')}")
    return problems


def even6_games() -> int:
    return sum(2 ** (n * (n - 1) // 2) for n in (2, 4, 6))


def _check_tally(name: str, tally: dict, playable: int, rederive) -> list[str]:
    problems = []
    total = tally["strict"] + tally["equal"] + tally["no"]
    if total != playable - 1:
        problems.append(f"{name}: {total} comparisons for {playable} playable classes")
    bad = tally["counterexamples"]
    if len(bad) != tally["equal"] + tally["no"]:
        problems.append(f"{name}: {len(bad)} counterexamples for equal+no")
    for c in bad:
        problems += [f"{name}: class {c['canonical']}: {p}" for p in rederive(c)]
    return problems


def check_theorem7(report: dict, rc: int) -> list[str]:
    """verify theorem --n 3 over the 7-object classes.

    The counterexamples are re-derived from scratch, so the documented red
    verdict (ok false) is accepted exactly when its witnesses hold.
    """
    problems = []
    cons = star(3)
    cons_eq = [cons.expected[x] for x in cons.labels]
    cons_wins = cons.wins()
    if report.get("objects") != 7 or report.get("n") != 3:
        problems.append(f"objects {report.get('objects')}, n {report.get('n')}")
    if report.get("class_count") != CLASSES_7:
        problems.append(f"class_count {report.get('class_count')}, expected {CLASSES_7}")
    if report.get("construction_canonical") != lexmin(cons.beats):
        problems.append(
            f"construction_canonical {report.get('construction_canonical')}, "
            f"brute force gives {lexmin(cons.beats)}"
        )

    def rederive_eq(c: dict) -> list[str]:
        beats = unpack(7, c["canonical"])
        if lexmin(beats) != c["canonical"]:
            return ["not a canonical form"]
        v = positive_kernel_point(beats)
        if v is None:
            return ["no positive one-dimensional kernel: not playable"]
        seq = [Fraction(x) for x in ast.literal_eval(c["sequence"])]
        if seq != sorted(v, reverse=True):
            return [f"sequence {c['sequence']} is not the equilibrium {sorted(v, reverse=True)}"]
        if majorizes_strictly(cons_eq, v):
            return ["the construction's equilibrium does majorize it"]
        return []

    def rederive_wins(c: dict) -> list[str]:
        beats = unpack(7, c["canonical"])
        if positive_kernel_point(beats) is None:
            return ["not playable"]
        wins = [sum(row) for row in beats]
        seq = [int(x) for x in ast.literal_eval(c["sequence"])]
        if seq != sorted(wins, reverse=True):
            return [f"sequence {c['sequence']} is not the win sequence"]
        if majorizes_strictly(cons_wins, wins):
            return ["the construction's wins do majorize it"]
        return []

    try:
        playable = report["playable_count"]
        eq_tally = report["equilibrium_majorization"]
        ein_tally = report["e_in_majorization"]
        problems += _check_tally("equilibrium", eq_tally, playable, rederive_eq)
        problems += _check_tally("e_in", ein_tally, playable, rederive_wins)
        listed = {c["canonical"] for c in eq_tally["counterexamples"]}
        if MAJORIZATION_WITNESS_7 not in listed:
            witness = positive_kernel_point(unpack(7, MAJORIZATION_WITNESS_7))
            if witness is not None and incomparable(cons_eq, witness):
                problems.append(
                    f"class {MAJORIZATION_WITNESS_7} is playable and incomparable "
                    "but not listed as a counterexample"
                )
        assertions = report["assertions"]
        if assertions["equilibrium_strictly_majorizes"] != (not eq_tally["counterexamples"]):
            problems.append("equilibrium_strictly_majorizes disagrees with its tally")
        if assertions["e_in_strictly_majorizes"] != (not ein_tally["counterexamples"]):
            problems.append("e_in_strictly_majorizes disagrees with its tally")
        ok = all(assertions.values()) and report["schur_violations"] == 0
        if report["ok"] is not ok:
            problems.append(f"ok is {report['ok']}, the assertions give {ok}")
        if rc != (0 if ok else 1):
            problems.append(f"exit code {rc} for ok {ok}")
        stats = {s["name"]: s for s in report["statistics"]}
        want_var = ui_variance(cons_wins)
        if Fraction(stats["ui_variance"]["construction_value"]) != want_var:
            problems.append(f"construction ui_variance, expected {want_var}")
        want_ties = sum(x * x for x in cons_eq)
        if Fraction(stats["nash_ties"]["construction_value"]) != want_ties:
            problems.append(f"construction nash_ties, expected {want_ties}")
    except (KeyError, TypeError, ValueError, SyntaxError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


def ui_variance(wins: list[int]) -> Fraction:
    n = len(wins)
    return sum(Fraction(2 * w - (n - 1), n - 1) ** 2 for w in wins) / n


def _reaches_all(adj: list[list[bool]]) -> bool:
    n = len(adj)
    seen = {0}
    todo = [0]
    while todo:
        u = todo.pop()
        for v in range(n):
            if adj[u][v] and v not in seen:
                seen.add(v)
                todo.append(v)
    return len(seen) == n


def is_strong(beats: list[list[bool]]) -> bool:
    n = len(beats)
    reverse = [[beats[j][i] for j in range(n)] for i in range(n)]
    return _reaches_all(beats) and _reaches_all(reverse)


def _check_unplayable(g: Game, witness: str) -> list[str]:
    """An unplayable verdict is proved by a dominance pair checked row by row,
    or else by the benchmark's own kernel, which must back the witness."""
    if g.expected is not None:
        return ["a game with a known totally mixed equilibrium called unplayable"]
    if " weakly dominates " in witness:
        better, worse = witness.split(" weakly dominates ")
        if better not in g.labels or worse not in g.labels:
            return [f"dominance witness names unknown objects: {witness!r}"]
        A = payoff(g.beats)
        rb, rw = A[g.labels.index(better)], A[g.labels.index(worse)]
        if not (all(a >= b for a, b in zip(rb, rw)) and rb != rw):
            return [f"false dominance: {witness!r}"]
        return []
    basis = kernel(payoff(g.beats))
    if len(basis) != g.n % 2:
        return [f"kernel dimension {len(basis)} at n = {g.n}"]
    v = basis[0] if basis else ()
    signs = {(x > 0) - (x < 0) for x in v} - {0}
    if witness.endswith(" has zero probability in every equilibrium"):
        obj = witness[: -len(" has zero probability in every equilibrium")]
        if obj not in g.labels or len(signs) != 1 or v[g.labels.index(obj)] != 0:
            return [f"false zero-probability witness: {witness!r}"]
        return []
    if witness.startswith("no equilibrium plays every object"):
        if len(signs) == 1:
            return [f"kernel {v} meets the simplex: {witness!r} is false"]
        return []
    return [f"unknown witness {witness!r}"]


def check_analysis(g: Game, rc: int, out: str) -> list[str]:
    """One `analyze` report against the game the benchmark wrote."""
    try:
        doc = json.loads(out)
        problems = _check_analysis_doc(g, rc, doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems = [f"malformed report: {exc!r}"]
    return problems


def _check_analysis_doc(g: Game, rc: int, doc: dict) -> list[str]:
    problems = []
    n = g.n
    inp = doc["input"]
    if inp["n"] != n or inp["labels"] != g.labels:
        return [f"input echoed as n={inp['n']} labels={inp['labels'][:5]}"]
    edges = {(i, j) for i in range(n) for j in range(n) if g.beats[i][j]}
    if {tuple(e) for e in inp["edges"]} != edges:
        problems.append("edges differ from the input")
    if doc["degree_profile"]["wins"] != g.wins():
        problems.append("wins differ from the input")
    play = doc["playability"]
    if play["is_strong"] != is_strong(g.beats):
        problems.append(f"is_strong {play['is_strong']}")
    playable = play["class"] in PLAYABLE_CLASSES
    if rc != (0 if playable else 2):
        problems.append(f"exit code {rc} for class {play['class']}")
    eq = doc["equilibrium"]
    v = None
    if playable:
        if n % 2 == 0:
            problems.append("an even game called playable")
        if eq is None:
            return problems + ["playable without an equilibrium"]
        v = [Fraction(x) for x in eq["exact"]]
        if sum(v) != 1 or any(x <= 0 for x in v):
            problems.append("equilibrium is not a positive probability vector")
        if not _applies_to_zero(g.beats, v):
            problems.append("A v != 0 for the reported equilibrium")
        if g.expected is not None and v != [g.expected[x] for x in g.labels]:
            problems.append(f"equilibrium differs from the {g.kind} closed form")
    else:
        if eq is not None:
            problems.append("unplayable game reports an equilibrium")
        problems += _check_unplayable(g, play["witness"])
    imb = doc["imbalance"]
    if Fraction(imb["ui_variance"]["exact"]) != ui_variance(g.wins()):
        problems.append(f"ui_variance {imb['ui_variance']['exact']}")
    if v is not None:
        if Fraction(imb["nash_ties"]["exact"]) != sum(x * x for x in v):
            problems.append("nash_ties is not the sum of squared probabilities")
        if [Fraction(x) for x in imb["sorted_equilibrium"]["exact"]] != sorted(v, reverse=True):
            problems.append("sorted_equilibrium is not the sorted equilibrium")
    limit = (n + 1) // 2 if n % 2 else n // 2
    kmin = doc["structural"]["k_minimizing"]
    if [e["k"] for e in kmin] != list(range(1, limit + 1)):
        problems.append("k_minimizing does not list k = 1 .. limit")
    return problems
