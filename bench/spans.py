"""Spans around the calls into each layer of tourneylab, kept in memory.

`Tracer.install` wraps each function in LAYERS on every tourneylab module
that holds it (the defining module and every module that imported it), so
calls made through any of those names are recorded. A span is (name, start,
end, parent, op); a layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path
from time import perf_counter

LAYERS = {
    "tournament": [
        "canonical_form", "tournament_from_canonical", "k_minimizing_check",
        "is_strong", "parse_edge_list",
    ],
    "rational": ["kernel_basis", "determinant", "rank", "solve_affine", "pfaffian"],
    "equilibrium": [
        "payoff_matrix", "equilibrium_polytope", "classify_playability", "find_dominated",
    ],
    "imbalance": ["imbalance_report", "uniform_profile", "majorizes"],
    "verify": ["verify_theorem", "verify_even_unplayable", "compare_entropies"],
    "cli": ["main", "parse_win_rate_csv"],
}

# Every call of these runs one exact elimination of its own.
ELIMINATIONS = ("rational.kernel_basis", "rational.determinant", "rational.rank", "rational.solve_affine")
VERIFY_ENTRY = ("verify.verify_theorem", "verify.verify_even_unplayable")

# (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("tournament.canonical_form.calls", "count"),
    ("tournament.canonical_form.self_s", "s"),
    ("tournament.canon_calls_per_class", "calls/class"),
    ("tournament.tournament_from_canonical.self_s", "s"),
    ("tournament.k_minimizing_check.calls", "count"),
    ("tournament.k_minimizing_check.self_s", "s"),
    ("tournament.is_strong.self_s", "s"),
    ("tournament.parse_edge_list.self_s", "s"),
    ("cli.parse_win_rate_csv.self_s", "s"),
    ("rational.kernel_basis.calls", "count"),
    ("rational.kernel_basis.self_s", "s"),
    ("rational.determinant.calls", "count"),
    ("rational.determinant.self_s", "s"),
    ("rational.pfaffian.calls", "count"),
    ("rational.pfaffian.self_s", "s"),
    ("rational.eliminations_per_game", "elims/game"),
    ("equilibrium.payoff_matrix.calls", "count"),
    ("equilibrium.payoff_matrix.self_s", "s"),
    ("equilibrium.equilibrium_polytope.calls", "count"),
    ("equilibrium.classify_playability.self_s", "s"),
    ("equilibrium.find_dominated.self_s", "s"),
    ("imbalance.imbalance_report.self_s", "s"),
    ("imbalance.uniform_profile.self_s", "s"),
    ("imbalance.majorizes.calls", "count"),
    ("imbalance.majorizes.self_s", "s"),
    ("verify.compare_entropies.calls", "count"),
    ("verify.compare_entropies.self_s", "s"),
    ("verify.self_s", "s"),
    ("cli.main.self_s", "s"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.op = 0  # identifier shared by the spans of one operation
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        names, starts, ends, parents, ops, stack = (
            self.names, self.starts, self.ends, self.parents, self.ops, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "tourneylab" or k.startswith("tourneylab."))
        ]
        for short, funcs in LAYERS.items():
            home = sys.modules[f"tourneylab.{short}"]
            for f in funcs:
                original = getattr(home, f)
                wrapper = self._wrap(f"{short}.{f}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def totals(self) -> dict[str, list]:
        """Calls and self seconds per span name."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, list] = {}
        for i, name in enumerate(self.names):
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += self.ends[i] - self.starts[i] - child[i]
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{name}\t{self.starts[i]!r}\t{self.ends[i]!r}\t"
                    f"{self.parents[i]}\t{self.ops[i]}\n"
                )


def layer_metrics(totals: dict[str, list], games: int, classes: int) -> dict[str, float]:
    """The PER_LAYER values of one round. `games` is the number of games the
    round analysed, `classes` the isomorphism classes it enumerated (0 if it
    enumerated none, which makes calls per class 0)."""
    calls = lambda name: totals.get(name, [0, 0.0])[0]
    self_s = lambda name: totals.get(name, [0, 0.0])[1]
    out: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls(layer)
        elif stat == "self_s" and layer != "verify":
            out[metric] = self_s(layer)
    out["tournament.canon_calls_per_class"] = (
        calls("tournament.canonical_form") / classes if classes else 0.0
    )
    out["rational.eliminations_per_game"] = sum(calls(e) for e in ELIMINATIONS) / games
    out["verify.self_s"] = sum(self_s(e) for e in VERIFY_ENTRY)
    return out
