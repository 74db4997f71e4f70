"""Command-line front end: analyze, generate, blowup, verify.

Exit codes: 0 success/playable, 1 parse or usage error, 2 valid-but-unplayable
input, 3 verification budget exceeded. Rationals are serialized as "p/q"
strings with float companions in approx fields; reports carry "schema": 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cache, partial
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path
from typing import Callable

from .construct import (
    blow_up,
    classic_cycle,
    imbalanced_equilibrium_closed_form,
    imbalanced_rps,
)
from .equilibrium import Playability, classify_playability
from .imbalance import imbalance_report
from .tournament import (
    EdgeListParseError,
    Tournament,
    _k_minimizing_sweep,
    _members,
    degree_profile,
    format_edge_list,
    landau_bound_check,
    parse_edge_list,
)
from .verify import (
    BudgetExceededError,
    GuardBandError,
    _even_bounds,
    _structural_bounds,
    _theorem_bounds,
    _worker_count,
    verify_even_unplayable,
    verify_structural_lemmas,
    verify_theorem,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNPLAYABLE = 2
EXIT_BUDGET = 3
GENERATE_MAX_OBJECTS = 1001  # the largest game generate writes: about 4 MB of edge list


class CsvParseError(ValueError):
    pass


def _frac_field(x: Fraction) -> dict:
    return {"exact": str(x), "approx": float(x)}


def _vec_field(v) -> dict:
    return {"exact": [str(x) for x in v], "approx": [float(x) for x in v]}


_ascii = json.encoder.encode_basestring_ascii
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_text(x, pad: str = "\n") -> str:
    """Exactly `json.dumps(x, indent=2)` for string-keyed documents, without the
    pure-Python encoder json falls back to whenever an indent is set."""
    if isinstance(x, str):
        return _ascii(x)
    if x is None or x is True or x is False:
        return _JSON_CONSTANTS[x]
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float) and math.isfinite(x):
        return float.__repr__(x)
    inner = pad + "  "
    if isinstance(x, dict) and x:
        items = (f"{inner}{_ascii(k)}: {_json_text(v, inner)}" for k, v in x.items())
        return "{" + ",".join(items) + pad + "}"
    if not (isinstance(x, (list, tuple)) and x):
        return json.dumps(x)  # [], {}, NaN, +-Infinity, or json's own TypeError
    kinds = set(map(type, x))
    if kinds == {int}:
        items = map(str, x)
    elif kinds <= {list, tuple} and set(map(len, x)) == {2} and set(map(type, chain(*x))) == {int}:
        cell = f"{inner}  "  # one join per run of pairs that share a first entry
        items = (
            f"[{cell}{i},{cell}"
            + f"{inner}],{inner}[{cell}{i},{cell}".join(map(str, map(itemgetter(1), run)))
            + f"{inner}]"
            for i, run in groupby(x, itemgetter(0))
        )
    else:
        items = (_json_text(v, inner) for v in x)
    return f"[{inner}" + f",{inner}".join(items) + f"{pad}]"


_HALF = Decimal("0.5")
_LONE_UNDERSCORE = re.compile(r"(?<!\d)_|_(?!\d)")


def _rate_side(cell: str) -> int:
    """Where a win-rate cell lies: 1 above 1/2, -1 below, 0 at it, 2 outside
    [0, 1]. A cell is an exact decimal, read as Decimal, or p/q, read as a
    Fraction, with underscores only between digits. ValueError or
    ArithmeticError if it is no finite number (NaN, Infinity, or an exponent
    beyond Decimal's range)."""
    if "/" in cell:
        x = Fraction(cell)
    elif "_" in cell and _LONE_UNDERSCORE.search(cell):
        raise ValueError(cell)
    elif not (x := Decimal(cell)).is_finite():
        raise ValueError(cell)
    if not 0 <= x <= 1:
        return 2
    return (x > _HALF) - (x < _HALF)  # exact, a Fraction against a Decimal too


def parse_win_rate_csv(text: str) -> Tournament:
    """Square win-rate matrix with label header row/column; cell (i,j) is the
    empirical probability that i beats j. > 1/2 is a win, < 1/2 a loss, and an
    exact 1/2, a rate outside [0, 1] or contradictory symmetric cells is an
    error naming the pair."""
    rows = [r for r in csv.reader(io.StringIO(text)) if any(c.strip() for c in r)]
    if len(rows) < 2:
        raise CsvParseError("need a header row and at least one data row")
    labels = [c.strip() for c in rows[0][1:]]
    n = len(labels)
    if n < 1:
        raise CsvParseError("header row carries no labels")
    if len(rows) != n + 1:
        raise CsvParseError(f"expected {n} data rows, found {len(rows) - 1}")
    sides: list[list[int]] = []
    for i, row in enumerate(rows[1:]):
        if len(row) != n + 1:
            raise CsvParseError(f"row {i + 2}: expected {n + 1} cells, found {len(row)}")
        if row[0].strip() != labels[i]:
            raise CsvParseError(
                f"row {i + 2}: row label {row[0].strip()!r} does not match "
                f"header label {labels[i]!r}"
            )
        sides.append([])
        for j, cell in enumerate(row[1:]):
            try:
                sides[i].append(_rate_side(cell) if i != j else 0)
            except (ValueError, ArithmeticError):
                raise CsvParseError(
                    f"row {i + 2}: cell for ({labels[i]}, {labels[j]}) "
                    f"is not a number: {cell.strip()!r}"
                ) from None
    for i in range(n):
        for j in range(i + 1, n):
            a, b = sides[i][j], sides[j][i]
            if a * b == -1:
                continue
            pair = f"pair ({labels[i]}, {labels[j]})"
            if 2 in (a, b):
                raise CsvParseError(f"rate for {pair} is outside [0, 1]")
            if 0 in (a, b):
                raise CsvParseError(f"rate for {pair} is exactly 0.5; ties cannot be oriented")
            raise CsvParseError(f"contradictory rates for {pair}")
    win = [sum(1 << j for j, side in enumerate(row) if side == 1) for row in sides]
    try:
        return Tournament._from_masks(n, win, labels)
    except ValueError as exc:  # the masks are whole, so only the header can be at fault
        raise CsvParseError(f"header row: {exc}") from None


def build_analysis(t: Tournament, alpha: Fraction = Fraction(1, 2)) -> dict:
    """Full analysis document for one tournament (JSON-ready)."""
    profile = degree_profile(t)
    report = classify_playability(t)
    imb = imbalance_report(t, alpha, report) if t.n >= 2 else None
    kmin = [{"k": k, "ok": ok} for k, ok in enumerate(_k_minimizing_sweep(t), 1)]
    doc: dict = {
        "schema": 1,
        "input": {
            "n": t.n,
            "labels": list(t.labels),
            "edges": [[i, j] for i, w in enumerate(t.win) for j in _members(w)],
        },
        "degree_profile": {
            "wins": list(profile.e_in),
            "losses": list(profile.e_out),
            "e_min": list(profile.e_min),
        },
        "playability": {
            "class": report.playability.value,
            "is_strong": report.is_strong,
            "witness": report.witness_text(t.labels),
        },
        "equilibrium": _vec_field(report.equilibrium)
        if report.equilibrium is not None
        else None,
        "imbalance": None,
        "structural": {
            "landau_bounds_ok": landau_bound_check(t) if t.n % 2 else None,
            "k_minimizing": kmin,
        },
    }
    if imb is not None:
        doc["imbalance"] = {
            "ui_variance": _frac_field(imb.ui_v),
            "ui_entropy": imb.ui_e,
            "ui_theil": {"alpha": str(imb.theil_alpha), "value": imb.ui_theil},
            "nash_ties": _frac_field(imb.n_t) if imb.n_t is not None else None,
            "nash_entropy": imb.n_e,
            "sorted_wins": list(imb.sorted_e_in),
            "sorted_equilibrium": _vec_field(imb.sorted_equilibrium_probs)
            if imb.sorted_equilibrium_probs is not None
            else None,
        }
    return doc


def analysis_markdown(doc: dict) -> str:
    lines = [
        f"# Analysis of a {doc['input']['n']}-object game",
        "",
        f"- playability: **{doc['playability']['class']}**"
        f" ({doc['playability']['witness']})",
        f"- strongly connected: {doc['playability']['is_strong']}",
        f"- wins per object: {doc['degree_profile']['wins']}",
    ]
    if doc["equilibrium"] is not None:
        pairs = ", ".join(
            f"{lab}={x}"
            for lab, x in zip(doc["input"]["labels"], doc["equilibrium"]["exact"])
        )
        lines.append(f"- equilibrium: {pairs}")
    imb = doc.get("imbalance")
    if imb is not None:
        lines += [
            "",
            "| statistic | value |",
            "|---|---|",
            f"| payoff variance | {imb['ui_variance']['exact']} |",
            f"| score entropy | {imb['ui_entropy']:.12f} |",
            f"| Theil (alpha={imb['ui_theil']['alpha']}) | {imb['ui_theil']['value']:.12f} |",
            f"| expected ties | {imb['nash_ties']['exact'] if imb['nash_ties'] else '-'} |",
            f"| equilibrium entropy | "
            + (f"{imb['nash_entropy']:.12f}" if imb["nash_entropy"] is not None else "-")
            + " |",
        ]
    st = doc["structural"]
    lines += [
        "",
        f"- degree prefix bounds: {st['landau_bounds_ok']}",
        "- k-minimizing condition: "
        + ", ".join(f"k={e['k']}: {e['ok']}" for e in st["k_minimizing"]),
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _read_text(path: Path) -> str:
    """The file's UTF-8 text; an unreadable or undecodable file raises OSError."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise OSError(f"cannot read {path}: {exc}") from None


def _cmd_analyze(args) -> int:
    path = Path(args.input)
    fmt = args.format
    if fmt == "auto":
        fmt = "csv" if path.suffix.lower() == ".csv" else "edges"
    try:
        text = _read_text(path)
        t = parse_win_rate_csv(text) if fmt == "csv" else parse_edge_list(text)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    doc = build_analysis(t)
    if args.md:
        sys.stdout.write(analysis_markdown(doc))
    else:
        sys.stdout.write(_json_text(doc) + "\n")
    playable = doc["playability"]["class"] == Playability.STRONGLY_PLAYABLE.value
    return EXIT_OK if playable else EXIT_UNPLAYABLE


def _cmd_generate(args) -> int:
    objects = 2 * args.n + 1 if args.kind == "imbalanced" else args.n
    try:
        if objects > GENERATE_MAX_OBJECTS:
            raise ValueError(f"generate is bounded at {GENERATE_MAX_OBJECTS} objects, got {objects}")
        if args.kind == "imbalanced":
            t = imbalanced_rps(args.n)
            equilibrium = imbalanced_equilibrium_closed_form(args.n)
        else:
            t = classic_cycle(args.n)
            equilibrium = tuple(Fraction(1, t.n) for _ in range(t.n))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.json:
        doc = {
            "schema": 1,
            "kind": args.kind,
            "n": args.n,
            "labels": list(t.labels),
            "edges": [list(e) for e in t.edges()],
            "equilibrium": _vec_field(equilibrium),
        }
        sys.stdout.write(_json_text(doc) + "\n")
        return EXIT_OK
    sys.stdout.write(format_edge_list(t))
    for label, prob in zip(t.labels, equilibrium):
        sys.stdout.write(f"# equilibrium {label} {prob}\n")
    return EXIT_OK


def _cmd_blowup(args) -> int:
    try:
        g1 = parse_edge_list(_read_text(Path(args.outer)))
        g2 = parse_edge_list(_read_text(Path(args.inner)))
    except (OSError, EdgeListParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    glue: int | str = args.vertex
    if glue.isdigit() and glue not in g1.labels:
        glue = int(glue)
    try:
        blown = blow_up(g1, glue, g2)
    except (KeyError, ValueError) as exc:
        # the message itself: str() of a KeyError would wrap it in quotes
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(format_edge_list(blown))
    return EXIT_OK


def _cmd_verify(args) -> int:
    # size bounds and the output directory are checked before the first suite runs
    out_dir = Path(args.out_dir)
    suites: list[tuple[str, Callable[[], object]]] = []
    opts = {"jobs": args.jobs, "budget_secs": args.budget}
    try:
        if args.suite in ("theorem", "all"):
            _theorem_bounds(args.n)
            suites.append((f"theorem_n{args.n}", partial(verify_theorem, args.n, **opts)))
        if args.suite in ("even", "all"):
            _even_bounds(args.max_n)
            suites.append(
                (f"even_maxn{args.max_n}", partial(verify_even_unplayable, args.max_n, **opts))
            )
        if args.suite in ("structural", "all"):
            odd = range(3, 2 * args.n + 2, 2)
            for m in [args.objects] if args.suite == "structural" else odd:
                _structural_bounds(m)
                suites.append((f"structural_n{m}", partial(verify_structural_lemmas, m, **opts)))
        nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
        if not nearest.is_dir():
            raise NotADirectoryError(f"--out-dir: {nearest} is not a directory")
        runs = [(name, run()) for name, run in suites]
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, report in runs:
            (out_dir / f"{name}.json").write_text(
                _json_text(report.to_json_dict()) + "\n", encoding="utf-8"
            )
            (out_dir / f"{name}.md").write_text(report.to_markdown(), encoding="utf-8")
            print(f"{name}: {'PASS' if report.ok else 'FAIL'}")
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (OSError, ValueError, GuardBandError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK if all(report.ok for _, report in runs) else EXIT_ERROR


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # "valid but unplayable input" here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _jobs_arg(text: str) -> int:
    """--jobs: an integer >= 1, capped at the machine's CPU count."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    try:
        return _worker_count(jobs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# each command's help line, its function, and its parser's add_argument calls
_COMMANDS = {
    "analyze": ("analyze an edge list or win-rate CSV", _cmd_analyze, [
        ("input", dict(help="path to the input file")),
        ("--format", dict(choices=("auto", "edges", "csv"), default="auto",
                          help="input format (default: by file extension)")),
        ("--md", dict(action="store_true", help="emit Markdown instead of JSON")),
    ]),
    "generate": ("emit a construction as an edge list", _cmd_generate, [
        ("kind", dict(choices=("imbalanced", "classic-cycle"))),
        ("--n", dict(type=int, required=True, help="half-count for imbalanced "
                     "(2n+1 objects), object count for classic-cycle")),
        ("--json", dict(action="store_true", help="emit JSON instead of text")),
    ]),
    "blowup": ("replace a vertex of one game by another game", _cmd_blowup, [
        ("outer", dict(help="edge-list file of the outer game")),
        ("vertex", dict(help="label (or index) of the vertex to replace")),
        ("inner", dict(help="edge-list file of the inner game")),
    ]),
    "verify": ("run the exhaustive verification suites", _cmd_verify, [
        ("suite", dict(choices=("theorem", "even", "structural", "all"))),
        ("--n", dict(type=int, default=2, help="half-count for the theorem suite")),
        ("--objects", dict(type=int, default=5, help="object count for the structural suite")),
        ("--max-n", dict(type=int, default=6, help="cap for the even suite")),
        ("--jobs", dict(type=_jobs_arg, default=1,
                        help="worker processes (at most the CPU count)")),
        ("--budget", dict(type=float, default=None, help="time budget in seconds "
                          "(default: the TOURNEYLAB_BUDGET_SECS env var)")),
        ("--out-dir", dict(default="reports", help="report directory")),
    ]),
}


def _command_parser(command: str) -> argparse.ArgumentParser:
    """A new parser for `command` alone, as `build_parser` gives it."""
    _, func, arguments = _COMMANDS[command]
    parser = _Parser(prog=f"tourneylab {command}")
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tourneylab",
        description="Exact analysis of rock-paper-scissors games on tournaments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, parents=[_command_parser(name)], add_help=False)
    return parser


@cache
def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """`build_parser()`, or the parser of `command` alone, built once per
    process: building a parser costs far more than parsing with it."""
    return _command_parser(command) if command else build_parser()


def main(argv=None) -> int:
    """Run one command, building only its parser. The full parser parses what
    it would answer otherwise (no or an unknown command, top-level options,
    arguments the command leaves over), so usage, messages and exit codes stay
    the full parser's."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        args, rest = _parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args.func(args)
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
