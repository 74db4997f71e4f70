"""Tournaments: construction, degree profiles, canonical enumeration, and the
structural playability conditions (prefix degree bounds, k-minimizing sets).

Convention used everywhere: ``beats(i, j)`` means object i defeats object j,
and e_in[i] counts the objects i defeats (a win is an incoming edge at the
winner). e_out[i] therefore counts i's losses. A tournament is stored as one
win bitmask per object: bit j of ``win[i]`` is set iff i beats j.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import defaultdict
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


class EdgeListParseError(ValueError):
    """Edge-list text that does not describe a tournament; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Tournament:
    """An orientation of the complete graph on n vertices, with optional distinct
    labels. The win masks are the only stored relation; ``beats`` is the n x n
    grid derived from them."""

    __slots__ = ("n", "win", "labels", "_grid")

    def __init__(
        self,
        n: int,
        beats: Sequence[Sequence[bool]],
        labels: Sequence[str] | None = None,
    ):
        if n < 1:
            raise ValueError("tournament needs at least one vertex")
        rows = [tuple(row) for row in beats]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("beats relation must be an n x n grid")
        win = [sum(1 << j for j, x in enumerate(row) if x) for row in rows]
        for i, w in enumerate(win):
            if w >> i & 1:
                raise ValueError(f"vertex {i} cannot beat itself")
            for j in range(i + 1, n):
                if not (w >> j ^ win[j] >> i) & 1:
                    raise ValueError(f"pair ({i},{j}) must be oriented exactly one way")
        self._fill(n, win, labels)

    @classmethod
    def _from_masks(
        cls, n: int, win: Sequence[int], labels: Sequence[str] | None = None
    ) -> "Tournament":
        """The tournament with these win masks, which must already be valid."""
        t = object.__new__(cls)
        t._fill(n, win, labels)
        return t

    def _fill(self, n: int, win: Sequence[int], labels: Sequence[str] | None) -> None:
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValueError("need one label per vertex")
            if len(set(labels)) != n:
                repeated = next(x for i, x in enumerate(labels) if x in labels[:i])
                raise ValueError(f"label {repeated!r} names more than one object")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "win", tuple(win))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_grid", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Tournament is immutable")

    @property
    def beats(self) -> tuple[tuple[bool, ...], ...]:
        """beats[i][j] iff i beats j, built from the masks on first use."""
        if self._grid is None:
            grid = tuple(tuple(w >> j & 1 == 1 for j in range(self.n)) for w in self.win)
            object.__setattr__(self, "_grid", grid)
        return self._grid

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tournament)
            and self.win == other.win
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.win, self.labels))

    def __repr__(self) -> str:
        return f"Tournament(n={self.n}, edges={self.edges()})"

    def edges(self) -> list[tuple[int, int]]:
        """All (winner, loser) pairs, sorted."""
        return [(i, j) for i, w in enumerate(self.win) for j in _members(w)]

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no vertex labeled {label!r}") from None

    def relabel(self, labels: Sequence[str]) -> "Tournament":
        return Tournament._from_masks(self.n, self.win, labels)

    def wins(self, i: int) -> int:
        return self.win[i].bit_count()


def _members(mask: int) -> list[int]:
    """The indices of the set bits of mask, ascending."""
    return [j for j, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _loss_masks(t: Tournament) -> list[int]:
    """One mask per object: bit j of the i-th is set iff j beats i."""
    full = (1 << t.n) - 1
    return [full ^ w ^ 1 << i for i, w in enumerate(t.win)]


class DegreeProfile(NamedTuple):
    """Per-vertex win/loss counts; e_min[i] = min(e_in[i], e_out[i])."""

    e_in: tuple[int, ...]
    e_out: tuple[int, ...]
    e_min: tuple[int, ...]


def from_edge_list(
    n: int,
    edges: Iterable[tuple[int, int]],
    labels: Sequence[str] | None = None,
) -> Tournament:
    """Build a validated tournament from (winner, loser) pairs.

    Every unordered pair must appear exactly once; duplicates, contradictory
    orientations, self-loops, and missing pairs are errors.
    """
    if n < 1:
        raise ValueError("tournament needs at least one vertex")
    return Tournament._from_masks(n, _win_masks(n, list(edges)), labels)


def _win_masks(n: int, edges: list[tuple[int, int]], lines: list[int] | None = None) -> list[int]:
    """Win masks from (winner, loser) edges that must give each pair once.

    A duplicate is a bit already set and a contradiction the reverse bit. Too
    few edges means a missing pair, so then the masks go in a dict, not an
    n-long list: a large n alone costs no memory. An error raises ValueError,
    or EdgeListParseError naming lines[k] for the k-th edge when lines is given.
    """
    pairs = n * (n - 1) // 2
    win = [0] * n if len(edges) >= pairs else defaultdict(int)
    for k, (i, j) in enumerate(edges):
        if not (0 <= i < n and 0 <= j < n):
            message = f"edge ({i},{j}) out of range for n={n}"
        elif i == j:
            message = f"self-loop at vertex {i}"
        elif win[i] >> j & 1:
            message = f"duplicate edge ({i},{j})"
        elif win[j] >> i & 1:
            message = f"contradictory pair: both ({j},{i}) and ({i},{j}) given"
        else:
            win[i] |= 1 << j
            continue
        raise ValueError(message) if lines is None else EdgeListParseError(message, lines[k])
    if len(edges) < pairs:
        # the first missing pair in row-major order, within len(edges) + 1 pairs
        unordered = ((i, j) for i in range(n) for j in range(i + 1, n))
        i, j = next((i, j) for i, j in unordered if not (win[i] >> j | win[j] >> i) & 1)
        message = f"missing orientation for pair ({i},{j})"
        raise ValueError(message) if lines is None else EdgeListParseError(message)
    return win


def parse_edge_list(text: str) -> Tournament:
    """Parse the shared text format: first line n, then one "i j" per line.

    Blank lines are skipped, and so is a comment: a line whose first word
    starts with ``#``. A ``#`` after a line's first word starts no comment, so
    ``0 1 # x`` is a malformed edge. ``# label <index> <name>`` comments attach
    labels; each index must lie in [0, n) and be labeled once, and labels must
    differ. An edge error names the edge's line.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    label_comments: list[tuple[int, int, str]] = []  # (line, index, name)
    for lineno, fields in enumerate(map(str.split, text.splitlines()), start=1):
        if not fields:
            continue
        if fields[0][0] == "#":
            parts = " ".join(fields)[1:].split()
            if parts[:1] == ["label"]:
                try:
                    _, index, name = parts
                    label_comments.append((lineno, int(index), name))
                except ValueError:
                    raise EdgeListParseError("bad label comment", lineno) from None
            continue
        if n is None:
            if len(fields) != 1:
                raise EdgeListParseError("expected vertex count on first data line", lineno)
            try:
                n = int(fields[0])
            except ValueError:
                raise EdgeListParseError("vertex count is not an integer", lineno) from None
            if n < 1:
                raise EdgeListParseError("vertex count must be positive", lineno)
            continue
        if len(fields) != 2:
            raise EdgeListParseError("expected 'winner loser' pair", lineno)
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise EdgeListParseError("edge endpoints must be integers", lineno) from None
        edge_lines.append(lineno)
    if n is None:
        raise EdgeListParseError("empty input: no vertex count")
    labels: dict[int, str] = {}
    for lineno, i, name in label_comments:
        if not 0 <= i < n:
            raise EdgeListParseError(f"label index {i} out of range for n={n}", lineno)
        if i in labels:
            raise EdgeListParseError(f"label index {i} is already labeled {labels[i]!r}", lineno)
        labels[i] = name
    # fewer edges than pairs cannot make a tournament, so _win_masks raises
    # first: the n-long label list is built only when it could be used
    win = _win_masks(n, edges, edge_lines)
    label_seq = [labels.get(i, str(i)) for i in range(n)] if labels else None
    try:
        return Tournament._from_masks(n, win, label_seq)
    except ValueError as exc:
        raise EdgeListParseError(str(exc)) from exc


def format_edge_list(t: Tournament) -> str:
    """Serialize in the shared text format, with label comments when non-default;
    a label that is empty or holds whitespace cannot be written (ValueError)."""
    lines = [str(t.n)]
    default = tuple(str(i) for i in range(t.n))
    if t.labels != default:
        for i, name in enumerate(t.labels):
            if name.split() != [name]:
                raise ValueError(f"label {name!r} is empty or contains whitespace")
            lines.append(f"# label {i} {name}")
    for i, j in t.edges():
        lines.append(f"{i} {j}")
    return "\n".join(lines) + "\n"


def degree_profile(t: Tournament) -> DegreeProfile:
    e_in = tuple(map(int.bit_count, t.win))
    e_out = tuple(t.n - 1 - w for w in e_in)
    e_min = tuple(min(a, b) for a, b in zip(e_in, e_out))
    return DegreeProfile(e_in, e_out, e_min)


def _reach(adj: Sequence[int], seen: int) -> int:
    """The mask of the vertices reachable from the mask seen along adj."""
    frontier = seen
    while frontier:
        step = 0
        for v in _members(frontier):
            step |= adj[v]
        frontier = step & ~seen
        seen |= frontier
    return seen


def is_strong(t: Tournament) -> bool:
    """True iff the beats digraph is strongly connected: vertex 0 reaches every
    vertex along wins, and along losses."""
    full = (1 << t.n) - 1
    return _reach(t.win, 1) == full and _reach(_loss_masks(t), 1) == full


# ---------------------------------------------------------------------------
# canonical forms and enumeration
# ---------------------------------------------------------------------------

def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def canonical_form(t: Tournament) -> int:
    """Lexicographically minimal upper-triangle bit string over all relabelings."""
    return _canonical_search(t.win)[0]


def _canonical_search(win: Sequence[int]) -> tuple[int, int]:
    """(canonical_form, |Aut T|) of the tournament where bit u of win[v] is set
    iff v beats u.

    Exact branch-and-bound over ordered cells (the ordered-partition
    refinement of McKay & Piperno 2014, cut down to this lexmin value). After
    positions 0..k-1 are placed, the remaining vertices form an ordered list of
    cells, each uniform against every placed vertex; the cell order is what
    made rows 0..k-1 minimal, so position k must come from the first cell.
    Candidate v's row k is then, cell by cell, zeros for the members that beat
    v and ones for those it beats. Only the candidates with the smallest row
    survive; each splits every cell into (beats v, beaten by v) and recurses.
    The search branches only on ties, and drops a branch whose prefix,
    shifted past the bits still to come, already exceeds the best leaf.
    Every labeling that attains the minimum reaches a leaf of its own, and
    they are the images of any one of them under Aut T, so the leaves equal to
    the minimum number |Aut T|.
    """
    n = len(win)
    best = -1
    aut = 0

    def search(cells: list[int], prefix: int, r: int) -> None:
        # cells partition the r unplaced vertices; prefix packs rows 0..n-r-1
        nonlocal best, aut
        if r == 1:
            if best < 0 or prefix < best:
                best, aut = prefix, 1
            elif prefix == best:
                aut += 1
            return
        first, rest = cells[0], cells[1:]
        low_row = -1
        ties: list[int] = []
        pending = first
        while pending:
            bit = pending & -pending
            pending ^= bit
            v = bit.bit_length() - 1
            w = win[v]
            row = 0
            for c in (first ^ bit, *rest):
                row = (row << c.bit_count()) | ((1 << (c & w).bit_count()) - 1)
            if low_row < 0 or row < low_row:
                low_row, ties = row, [v]
            elif row == low_row:
                ties.append(v)
        r -= 1
        prefix = (prefix << r) | low_row
        if best >= 0 and prefix << (r * (r - 1) // 2) > best:
            return
        for v in ties:
            w = win[v]
            split = []
            for c in (first ^ (1 << v), *rest):
                lose, beat = c & ~w, c & w
                if lose:
                    split.append(lose)
                if beat:
                    split.append(beat)
            search(split, prefix, r)

    search([(1 << n) - 1], 0, n)
    return best, aut


def _unpack(n: int, packed: int) -> list[tuple[int, int, bool]]:
    """(i, j, whether i beats j) for each pair i < j: the row-major upper
    triangle, row 0 most significant, as canonical_form packs it."""
    ps = _pairs(n)
    return [(i, j, (packed >> (len(ps) - 1 - b)) & 1 == 1) for b, (i, j) in enumerate(ps)]


def tournament_from_canonical(n: int, packed: int) -> Tournament:
    """Inverse of the packing used by canonical_form (not re-canonicalized)."""
    win = [0] * n
    for i, j, i_wins in _unpack(n, packed):
        win[i if i_wins else j] |= 1 << (j if i_wins else i)
    return Tournament._from_masks(n, win)


# n -> (sorted canonical forms, |Aut T| of each)
_ISO_CACHE: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {1: ((0,), (1,))}


def _extended_classes(
    parents: Sequence[int], size: int, extensions: Callable
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sorted canonical forms, |Aut T| of each) of the games that `extensions`
    makes from the win masks of each parent form of `size` objects, |Aut T|
    from the search of the first extension that reaches each form."""
    seen: dict[int, int] = {}
    for packed in parents:
        for ext in extensions(tournament_from_canonical(size, packed).win):
            seen.setdefault(*_canonical_search(ext))
    out = tuple(sorted(seen))
    return out, tuple(seen[form] for form in out)


def _min_wins_extensions(win: tuple[int, ...]) -> Iterator[list[int]]:
    """The extensions of a game by a new vertex with the fewest wins and, among
    the vertices with as few, the largest sum of its victims' wins. Deleting
    such a vertex of an n-class T, extremal by these invariants, leaves an
    (n-1)-class, whose form extends back to T: they reach every n-class."""
    m = len(win)
    low = min(w.bit_count() for w in win)
    lows = sum(1 << u for u, w in enumerate(win) if w.bit_count() == low)
    # bit u of pattern: u beats the new vertex; the new vertex beats the rest
    for pattern in range(1 << m):
        new_wins = m - pattern.bit_count()
        if new_wins <= low or new_wins == low + 1 and not lows & ~pattern:
            ext = [w | (pattern >> u & 1) << m for u, w in enumerate(win)]
            ext.append((1 << m) - 1 & ~pattern)
            wins = [w.bit_count() for w in ext]
            mass = [sum(wins[u] for u in _members(w)) for w, k in zip(ext, wins) if k == new_wins]
            if mass[-1] == max(mass):
                yield ext


def _iso_classes(n: int) -> tuple[int, ...]:
    """Sorted canonical forms of all isomorphism classes, by min-wins vertex
    extension of the (n-1)-classes; cached once complete. n = 9 is allowed as
    the parents of an 11-object playable stream; public enumeration stops at 8."""
    if n > 9:
        raise ValueError("isomorphism classes are built for n <= 9 only")
    if n not in _ISO_CACHE:
        _ISO_CACHE[n] = _extended_classes(_iso_classes(n - 1), n - 1, _min_wins_extensions)
    return _ISO_CACHE[n][0]


def _automorphism_counts(n: int) -> tuple[int, ...]:
    """|Aut T| of each class of _iso_classes(n), in the same order."""
    _iso_classes(n)
    return _ISO_CACHE[n][1]


# The shipped class lists: all_n{2,4,6,8}.bin and playable_n{3,5,7,9}.bin,
# written by _class_list_bytes from _iso_classes and _playable_classes.
CLASS_DIR = os.path.join(os.path.dirname(__file__), "classes")


def _class_list_bytes(forms: Sequence[int], auts: Sequence[int]) -> bytes:
    """A class list file: the count, the sorted forms as deltas (the first from
    0), then the count and the (index, |Aut T|) pairs of the classes with
    |Aut T| != 1; every number an unsigned LEB128 varint."""
    sparse = [(k, a) for k, a in enumerate(auts) if a != 1]
    deltas = (b - a for a, b in zip((0, *forms), forms))
    out = bytearray()
    for v in (len(forms), *deltas, len(sparse), *itertools.chain(*sparse)):
        while v > 127:
            out.append(v & 127 | 128)
            v >>= 7
        out.append(v)
    return bytes(out)


def _read_class_list(path: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(forms, |Aut T| of each) from a file that _class_list_bytes wrote.
    Raises ValueError unless the file parses with no byte missing or left over
    and its forms strictly increase."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise ValueError(f"cannot be read: {exc.strerror}") from None
    numbers, v, shift = [], 0, 0
    for b in data:
        v |= (b & 127) << shift
        if b & 128:
            shift += 7
        else:
            numbers.append(v)
            v = shift = 0
    count = numbers[0] if numbers else 0
    end = count + 2 + 2 * numbers[count + 1] if len(numbers) > count + 1 else None
    if shift or end is None or len(numbers) < end:
        raise ValueError("truncated: bytes are missing at the end")
    if len(numbers) > end:
        raise ValueError("trailing bytes after the last entry")
    deltas = numbers[1 : count + 1]
    if 0 in deltas[1:]:
        raise ValueError(f"forms not strictly increasing at entry {deltas.index(0, 1)}")
    auts = [1] * count
    last = -1
    for k, a in zip(numbers[count + 2 :: 2], numbers[count + 3 :: 2]):
        if not last < k < count or a < 2:
            raise ValueError(f"bad |Aut T| entry ({k}, {a})")
        auts[k], last = a, k
    return tuple(itertools.accumulate(deltas)), tuple(auts)


def _listed_class(n: int, packed: int, aut: int) -> Tournament:
    """The game of one class-list entry, after `_canonical_search` gives back
    its form and its stored |Aut T|; raises ValueError otherwise."""
    t = tournament_from_canonical(n, packed)
    form, found = _canonical_search(t.win)
    if form != packed:
        raise ValueError(f"entry {packed} is not a canonical form (its class is {form})")
    if found != aut:
        raise ValueError(f"class {packed} has |Aut T| = {found}, not the stored {aut}")
    return t


def _class_count(n: int) -> int:
    """Number of isomorphism classes of n-object tournaments, by Davis's
    Burnside sum (R. L. Davis 1954; OEIS A000568), with no enumeration.

    A relabeling fixes some tournament iff all its cycles are odd, and then it
    fixes 2^e of them, e being its orbits on pairs: (k-1)/2 within each
    k-cycle and gcd(a, b) between an a- and a b-cycle. Cycle type lambda has
    n!/z(lambda) relabelings, z = prod over part sizes k of k^m m!.
    """

    def odd_partitions(rest: int, largest: int) -> Iterator[list[int]]:
        if rest == 0:
            yield []
        for k in range(min(rest, largest), 0, -1):
            if k % 2:
                for tail in odd_partitions(rest - k, k):
                    yield [k, *tail]

    total = 0
    for parts in odd_partitions(n, n):
        e = sum((k - 1) // 2 for k in parts)
        e += sum(math.gcd(a, b) for a, b in itertools.combinations(parts, 2))
        z = math.prod(k ** parts.count(k) * math.factorial(parts.count(k)) for k in set(parts))
        total += (math.factorial(n) // z) << e
    return total // math.factorial(n)


def _strong_count(n: int) -> int:
    """Number of strong n-object classes, from Davis's counts t_k. A tournament
    is a transitive chain of its strong components, so t_n is the sum over k of
    s_k t_(n-k), with t_0 = 1 (Moon, Topics on Tournaments, 1968; OEIS A051337)."""
    t = [_class_count(k) for k in range(n + 1)]
    s = [0]
    for m in range(1, n + 1):
        s.append(t[m] - sum(s[k] * t[m - k] for k in range(1, m)))
    return s[n]


def _orbit_masks(n: int, packed: int) -> list[int]:
    """Sorted packed masks of every labeled game isomorphic to class `packed`:
    n!/|Aut T| of them, found by applying all n! relabelings."""
    ps = _pairs(n)
    bit = {p: 1 << (len(ps) - 1 - b) for b, p in enumerate(ps)}
    edges = [(i, j) if i_wins else (j, i) for i, j, i_wins in _unpack(n, packed)]
    return sorted({
        sum(bit[perm[w], perm[l]] for w, l in edges if perm[w] < perm[l])
        for perm in itertools.permutations(range(n))
    })


def enumerate_tournaments(n: int, up_to_iso: bool = False) -> Iterator[Tournament]:
    """All labeled n-tournaments, or one canonical representative per class.

    Deterministic: labeled order follows the packed bit masks ascending, and
    canonical representatives are yielded in ascending canonical form.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if up_to_iso:
        if n > 8:
            raise ValueError("isomorphism-free enumeration is limited to n <= 8")
        for packed in _iso_classes(n):
            yield tournament_from_canonical(n, packed)
        return
    total = n * (n - 1) // 2
    for mask in range(1 << total):
        yield tournament_from_canonical(n, mask)


# ---------------------------------------------------------------------------
# structural playability conditions
# ---------------------------------------------------------------------------

def _k_limit(n: int) -> int:
    # (2m+1)-vertex games admit k <= m+1; even orders, which analyze checks
    # too, admit k <= n/2
    return (n + 1) // 2 if n % 2 == 1 else n // 2


def k_minimizing_check(t: Tournament, k: int) -> bool:
    """Necessary condition for playability on the k objects with fewest losses.

    Passes iff every tie-break choice of the k-minimizing set M satisfies:
    each member of M is beaten by some object outside M, or the objects
    beating members of M are exactly the complement of M, which must be
    nonempty (so the 1-object game fails).

    A choice M fails iff a member b has all its beaters in M and some outsider
    o loses to every member. With F the forced members and T the tied ones, any
    M of size k between R = F | {b} | beaters(b) and U = beaters(o) & (F | T)
    is such a choice, so a pair (b, o) with R <= U and |R| <= k <= |U| decides
    it: O(n^3) instead of a walk over every tie-break.
    """
    if not 1 <= k <= _k_limit(t.n):
        raise ValueError(f"k={k} out of range for n={t.n}")
    return _k_minimizing_sweep(t)[k - 1]


def _k_minimizing_sweep(t: Tournament) -> list[bool]:
    """k_minimizing_check(t, k) for k = 1 .. _k_limit(t.n), in one pass per
    loss threshold. The k that share a threshold share F and T, so a member b
    fails exactly the k from |R| to the largest |U| among the U that hold R."""
    beaters = _loss_masks(t)
    order = sorted(range(t.n), key=lambda i: beaters[i].bit_count())
    ranked = [beaters[i].bit_count() for i in order]
    prefix = list(itertools.accumulate((1 << i for i in order), initial=0))  # sums are unions
    ok = [t.n > 1] * _k_limit(t.n)  # one object: nothing lies outside M
    k = 1
    while k <= len(ok):
        tied = k - 1 + ranked.count(ranked[k - 1])  # k opens the group: |F| = k - 1
        forced, pool, last = prefix[k - 1], prefix[tied], min(tied, len(ok))
        # R lies in some U <= F | T only if b and its beaters are in F | T
        rs = [r for b in order[:tied] if not (r := forced | 1 << b | beaters[b]) & ~pool]
        if rs:
            wide = sorted(((u.bit_count(), u) for u in (m & pool for m in beaters)), reverse=True)
        for r in rs:
            low = max(r.bit_count(), k)  # the first U that holds R is the largest
            high = min(next((c for c, u in wide if c < low or not r & ~u), 0), last)
            if low <= high:
                ok[low - 1 : high] = [False] * (high - low + 1)
        k = last + 1
    return ok


def landau_bound_check(t: Tournament) -> bool:
    """Prefix bounds on sorted wins and losses that every playable game meets.

    For n = 2m+1: the k smallest losses (and wins) must sum to at least
    k(k+1)/2 for k <= m, and the (m+1)-prefix to at least m(m+1)/2 + m.
    """
    n = t.n
    if n % 2 == 0:
        raise ValueError("defined for odd vertex counts only")
    m = (n - 1) // 2
    profile = degree_profile(t)
    for seq in (sorted(profile.e_out), sorted(profile.e_in)):
        for k in range(1, m + 1):
            if sum(seq[:k]) < k * (k + 1) // 2:
                return False
        if m >= 1 and sum(seq[: m + 1]) < m * (m + 1) // 2 + m:
            return False
    return True
