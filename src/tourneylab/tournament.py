"""Tournaments: construction, degree profiles, canonical enumeration, and the
structural playability conditions (prefix degree bounds, k-minimizing sets).

Convention used everywhere: ``beats(i, j)`` means object i defeats object j,
and e_in[i] counts the objects i defeats (a win is an incoming edge at the
winner). e_out[i] therefore counts i's losses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence


class EdgeListParseError(ValueError):
    """Edge-list text that does not describe a tournament; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Tournament:
    """An orientation of the complete graph on n vertices, with optional distinct labels."""

    __slots__ = ("n", "beats", "labels")

    def __init__(
        self,
        n: int,
        beats: Sequence[Sequence[bool]],
        labels: Sequence[str] | None = None,
    ):
        if n < 1:
            raise ValueError("tournament needs at least one vertex")
        rows = tuple(tuple(bool(x) for x in row) for row in beats)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("beats relation must be an n x n grid")
        for i in range(n):
            if rows[i][i]:
                raise ValueError(f"vertex {i} cannot beat itself")
            for j in range(i + 1, n):
                if rows[i][j] == rows[j][i]:
                    raise ValueError(f"pair ({i},{j}) must be oriented exactly one way")
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
        object.__setattr__(self, "beats", rows)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Tournament is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tournament)
            and self.beats == other.beats
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.beats, self.labels))

    def __repr__(self) -> str:
        return f"Tournament(n={self.n}, edges={self.edges()})"

    def edges(self) -> list[tuple[int, int]]:
        """All (winner, loser) pairs, sorted."""
        return [
            (i, j)
            for i in range(self.n)
            for j in range(self.n)
            if self.beats[i][j]
        ]

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no vertex labeled {label!r}") from None

    def relabel(self, labels: Sequence[str]) -> "Tournament":
        return Tournament(self.n, self.beats, labels)

    def wins(self, i: int) -> int:
        return sum(self.beats[i])


@dataclass(frozen=True)
class DegreeProfile:
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
    orientations, self-loops, and missing pairs are errors, found before the
    n x n grid is built, so that a large n alone costs no memory.
    """
    if n < 1:
        raise ValueError("tournament needs at least one vertex")
    given: set[tuple[int, int]] = set()
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        if (i, j) in given:
            raise ValueError(f"duplicate edge ({i},{j})")
        if (j, i) in given:
            raise ValueError(f"contradictory pair: both ({j},{i}) and ({i},{j}) given")
        given.add((i, j))
    if len(given) < n * (n - 1) // 2:
        # the first missing pair in row-major order, within len(given) + 1 pairs
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in given and (j, i) not in given:
                    raise ValueError(f"missing orientation for pair ({i},{j})")
    beats = [[False] * n for _ in range(n)]
    for i, j in given:
        beats[i][j] = True
    return Tournament(n, beats, labels)


def parse_edge_list(text: str) -> Tournament:
    """Parse the shared text format: first line n, then one "i j" per line.

    ``#`` starts a comment; ``# label <index> <name>`` comments attach labels;
    each index must lie in [0, n) and be labeled once, and labels must differ.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    label_comments: list[tuple[int, int, str]] = []  # (line, index, name)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 3 and parts[0] == "label":
                try:
                    label_comments.append((lineno, int(parts[1]), parts[2]))
                except ValueError:
                    raise EdgeListParseError("bad label comment", lineno) from None
            continue
        if not line:
            continue
        fields = line.split()
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
    if n is None:
        raise EdgeListParseError("empty input: no vertex count")
    labels: dict[int, str] = {}
    for lineno, i, name in label_comments:
        if not 0 <= i < n:
            raise EdgeListParseError(f"label index {i} out of range for n={n}", lineno)
        if i in labels:
            raise EdgeListParseError(f"label index {i} is already labeled {labels[i]!r}", lineno)
        labels[i] = name
    # fewer edges than pairs cannot make a tournament, so from_edge_list raises
    # before it reads labels: the n-long list is built only when it could be used
    label_seq = None
    if labels and len(edges) >= n * (n - 1) // 2:
        label_seq = [labels.get(i, str(i)) for i in range(n)]
    try:
        return from_edge_list(n, edges, label_seq)
    except ValueError as exc:
        raise EdgeListParseError(str(exc)) from exc


def format_edge_list(t: Tournament) -> str:
    """Serialize in the shared text format, with label comments when non-default."""
    lines = [str(t.n)]
    default = tuple(str(i) for i in range(t.n))
    if t.labels != default:
        for i, name in enumerate(t.labels):
            lines.append(f"# label {i} {name}")
    for i, j in t.edges():
        lines.append(f"{i} {j}")
    return "\n".join(lines) + "\n"


def degree_profile(t: Tournament) -> DegreeProfile:
    e_in = tuple(sum(row) for row in t.beats)
    e_out = tuple(t.n - 1 - w for w in e_in)
    e_min = tuple(min(a, b) for a, b in zip(e_in, e_out))
    return DegreeProfile(e_in, e_out, e_min)


def _reachable(n: int, adj: Sequence[Sequence[bool]], start: int) -> int:
    seen = [False] * n
    seen[start] = True
    stack = [start]
    count = 1
    while stack:
        u = stack.pop()
        row = adj[u]
        for v in range(n):
            if row[v] and not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count


def is_strong(t: Tournament) -> bool:
    """True iff the beats digraph is strongly connected."""
    if t.n == 1:
        return True
    if _reachable(t.n, t.beats, 0) != t.n:
        return False
    reverse = tuple(tuple(t.beats[j][i] for j in range(t.n)) for i in range(t.n))
    return _reachable(t.n, reverse, 0) == t.n


# ---------------------------------------------------------------------------
# canonical forms and enumeration
# ---------------------------------------------------------------------------

def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def canonical_form(t: Tournament) -> int:
    """Lexicographically minimal upper-triangle bit string over all relabelings."""
    return _canonical_search([sum(1 << u for u in range(t.n) if row[u]) for row in t.beats])[0]


def _canonical_search(win: list[int]) -> tuple[int, int]:
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
    beats = [[False] * n for _ in range(n)]
    for i, j, i_wins in _unpack(n, packed):
        beats[i][j], beats[j][i] = i_wins, not i_wins
    return Tournament(n, beats)


# n -> (sorted canonical forms, |Aut T| of each)
_ISO_CACHE: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {1: ((0,), (1,))}


def _iso_classes(n: int, _check=None) -> tuple[int, ...]:
    """Sorted canonical forms of all isomorphism classes, by vertex extension.

    Deleting a vertex with the fewest wins from an n-class leaves an (n-1)-class,
    so only extensions whose new vertex has the fewest wins are canonicalized.
    Each class's |Aut T| comes from the search of the first extension that
    reaches it (see _automorphism_counts). Cached once complete; `_check` is
    polled with each parent's progress, for a time budget. n = 9 serves the
    opt-in structural run; public enumeration stops at 8.
    """
    if n > 9:
        raise ValueError("isomorphism classes are built for n <= 9 only")
    cached = _ISO_CACHE.get(n)
    if cached is not None:
        return cached[0]
    m = n - 1
    parents = _iso_classes(m, _check)
    seen: dict[int, int] = {}
    for done, packed in enumerate(parents):
        if _check is not None:
            _check(f"class build at {n} objects: {done}/{len(parents)} parent classes")
        win = [0] * m
        for i, j, i_wins in _unpack(m, packed):
            win[i if i_wins else j] |= 1 << (j if i_wins else i)
        low = min(w.bit_count() for w in win)
        lows = sum(1 << u for u, w in enumerate(win) if w.bit_count() == low)
        # bit u of pattern: u beats the new vertex; the new vertex beats the rest
        for pattern in range(1 << m):
            new_wins = m - pattern.bit_count()
            if new_wins > low and (new_wins > low + 1 or lows & ~pattern):
                continue
            ext = [w | (pattern >> u & 1) << m for u, w in enumerate(win)]
            ext.append((1 << m) - 1 & ~pattern)
            form, aut = _canonical_search(ext)
            seen.setdefault(form, aut)
    out = tuple(sorted(seen))
    _ISO_CACHE[n] = out, tuple(seen[form] for form in out)
    return out


def _automorphism_counts(n: int, _check=None) -> tuple[int, ...]:
    """|Aut T| of each class of _iso_classes(n), in the same order."""
    _iso_classes(n, _check)
    return _ISO_CACHE[n][1]


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
    # (2m+1)-vertex games admit k <= m+1; even orders (used only by the
    # 4-object example) admit k <= n/2
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
    return _k_minimizing_checker(t)(k)


def _k_minimizing_checker(t: Tournament) -> Callable[[int], bool]:
    """k_minimizing_check(t, .) for valid k, with the beater masks built once."""
    n = t.n
    beaters = [sum(1 << o for o, won in enumerate(col) if won) for col in zip(*t.beats)]
    losses = [m.bit_count() for m in beaters]

    def check(k: int) -> bool:
        if k == n:
            return False  # no object lies outside M
        threshold = sorted(losses)[k - 1]
        forced = sum(1 << i for i, x in enumerate(losses) if x < threshold)
        pool = forced | sum(1 << i for i, x in enumerate(losses) if x == threshold)
        wide = [u for u in (m & pool for m in beaters) if u.bit_count() >= k]
        for b in range(n):
            r = forced | 1 << b | beaters[b]
            if r.bit_count() <= k and any(r & ~u == 0 for u in wide):
                return False
        return True

    return check


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
