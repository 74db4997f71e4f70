"""Exact rational linear algebra: parity classes, kernels, determinants, Pfaffians.

Rationals are stdlib ``fractions.Fraction`` throughout: always reduced, positive
denominator, exact arithmetic. Elimination is fraction-free (Bareiss) on a
denominator-cleared integer copy so intermediate growth stays polynomial.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction

Vector = tuple[Fraction, ...]


class ParityClass(Enum):
    """Parity of a reduced rational a/b: odd/odd, even/odd, or denominator even."""

    ODD = "odd"
    EVEN = "even"
    UNDEFINED = "undefined"


def parity(x: Fraction | int) -> ParityClass:
    """Classify a rational by the parity of its reduced numerator/denominator.

    0 is even (0/1). Any reduced denominator divisible by 2 has no parity.
    """
    x = Fraction(x)
    if x.denominator % 2 == 0:
        return ParityClass.UNDEFINED
    return ParityClass.ODD if x.numerator % 2 else ParityClass.EVEN


# Closed arithmetic on defined parities: sums/products of odd/even rationals
# keep odd denominators, so the result parity is always defined.
PARITY_ADD = {
    (ParityClass.ODD, ParityClass.ODD): ParityClass.EVEN,
    (ParityClass.ODD, ParityClass.EVEN): ParityClass.ODD,
    (ParityClass.EVEN, ParityClass.ODD): ParityClass.ODD,
    (ParityClass.EVEN, ParityClass.EVEN): ParityClass.EVEN,
}

PARITY_MUL = {
    (ParityClass.ODD, ParityClass.ODD): ParityClass.ODD,
    (ParityClass.ODD, ParityClass.EVEN): ParityClass.EVEN,
    (ParityClass.EVEN, ParityClass.ODD): ParityClass.EVEN,
    (ParityClass.EVEN, ParityClass.EVEN): ParityClass.EVEN,
}


class RationalMatrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[Fraction | int]]):
        rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if width == 0 or any(len(r) != width for r in rows):
            raise ValueError("rows must be nonempty and of equal length")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("RationalMatrix is immutable")

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_skew_symmetric(self) -> bool:
        """M = -M^T with zero diagonal."""
        if not self.is_square():
            return False
        e = self.entries
        return all(
            e[i][j] == -e[j][i] for i in range(self.rows) for j in range(i, self.cols)
        )

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(zip(*self.entries))

    def matvec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

def _integer_rows(M: RationalMatrix) -> tuple[list[list[int]], Fraction]:
    """Scale each row to integers; return the rows and the product of scales."""
    out: list[list[int]] = []
    scale = Fraction(1)
    for row in M.entries:
        mult = math.lcm(*(x.denominator for x in row)) if row else 1
        scale *= mult
        out.append([int(x * mult) for x in row])
    return out, scale


def _bareiss_echelon(a: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free row echelon form in place.

    Returns (matrix, pivot column list, sign of the row permutation). Pivot
    choice is the first nonzero entry in the column, so the result is
    deterministic.
    """
    n_rows = len(a)
    n_cols = len(a[0])
    piv_cols: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pr = next((i for i in range(r, n_rows) if a[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            sign = -sign
        pivot = a[r][c]
        for i in range(r + 1, n_rows):
            head = a[i][c]
            row_i = a[i]
            row_r = a[r]
            # the division is exact: each entry is a minor of the scaled input
            for j in range(c + 1, n_cols):
                row_i[j] = (pivot * row_i[j] - head * row_r[j]) // prev
            row_i[c] = 0
        piv_cols.append(c)
        prev = pivot
        r += 1
    return a, piv_cols, sign


def kernel_basis(M: RationalMatrix) -> list[Vector]:
    """Exact null-space basis via Bareiss elimination.

    One basis vector per free column, each normalized so its first nonzero
    entry is 1; the empty list means the kernel is trivial. Each is found by
    back-substitution with its free column 1 and the others 0.
    """
    a, _ = _integer_rows(M)
    a, piv_cols, _ = _bareiss_echelon(a)
    basis: list[Vector] = []
    for fc in (c for c in range(M.cols) if c not in piv_cols):
        v = [Fraction(c == fc) for c in range(M.cols)]
        for r, pc in reversed(list(enumerate(piv_cols))):
            s = sum((a[r][j] * v[j] for j in range(pc + 1, M.cols) if v[j]), Fraction(0))
            v[pc] = -s / a[r][pc]
        lead = next(x for x in v if x != 0)
        basis.append(tuple(x / lead for x in v))
    return basis


def rank(M: RationalMatrix) -> int:
    """Columns less kernel dimension (rank-nullity)."""
    return M.cols - len(kernel_basis(M))


def determinant(M: RationalMatrix) -> Fraction:
    """Exact determinant by Bareiss on the denominator-cleared matrix."""
    if not M.is_square():
        raise ValueError("determinant requires a square matrix")
    a, scale = _integer_rows(M)
    a, piv_cols, sign = _bareiss_echelon(a)
    if len(piv_cols) < M.rows:
        return Fraction(0)
    # after full-rank Bareiss the last pivot is det of the integer matrix
    return Fraction(sign * a[-1][piv_cols[-1]]) / scale


def solve_affine(
    M: RationalMatrix, b: Sequence[Fraction]
) -> tuple[Vector, list[Vector]] | None:
    """Solution set of M x = b as (particular, kernel basis); None if inconsistent.

    The kernel of [M | -b] has a vector for its last column exactly when b is
    in M's column space. Scaled to end in 1, it starts with the solution whose
    free entries are 0; the other basis vectors end in 0 and start with M's.
    """
    if len(b) != M.rows:
        raise ValueError("dimension mismatch")
    basis = kernel_basis(RationalMatrix([[*row, -v] for row, v in zip(M.entries, b)]))
    if not basis or basis[-1][-1] == 0:
        return None
    *null, last = basis
    return tuple(x / last[-1] for x in last[:-1]), [v[:-1] for v in null]


def _pfaffian_expand(e: Sequence[Sequence]) -> Fraction | int:
    """Pfaffian of the skew matrix with rows e, expanded along the first row and
    memoised on the remaining indices; exact for int or Fraction entries."""
    cache: dict[tuple[int, ...], Fraction | int] = {}

    def pf(idx: tuple[int, ...]) -> Fraction | int:
        if not idx:
            return 1
        got = cache.get(idx)
        if got is not None:
            return got
        first = idx[0]
        total = 0
        for p in range(1, len(idx)):
            coeff = e[first][idx[p]]
            if coeff:
                rest = idx[1:p] + idx[p + 1 :]
                term = coeff * pf(rest)
                total += term if p % 2 == 1 else -term
        cache[idx] = total
        return total

    return pf(tuple(range(len(e))))


def pfaffian(M: RationalMatrix) -> Fraction:
    """Exact Pfaffian by recursive expansion along the first row.

    Requires an even-dimensional skew-symmetric matrix; pfaffian(M)**2 equals
    determinant(M).
    """
    if not M.is_square():
        raise ValueError("pfaffian requires a square matrix")
    if M.rows % 2 != 0:
        raise ValueError("pfaffian requires even dimension")
    if not M.is_skew_symmetric():
        raise ValueError("pfaffian requires a skew-symmetric matrix")
    return Fraction(_pfaffian_expand(M.entries))
