"""Exact linear algebra against independent oracles: cofactor determinants,
perfect-matching Pfaffians, and a plain Gaussian-elimination kernel."""

import random
from fractions import Fraction

import pytest

from tourneylab import (
    ParityClass,
    RationalMatrix,
    determinant,
    enumerate_tournaments,
    kernel_basis,
    parity,
    payoff_matrix,
    pfaffian,
)
from tourneylab.construct import imbalanced_rps
from tourneylab.rational import PARITY_ADD, PARITY_MUL, rank, solve_affine

F = Fraction


# ---------------------------------------------------------------------------
# oracles (independent of the Bareiss / first-row-expansion implementations)
# ---------------------------------------------------------------------------

def det_cofactor(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = F(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def _inversions(seq: list[int]) -> int:
    return sum(
        1
        for a in range(len(seq))
        for b in range(a + 1, len(seq))
        if seq[a] > seq[b]
    )


def pfaffian_matchings(rows: list[list[Fraction]]) -> Fraction:
    """Sum over perfect matchings with the permutation sign, per the definition."""
    n = len(rows)
    total = F(0)

    def rec(remaining: tuple[int, ...], pairs: list[tuple[int, int]]):
        nonlocal total
        if not remaining:
            flat = [v for p in pairs for v in p]
            sign = -1 if _inversions(flat) % 2 else 1
            prod = F(1)
            for i, j in pairs:
                prod *= rows[i][j]
            total += sign * prod
            return
        i = remaining[0]
        for pos in range(1, len(remaining)):
            j = remaining[pos]
            rec(remaining[1:pos] + remaining[pos + 1 :], pairs + [(i, j)])

    rec(tuple(range(n)), [])
    return total


def kernel_gauss(rows: list[list[Fraction]]) -> list[tuple[Fraction, ...]]:
    """Plain fraction Gaussian elimination to RREF, canonical kernel basis."""
    m = [r[:] for r in rows]
    n_rows, n_cols = len(m), len(m[0])
    piv_r = 0
    pivots = []
    for c in range(n_cols):
        pr = next((r for r in range(piv_r, n_rows) if m[r][c] != 0), None)
        if pr is None:
            continue
        m[piv_r], m[pr] = m[pr], m[piv_r]
        pv = m[piv_r][c]
        m[piv_r] = [x / pv for x in m[piv_r]]
        for r in range(n_rows):
            if r != piv_r and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[piv_r])]
        pivots.append(c)
        piv_r += 1
    basis = []
    for fc in [c for c in range(n_cols) if c not in pivots]:
        v = [F(0)] * n_cols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        lead = next(x for x in v if x != 0)
        basis.append(tuple(x / lead for x in v))
    return basis


def random_odd(rng: random.Random) -> Fraction:
    x = F(2 * rng.randrange(-5, 6) + 1, 2 * rng.randrange(0, 6) + 1)
    return x


def random_even(rng: random.Random) -> Fraction:
    return F(2 * rng.randrange(-5, 6), 2 * rng.randrange(0, 6) + 1)


def random_odd_skew(rng: random.Random, n: int) -> RationalMatrix:
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = random_odd(rng)
            rows[i][j] = x
            rows[j][i] = -x
    return RationalMatrix(rows)


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------

def test_parity_examples():
    assert parity(F(3, 5)) is ParityClass.ODD
    assert parity(F(2, 7)) is ParityClass.EVEN
    assert parity(F(1, 2)) is ParityClass.UNDEFINED
    assert parity(F(0)) is ParityClass.EVEN
    assert parity(7) is ParityClass.ODD
    assert parity(F(-3, 5)) is ParityClass.ODD


def test_parity_table_randomized():
    rng = random.Random(20240811)
    for _ in range(10_000):
        x = random_odd(rng) if rng.random() < 0.5 else random_even(rng)
        y = random_odd(rng) if rng.random() < 0.5 else random_even(rng)
        px, py = parity(x), parity(y)
        assert parity(x + y) is PARITY_ADD[(px, py)]
        assert parity(x * y) is PARITY_MUL[(px, py)]


def test_parity_table_entries():
    assert PARITY_MUL[(ParityClass.ODD, ParityClass.ODD)] is ParityClass.ODD
    assert PARITY_ADD[(ParityClass.ODD, ParityClass.ODD)] is ParityClass.EVEN
    assert PARITY_ADD[(ParityClass.EVEN, ParityClass.ODD)] is ParityClass.ODD
    assert PARITY_MUL[(ParityClass.EVEN, ParityClass.ODD)] is ParityClass.EVEN
    assert PARITY_MUL[(ParityClass.EVEN, ParityClass.EVEN)] is ParityClass.EVEN


# ---------------------------------------------------------------------------
# matrix plumbing
# ---------------------------------------------------------------------------

def test_matrix_validation_and_predicates():
    with pytest.raises(ValueError):
        RationalMatrix([])
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])
    m = RationalMatrix([[0, F(3, 5)], [F(-3, 5), 0]])
    assert m.is_skew_symmetric()
    assert not RationalMatrix([[0, 1], [1, 0]]).is_skew_symmetric()
    assert not RationalMatrix([[1, 1], [-1, 0]]).is_skew_symmetric()
    assert m.transpose().entries == ((0, F(-3, 5)), (F(3, 5), 0))
    assert m.matvec([F(1), F(2)]) == (F(6, 5), F(-3, 5))
    with pytest.raises(AttributeError):
        m.rows = 3


# ---------------------------------------------------------------------------
# determinant
# ---------------------------------------------------------------------------

def test_determinant_two_by_two_odd_square():
    m = RationalMatrix([[0, F(3, 5)], [F(-3, 5), 0]])
    assert determinant(m) == F(9, 25)


def test_determinant_classic_cycle_is_zero(classic3):
    assert determinant(payoff_matrix(classic3)) == 0


def test_determinant_all_4_tournaments_are_odd_integer_squares():
    import math

    for t in enumerate_tournaments(4):
        d = determinant(payoff_matrix(t))
        assert d.denominator == 1 and d >= 1
        root = math.isqrt(d.numerator)
        assert root * root == d.numerator and root % 2 == 1


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5):
        for _ in range(20):
            rows = [
                [F(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(n)]
                for _ in range(n)
            ]
            assert determinant(RationalMatrix(rows)) == det_cofactor(rows)


def test_determinant_requires_square():
    with pytest.raises(ValueError):
        determinant(RationalMatrix([[1, 2, 3], [4, 5, 6]]))


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_classic_cycle_uniform(classic3):
    basis = kernel_basis(payoff_matrix(classic3))
    assert len(basis) == 1
    assert len(set(basis[0])) == 1  # all entries equal


def test_kernel_invertible_two_by_two_empty():
    assert kernel_basis(RationalMatrix([[0, 1], [-1, 0]])) == []


def test_kernel_imbalanced5_proportional_to_33111():
    basis = kernel_basis(payoff_matrix(imbalanced_rps(2)))
    assert len(basis) == 1
    v = basis[0]
    scale = v[0] / 3
    assert tuple(x / scale for x in v) == (3, 3, 1, 1, 1)
    assert v[0] == 1  # first nonzero entry normalized


def test_kernel_matches_gauss_oracle_and_annihilates():
    rng = random.Random(99)
    for _ in range(60):
        r = rng.randrange(1, 6)
        c = rng.randrange(1, 6)
        rows = [
            [F(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(c)]
            for _ in range(r)
        ]
        m = RationalMatrix(rows)
        basis = kernel_basis(m)
        assert basis == kernel_gauss(rows)
        for v in basis:
            assert m.matvec(v) == (F(0),) * r
        assert len(basis) + rank(m) == c


def test_solve_affine_consistency():
    m = RationalMatrix([[1, 2], [2, 4]])
    assert solve_affine(m, [F(1), F(3)]) is None
    sol = solve_affine(m, [F(1), F(2)])
    assert sol is not None
    x, null = sol
    assert m.matvec(x) == (F(1), F(2))
    assert len(null) == 1


def test_solve_affine_kernel_from_the_same_elimination():
    # rank-deficient integer M = A B (inner size below the column count), and
    # b = M y, so M x = b is consistent with a nontrivial kernel
    rng = random.Random(1101)
    for _ in range(60):
        r, c = rng.randrange(1, 7), rng.randrange(2, 7)
        inner = rng.randrange(1, c)
        a = [[rng.randrange(-3, 4) for _ in range(inner)] for _ in range(r)]
        b = [[rng.randrange(-3, 4) for _ in range(c)] for _ in range(inner)]
        m = RationalMatrix([[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a])
        rhs = m.matvec([F(rng.randrange(-3, 4)) for _ in range(c)])
        x, null = solve_affine(m, rhs)
        assert null == kernel_basis(m)
        assert m.matvec(x) == rhs
        assert all(type(e) is Fraction for v in (x, *null) for e in v)


def test_kernel_entries_stay_exact():
    # the pivot row of column 1 has nothing to its right
    [v] = kernel_basis(RationalMatrix([[0, 1], [0, 0]]))
    assert v == (F(1), F(0)) and all(type(e) is Fraction for e in v)


# ---------------------------------------------------------------------------
# pfaffian
# ---------------------------------------------------------------------------

def test_pfaffian_two_by_two():
    assert pfaffian(RationalMatrix([[0, F(3, 5)], [F(-3, 5), 0]])) == F(3, 5)


def test_pfaffian_zero_matrix():
    z = RationalMatrix([[0] * 4 for _ in range(4)])
    assert pfaffian(z) == 0


def test_pfaffian_validation():
    with pytest.raises(ValueError):
        pfaffian(RationalMatrix([[0, 1, -1], [-1, 0, 1], [1, -1, 0]]))  # odd dim
    with pytest.raises(ValueError):
        pfaffian(RationalMatrix([[0, 1], [1, 0]]))  # not skew


def test_pfaffian_matches_matching_oracle():
    rng = random.Random(13)
    for n in (2, 4, 6):
        for _ in range(12):
            m = random_odd_skew(rng, n)
            assert pfaffian(m) == pfaffian_matchings([list(r) for r in m.entries])


def test_pfaffian_squares_to_determinant_and_is_odd():
    rng = random.Random(17)
    for t in enumerate_tournaments(4):
        a = payoff_matrix(t)
        pf = pfaffian(a)
        assert pf * pf == determinant(a)
        assert parity(pf) is ParityClass.ODD
    for _ in range(40):
        m = random_odd_skew(rng, 6)
        pf = pfaffian(m)
        assert pf * pf == determinant(m)
        assert parity(pf) is ParityClass.ODD
        assert determinant(m) != 0


def test_block_determinant_identity():
    """det(F) = det(A) * det(D + C^T A^-1 C) for the 2x2 top-left block."""
    rng = random.Random(23)
    for n in (4, 6):
        for _ in range(10):
            f = random_odd_skew(rng, n)
            e = [list(r) for r in f.entries]
            a = e[0][1]  # A = [[0, a], [-a, 0]], invertible since a is odd
            c = [row[2:] for row in e[:2]]  # 2 x (n-2)
            d = [row[2:] for row in e[2:]]
            # A^{-1} = [[0, -1/a], [1/a, 0]]
            inv_c = [
                [-c[1][j] / a for j in range(n - 2)],
                [c[0][j] / a for j in range(n - 2)],
            ]
            ct_invc = [
                [
                    c[0][i] * inv_c[0][j] + c[1][i] * inv_c[1][j]
                    for j in range(n - 2)
                ]
                for i in range(n - 2)
            ]
            inner = [
                [d[i][j] + ct_invc[i][j] for j in range(n - 2)] for i in range(n - 2)
            ]
            lhs = determinant(f)
            rhs = a * a * det_cofactor(inner)
            assert lhs == rhs
