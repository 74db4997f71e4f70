from fractions import Fraction

import pytest

from tourneylab import (
    Tournament,
    blow_up,
    blow_up_equilibrium,
    canonical_form,
    classic_cycle,
    degree_profile,
    equilibrium_polytope,
    imbalanced_equilibrium_closed_form,
    imbalanced_rps,
    nrps_closed_forms,
    payoff_matrix,
)

F = Fraction


# ---------------------------------------------------------------------------
# imbalanced construction
# ---------------------------------------------------------------------------

def test_imbalanced_one_is_classic_cycle(classic3):
    t = imbalanced_rps(1)
    assert canonical_form(t) == canonical_form(classic3)
    # p1 beats r1, r1 beats s, s beats p1
    assert t.beats[1][0] and t.beats[0][2] and t.beats[2][1]


def test_imbalanced_two_wins_profile():
    t = imbalanced_rps(2)
    wins = dict(zip(t.labels, degree_profile(t).e_in))
    assert wins == {"r1": 3, "p1": 1, "r2": 2, "p2": 2, "s": 2}


def test_imbalanced_rejects_zero():
    with pytest.raises(ValueError):
        imbalanced_rps(0)


def test_imbalanced_degree_sequence_general():
    for n in (2, 3, 4):
        t = imbalanced_rps(n)
        losses = sorted(degree_profile(t).e_out)
        assert losses == list(range(1, n + 1)) + [n] + list(range(n, 2 * n))


def test_closed_form_values():
    assert imbalanced_equilibrium_closed_form(1) == (F(1, 3),) * 3
    assert imbalanced_equilibrium_closed_form(2) == (
        F(1, 3),
        F(1, 3),
        F(1, 9),
        F(1, 9),
        F(1, 9),
    )
    with pytest.raises(ValueError):
        imbalanced_equilibrium_closed_form(0)


def test_closed_form_sums_to_one_and_matches_kernel():
    for n in range(1, 7):
        v = imbalanced_equilibrium_closed_form(n)
        assert sum(v) == 1
        p = equilibrium_polytope(payoff_matrix(imbalanced_rps(n)))
        assert p.vertices == (v,)


def test_nrps_closed_forms():
    probs, e_min = nrps_closed_forms(1)
    assert probs == (F(1, 3),) and e_min == (1,)
    probs, _ = nrps_closed_forms(4)
    assert probs == (F(1, 3), F(1, 3), F(1, 9), F(1, 9))
    # each minimal degree appears exactly twice (pair i contributes i twice)
    _, e_min = nrps_closed_forms(6)
    assert e_min == (1, 1, 2, 2, 3, 3)
    with pytest.raises(ValueError):
        nrps_closed_forms(0)


def test_nrps_prefixes_match_finite_construction():
    # the finite game's smallest minimal degrees converge to the infinite ones
    _, e_min = nrps_closed_forms(6)
    finite = sorted(degree_profile(imbalanced_rps(8)).e_min)
    assert tuple(finite[:6]) == e_min


def test_imbalanced_meets_prefix_bounds_with_equality():
    for n in (1, 2, 3, 4):
        t = imbalanced_rps(n)
        for seq in (sorted(degree_profile(t).e_out), sorted(degree_profile(t).e_in)):
            for k in range(1, n + 1):
                assert sum(seq[:k]) == k * (k + 1) // 2
            assert sum(seq[: n + 1]) == n * (n + 1) // 2 + n


# ---------------------------------------------------------------------------
# balanced cycles
# ---------------------------------------------------------------------------

def test_classic_cycle_three(classic3):
    assert classic_cycle(3) == classic3.relabel(classic_cycle(3).labels)


def test_classic_cycle_five_beats_next_two():
    t = classic_cycle(5)
    for i in range(5):
        assert t.beats[i][(i + 1) % 5] and t.beats[i][(i + 2) % 5]
    assert degree_profile(t).e_in == (2, 2, 2, 2, 2)


def test_classic_cycle_rejects_even():
    with pytest.raises(ValueError):
        classic_cycle(4)


# ---------------------------------------------------------------------------
# blow-ups
# ---------------------------------------------------------------------------

def test_blow_up_matches_imbalanced():
    three = imbalanced_rps(1)
    blown = blow_up(three, "s", three)
    assert canonical_form(blown) == canonical_form(imbalanced_rps(2))
    blown7 = blow_up(blown, "s.s", three)
    assert canonical_form(blown7) == canonical_form(imbalanced_rps(3))


def test_blow_up_by_single_object_is_relabeling(classic3):
    from tourneylab import Tournament

    point = Tournament(1, [[False]], labels=["x"])
    blown = blow_up(classic3, 1, point)
    assert canonical_form(blown) == canonical_form(classic3)
    assert blown.labels == ("0", "2", "1.x")


def test_blow_up_accepts_label_or_index():
    three = imbalanced_rps(1)
    assert blow_up(three, "s", three) == blow_up(three, 2, three)


def test_blow_up_errors(classic3):
    with pytest.raises(KeyError):
        blow_up(classic3, "nope", classic3)
    with pytest.raises(ValueError):
        blow_up(classic3, 7, classic3)


def test_blow_up_rejects_colliding_labels():
    outer = imbalanced_rps(1).relabel(["r1", "s.x", "s"])
    point = Tournament(1, [[False]], labels=["x"])
    with pytest.raises(ValueError, match="label 's.x' names more than one object"):
        blow_up(outer, "s", point)


def test_blow_up_equilibrium_examples():
    u = (F(1, 3),) * 3
    assert blow_up_equilibrium(u, 2, u) == (
        F(1, 3),
        F(1, 3),
        F(1, 9),
        F(1, 9),
        F(1, 9),
    )
    v1 = (F(1, 2), F(1, 2), F(0))
    assert blow_up_equilibrium(v1, 2, u) == (F(1, 2), F(1, 2), F(0), F(0), F(0))
    twice = blow_up_equilibrium(
        blow_up_equilibrium(u, 2, u), 4, u
    )
    assert twice == imbalanced_equilibrium_closed_form(3)
    with pytest.raises(ValueError):
        blow_up_equilibrium(u, 5, u)


def test_blow_up_equilibrium_is_equilibrium_of_blow_up():
    three = imbalanced_rps(1)
    five = imbalanced_rps(2)
    games = {
        "three": (three, imbalanced_equilibrium_closed_form(1)),
        "five": (five, imbalanced_equilibrium_closed_form(2)),
    }
    for outer_name, (outer, v_outer) in games.items():
        for inner_name, (inner, v_inner) in games.items():
            for glue in range(outer.n):
                blown = blow_up(outer, glue, inner)
                v = blow_up_equilibrium(v_outer, glue, v_inner)
                a = payoff_matrix(blown)
                assert a.matvec(v) == (F(0),) * blown.n
                assert sum(v) == 1
