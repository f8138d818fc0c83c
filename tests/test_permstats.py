"""Transposition-count polynomial identities, bound, signature experiment."""

import itertools
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from mvowf.field import inner_product, random_vector
from mvowf.permstats import (
    count_signature_preserving,
    cycle_count,
    poly_eval,
    projection_family_size,
    sample_projection_family,
    signature_ambiguity_experiment,
    signature_table,
    transposition_count,
    transposition_poly_bound,
    transposition_poly_enumerated,
    transposition_poly_product,
)


def test_transposition_count_examples():
    assert transposition_count((0, 1, 2, 3, 4)) == 0
    assert transposition_count((1, 0, 2)) == 1
    assert transposition_count((1, 2, 0)) == 2
    with pytest.raises(ValueError):
        transposition_count((0, 0, 1))


def test_count_plus_cycles_is_k_exhaustive():
    for k in range(1, 8):
        for p in itertools.permutations(range(k)):
            assert transposition_count(p) + cycle_count(p) == k


def test_polynomial_small_cases():
    one = (Fraction(1),)
    assert transposition_poly_enumerated(1) == one
    assert transposition_poly_product(1) == one
    assert transposition_poly_enumerated(2) == (Fraction(1), Fraction(1))
    assert transposition_poly_enumerated(3) == (Fraction(1), Fraction(3), Fraction(2))
    assert transposition_poly_product(3) == (Fraction(1), Fraction(3), Fraction(2))


def test_generating_function_identity_exact():
    """Enumeration equals the product form coefficient-by-coefficient."""
    for k in range(1, 9):
        assert transposition_poly_enumerated(k) == transposition_poly_product(k)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        transposition_poly_enumerated(10)


def test_bound_example():
    check = transposition_poly_bound(4, 0.1)
    assert check.lhs == pytest.approx(1.716)
    assert check.rhs == pytest.approx(16.4677, rel=1e-4)
    assert check.ok


def test_bound_domain():
    with pytest.raises(ValueError):
        transposition_poly_bound(4, 0.25)
    with pytest.raises(ValueError):
        transposition_poly_bound(4, 0.0)


def test_bound_holds_k_up_to_10():
    for k in range(1, 11):
        for frac in (0.1, 0.5, 0.9):
            assert transposition_poly_bound(k, frac / k).ok


def test_bound_small_z_limit():
    """As z -> 0 the right side tends to e * sqrt(k); the left side to 1."""
    k = 5
    check = transposition_poly_bound(k, 1e-9)
    assert check.lhs == pytest.approx(1.0, abs=1e-6)
    assert check.rhs == pytest.approx(math.e * math.sqrt(k), rel=1e-5)


@given(st.integers(1, 8), st.fractions(min_value=Fraction(1, 100), max_value=Fraction(9, 100)))
@settings(max_examples=40, deadline=None)
def test_poly_eval_matches_product_form(k, z):
    direct = Fraction(1)
    for j in range(k):
        direct *= 1 + j * z
    assert poly_eval(transposition_poly_product(k), z) == direct


def test_count_signature_preserving_matches_enumeration():
    """q in {2, 3, 5}, families of 0 to 3 vectors; an empty one gives every w
    the same signature."""
    rng = Random(14)
    for q in [2, 3, 5] * 10:
        m = rng.randrange(1, 7)
        ws = [random_vector(4, q, rng) for _ in range(m)]
        gs = [random_vector(4, q, rng) for _ in range(rng.randrange(4))]
        sigs = [tuple(inner_product(g, w, q) for g in gs) for w in ws]
        brute = sum(
            1
            for p in itertools.permutations(range(m))
            if all(sigs[i] == sigs[p[i]] for i in range(m))
        )
        assert count_signature_preserving(ws, gs, q) == brute


def test_all_distinct_signatures_give_one():
    gs = [(1, 0), (0, 1)]
    ws = [(0, 1), (1, 0), (1, 1)]
    assert count_signature_preserving(ws, gs, 2) == 1
    assert all(size == 1 for size in signature_table(ws, gs, 2).values())


def test_projection_family():
    assert projection_family_size(8) == 6
    assert projection_family_size(16) == 8
    rng = Random(15)
    gs = sample_projection_family(8, 2, 6, rng)
    assert len(gs) == 6
    with pytest.raises(ValueError):
        sample_projection_family(4, 2, 6, rng)


def test_experiment_deterministic_and_sane():
    a = signature_ambiguity_experiment(8, 16, 2, trials=50, seed=3)
    b = signature_ambiguity_experiment(8, 16, 2, trials=50, seed=3)
    assert a == b
    assert a.mean >= 1.0  # identity always preserves signatures
    assert a.max >= 1
    assert a.mean_over_sqrt_m == pytest.approx(a.mean / 4.0)


@pytest.mark.parametrize("trials", [0, -3])
def test_experiment_rejects_nonpositive_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        signature_ambiguity_experiment(4, 8, 2, trials=trials, seed=1)
