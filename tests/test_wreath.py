"""Wreath product arithmetic, block embedding, hidden shift and HSP promises.

Everything here is exhaustive at n = 2, q = 2 (72 group elements); the
differential promise check also scans GL_1 wreath squares and GL_2(F_3) wr Z_2.
"""

import warnings
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_verify_hsp_promise, vectors
from mvowf import wreath
from mvowf.field import (
    SingularMatrixError,
    enumerate_invertible,
    identity,
    is_invertible_cached,
    mat_inverse,
    mat_mul,
    rank,
    random_invertible,
)
from mvowf.owf import OwfImage, OwfKey, evaluate, is_injective, keygen
from mvowf.wreath import (
    HspInstance,
    WreathElement,
    embed_gl2n,
    enumerate_wreath,
    make_hidden_shift,
    make_hsp_oracle,
    verify_hsp_promise,
    wreath_identity,
    wreath_inverse,
    wreath_mul,
)

Q, N = 2, 2
INJECTIVE_KEY = OwfKey(q=2, n=2, vectors=((1, 0), (0, 1), (0, 1), (1, 1), (1, 1), (1, 1)))
NON_INJECTIVE_KEY = OwfKey(q=2, n=2, vectors=((1, 0), (0, 1), (1, 1)))


@pytest.fixture(scope="module")
def elements():
    els = list(enumerate_wreath(N, Q))
    assert len(els) == 72
    return els


@pytest.mark.parametrize("q, n", [(2, 2), (3, 2), (2, 1)])
def test_wreath_table_is_built_once_and_streams_above_the_bound(monkeypatch, q, n):
    gl = list(enumerate_invertible(n, q))
    expected = [WreathElement(g1, g2, swap) for g1 in gl for g2 in gl for swap in (0, 1)]
    assert list(enumerate_wreath(n, q)) == expected
    hits = wreath._wreath_table.cache_info().hits
    assert list(enumerate_wreath(n, q)) == expected
    assert wreath._wreath_table.cache_info().hits == hits + 1
    monkeypatch.setattr(wreath, "TABLE_BOUND", len(expected) - 1)
    monkeypatch.setattr(wreath, "_wreath_table", None)  # the stream must not read it
    assert list(enumerate_wreath(n, q)) == expected
    assert not hasattr(expected[0], "__dict__")  # slots


def test_identity_and_inverses(elements):
    e = wreath_identity(N)
    for x in elements:
        assert wreath_mul(e, x, Q) == x
        assert wreath_mul(x, e, Q) == x
        assert wreath_mul(x, wreath_inverse(x, Q), Q) == e
        assert wreath_mul(wreath_inverse(x, Q), x, Q) == e


def test_embed_is_homomorphism(elements):
    embeds = {x: embed_gl2n(x) for x in elements}
    for x in elements:
        for y in elements:
            assert embeds.get(wreath_mul(x, y, Q)) == mat_mul(embeds[x], embeds[y], Q)


def test_embed_injective_and_invertible(elements):
    images = {embed_gl2n(x) for x in elements}
    assert len(images) == 72
    for m in images:
        assert rank(m, Q) == 2 * N
    assert embed_gl2n(wreath_identity(N)) == identity(2 * N)


def test_alpha_is_involution():
    rng = Random(2)
    for _ in range(10):
        m = random_invertible(N, Q, rng)
        alpha = WreathElement(mat_inverse(m, Q), m, 1)
        assert wreath_mul(alpha, alpha, Q) == wreath_identity(N)


def test_hidden_shift_promise_exhaustive():
    rng = Random(3)
    m = random_invertible(N, Q, rng)
    inst = make_hidden_shift(INJECTIVE_KEY, m)
    assert inst.shift == m
    for n_mat in enumerate_invertible(N, Q):
        assert inst.f2(n_mat) == inst.f1(mat_mul(n_mat, m, Q))
    assert inst.f1(identity(N)) == OwfImage(tuple(sorted(INJECTIVE_KEY.vectors)))
    assert inst.f2(identity(N)) == evaluate(INJECTIVE_KEY, m)


def test_hsp_oracle_values_and_cosets(elements):
    rng = Random(4)
    m = random_invertible(N, Q, rng)
    inst = make_hsp_oracle(INJECTIVE_KEY, m)
    e, alpha = inst.subgroup
    assert e == wreath_identity(N)
    assert wreath_mul(alpha, alpha, Q) == e
    assert inst.f(e) == (
        OwfImage(tuple(sorted(INJECTIVE_KEY.vectors))),
        evaluate(INJECTIVE_KEY, m),
    )
    # constant on right cosets
    for x in elements:
        assert inst.f(wreath_mul(x, alpha, Q)) == inst.f(x)


def test_hsp_collisions_only_within_cosets(elements):
    rng = Random(5)
    m = random_invertible(N, Q, rng)
    inst = make_hsp_oracle(INJECTIVE_KEY, m)
    values = [inst.f(x) for x in elements]
    _, alpha = inst.subgroup
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            if values[i] == values[j] and i != j:
                assert wreath_mul(x, alpha, Q) == y


def test_verify_hsp_promise():
    rng = Random(6)
    m = random_invertible(N, Q, rng)
    assert verify_hsp_promise(make_hsp_oracle(INJECTIVE_KEY, m), N, Q)


def test_non_injective_key_breaks_promise():
    rng = Random(7)
    m = random_invertible(N, Q, rng)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inst = make_hsp_oracle(NON_INJECTIVE_KEY, m)
    assert any("injective" in str(w.message) for w in caught)
    assert not verify_hsp_promise(inst, N, Q)


def test_swap_composition_convention():
    rng = Random(8)
    a1, a2 = random_invertible(N, Q, rng), random_invertible(N, Q, rng)
    b1, b2 = random_invertible(N, Q, rng), random_invertible(N, Q, rng)
    x = WreathElement(a1, a2, 1)
    y = WreathElement(b1, b2, 0)
    assert wreath_mul(x, y, Q) == WreathElement(mat_mul(a1, b2, Q), mat_mul(a2, b1, Q), 1)


# -- the memoised hidden-shift oracle -----------------------------------------


def test_hidden_shift_accepts_lists_and_keeps_raising_on_singular():
    m = random_invertible(N, Q, Random(9))
    inst = make_hidden_shift(INJECTIVE_KEY, m)
    for n_mat in enumerate_invertible(N, Q):
        as_lists = [list(row) for row in n_mat]
        assert inst.f1(as_lists) == inst.f1(n_mat) == evaluate(INJECTIVE_KEY, n_mat)
        assert inst.f2(as_lists) == inst.f2(n_mat) == evaluate(INJECTIVE_KEY, mat_mul(n_mat, m, Q))
    singular = [[1, 1], [1, 1]]
    for _ in range(3):
        for f in (inst.f1, inst.f2):
            with pytest.raises(SingularMatrixError):
                f(singular)
            with pytest.raises(SingularMatrixError):
                f(tuple(map(tuple, singular)))
    n_mat = next(enumerate_invertible(N, Q))
    assert inst.f1(tuple(list(row) for row in n_mat)) == evaluate(INJECTIVE_KEY, n_mat)


@pytest.mark.parametrize("key, holds", [(INJECTIVE_KEY, True), (NON_INJECTIVE_KEY, False)])
def test_memoised_oracle_values_and_promise(elements, key, holds):
    m = random_invertible(N, Q, Random(10))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inst = make_hsp_oracle(key, m)
    assert any("injective" in str(w.message) for w in caught) == (not holds)
    shifted = OwfKey(q=Q, n=N, vectors=evaluate(key, m).vectors)
    for x in elements + elements:  # second pass reads the memo
        first, second = (x.g1, x.g2) if x.swap == 0 else (x.g2, x.g1)
        f1, f2 = evaluate(key, first), evaluate(shifted, second)
        assert inst.f(x) == ((f1, f2) if x.swap == 0 else (f2, f1))
    assert verify_hsp_promise(inst, N, Q) == holds


def test_promise_check_evaluates_each_block_once(monkeypatch):
    evaluated, checked = [], []

    def counting_evaluate(key, n_mat):
        evaluated.append(n_mat)
        return evaluate(key, n_mat)

    def counting_is_invertible(n_mat, q):
        checked.append(n_mat)
        return is_invertible_cached(n_mat, q)

    monkeypatch.setattr(wreath, "evaluate", counting_evaluate)
    monkeypatch.setattr(wreath, "is_invertible_cached", counting_is_invertible)
    m = random_invertible(N, Q, Random(11))
    inst = make_hsp_oracle(INJECTIVE_KEY, m)
    assert evaluated == [m]  # the shift's image; every block is read off a row table
    assert verify_hsp_promise(inst, N, Q)
    # |GL_2(F_2)| = 6 blocks for each of f1 and f2, each checked once
    gl = list(enumerate_invertible(N, Q))
    assert Counter(checked) == Counter(gl + gl)
    assert verify_hsp_promise(inst, N, Q)  # the second scan reads the memo
    assert len(checked) == 12 and evaluated == [m]


# (q, n) -> a key and a secret M, for the differential test of the row-table oracle
SHIFT_CASES = {
    (q, n): (keygen(q, n, seed=20 + q + n), random_invertible(n, q, Random(q * n)))
    for q, n in [(2, 2), (3, 2), (5, 2), (2, 3)]
}


@pytest.mark.parametrize("q, n", sorted(SHIFT_CASES))
def test_row_table_oracle_matches_evaluate_on_every_block(q, n):
    key, m = SHIFT_CASES[q, n]
    inst = make_hidden_shift(key, m)
    shifted = OwfKey(q=q, n=n, vectors=evaluate(key, m).vectors)
    for n_mat in enumerate_invertible(n, q):
        assert inst.f1(n_mat) == evaluate(key, n_mat)
        assert inst.f2(n_mat) == evaluate(shifted, n_mat) == evaluate(key, mat_mul(n_mat, m, q))


@pytest.mark.parametrize("q, n", sorted(SHIFT_CASES))
def test_row_table_oracle_raises_as_evaluate_does(q, n):
    key, m = SHIFT_CASES[q, n]
    inst = make_hidden_shift(key, m)
    ident = identity(n)
    bad_blocks = [
        identity(n + 1),  # wrong shape
        ident[:-1],
        ident[:-1] + (ident[-1] + (0,),),  # a row too long
        ((),) * n,
        (),
        ((q,) + ident[0][1:],) + ident[1:],  # entry out of range
        ((-1,) + ident[0][1:],) + ident[1:],
        (ident[0],) * n,  # singular
        ((0,) * n,) * n,
    ]
    for block in bad_blocks:
        with pytest.raises(ValueError) as expected:
            evaluate(key, block)
        for f in (inst.f1, inst.f2):
            for given_block in (block, [list(row) for row in block]):
                with pytest.raises(ValueError) as got:
                    f(given_block)
                assert type(got.value) is type(expected.value)
                assert str(got.value) == str(expected.value)


# -- the promise check against one wreath_mul per value class -----------------

# (q, n) -> (GL_n(F_q), its wreath square), each in scan order
SCANS = {
    (q, n): (list(enumerate_invertible(n, q)), list(enumerate_wreath(n, q)))
    for q, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]
}


def _coset_oracle(beta, q):
    """An oracle whose value classes are the right cosets {x, x*b} of an involution b.

    Its values are pairs of OwfImage, as HspInstance.f's are: the first
    holds the sorted coset, the second nothing.
    """

    def f(x):
        coset = tuple(sorted((y.g1, y.g2, y.swap) for y in (x, wreath_mul(x, beta, q))))
        return OwfImage(coset), OwfImage(())

    return f


@pytest.mark.parametrize("q, n", sorted(SCANS))
@settings(max_examples=15)
@given(data=st.data())
def test_verify_hsp_promise_matches_reference(q, n, data):
    """Honest oracles of injective and non-injective keys, and tampered ones:
    classes {x, x*b} for another involution b (b = (M, M, 0) when M^2 = I
    differs from a = (M, M, 1) in the swap bit alone), a class of 3, or two
    elements that trade values."""
    gl, elements = SCANS[q, n]
    kind = data.draw(st.sampled_from(["honest", "other-subgroup", "swap-only", "class-of-3", "traded"]))
    key = OwfKey(q=q, n=n, vectors=tuple(data.draw(st.lists(vectors(q, n), min_size=n, max_size=n + 4))))
    if kind == "swap-only":
        m = data.draw(st.sampled_from([g for g in gl if mat_mul(g, g, q) == identity(n)]))
    else:
        m = data.draw(st.sampled_from(gl))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        honest = make_hsp_oracle(key, m)
    e, alpha = honest.subgroup
    expected = None
    if kind == "honest":
        inst = honest
        if is_injective(key):
            expected = True
    elif kind in ("other-subgroup", "swap-only"):
        if kind == "swap-only":
            beta = WreathElement(m, m, 0)
        else:
            other = data.draw(st.sampled_from(gl))
            beta = WreathElement(mat_inverse(other, q), other, 1)
        inst = HspInstance(f=_coset_oracle(beta, q), subgroup=(e, alpha))
        expected = beta == alpha
    else:
        z, w = (elements[i] for i in data.draw(st.lists(
            st.integers(0, len(elements) - 1), min_size=2, max_size=2, unique=True
        )))
        values = {z: honest.f(w)} if kind == "class-of-3" else {z: honest.f(w), w: honest.f(z)}

        def f(x):
            return values[x] if x in values else honest.f(x)

        inst = HspInstance(f=f, subgroup=(e, alpha))
    holds = verify_hsp_promise(inst, n, q)
    assert holds == reference_verify_hsp_promise(inst, n, q)
    if expected is not None:
        assert holds == expected
