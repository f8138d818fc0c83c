"""Predictor oracles, list decoding, and the two inversion reductions."""

from dataclasses import FrozenInstanceError
from operator import mul
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    reference_agreements,
    reference_bilinear_invert,
    reference_bilinear_truth,
    reference_exact_decode,
    reference_gl_candidates,
    reference_gl_check_points,
    reference_gl_sizes,
    reference_gl_vote_queries,
    reference_goldreich_levin_f2,
    reference_rank,
    reference_trace_invert,
    reference_trace_truth,
)
from mvowf import hardcore
from mvowf.field import (
    enumerate_invertible,
    enumerate_vectors,
    gl_order,
    identity,
    inner_product,
    invertibility_probability,
    mat_mul,
    mat_inverse,
    mat_vec,
    mat_vecs,
    random_invertible,
    random_invertible_mapping,
    random_vector,
    transpose,
)
from mvowf.hardcore import (
    BilinearContext,
    Predictor,
    bilinear_invert,
    estimate_advantage,
    gl_decode_exhaustive,
    goldreich_levin_f2,
    make_bilinear_truth,
    make_noisy_predictor,
    make_subspace_adversary,
    make_trace_truth,
    trace_invert,
)
from mvowf.owf import BudgetExceededError, OwfImage, OwfKey, evaluate, is_injective, keygen


def injective_key(q, n, rng, delta=None):
    while True:
        key = keygen(q, n, delta=delta, rng=rng)
        if is_injective(key):
            return key


def linear_oracle(h, q=2):
    return lambda x: sum(a * b for a, b in zip(x, h)) % q


# -- predictors ---------------------------------------------------------------


def test_noisy_predictor_perfect():
    p = make_noisy_predictor(lambda c: 1, 1 - 1 / 2, 2, Random(1))
    assert all(p.query(i) == 1 for i in range(200))


def test_noisy_predictor_zero_advantage():
    p = make_noisy_predictor(lambda c: 1, 0.0, 2, Random(2))
    agreement = sum(p.query(i) == 1 for i in range(10_000)) / 10_000
    assert abs(agreement - 0.5) < 0.02


def test_noisy_predictor_measured_agreement():
    p = make_noisy_predictor(lambda c: 0, 0.2, 2, Random(3))
    agreement = sum(p.query(i) == 0 for i in range(10_000)) / 10_000
    assert abs(agreement - 0.7) < 0.02


def test_noisy_predictor_epsilon_range():
    with pytest.raises(ValueError):
        make_noisy_predictor(lambda c: 0, 0.7, 2, Random(0))


def test_predictor_memoization_and_counter():
    p = make_noisy_predictor(lambda c: 0, 0.0, 2, Random(4))
    answers = {p.query("ctx") for _ in range(100)}
    assert len(answers) == 1
    assert p.query_count == 100


@pytest.mark.parametrize("q, epsilon", [(2, 0.1), (2, 0.0), (3, 0.2), (5, 0.3)])
def test_noisy_predictor_draws_as_randrange(q, epsilon):
    """The answers, and the rng state after, of a copy drawing its wrong
    answers through randrange (at q = 2, randrange(1), which uses words)."""
    truth = lambda c: c * c % q
    rng, noise = Random(q), Random(q)
    p = make_noisy_predictor(truth, epsilon, q, rng)
    for c in range(300):
        value = truth(c)
        if noise.random() >= 1 / q + epsilon:
            value = (value + 1 + noise.randrange(q - 1)) % q
        assert p.query(c) == value
    assert rng.getstate() == noise.getstate()


class _CountedHash:
    hashes = 0

    def __init__(self, key):
        self.key = key

    def __hash__(self):
        _CountedHash.hashes += 1
        return hash(self.key)

    def __eq__(self, other):
        return self.key == other.key


def test_predictor_hashes_a_context_twice_per_miss():
    """Two hashes on a miss (look up, store), the common case, and one on a hit."""
    p = Predictor(lambda c: c.key % 2, 0.5, 2)
    _CountedHash.hashes = 0
    for key in range(5):
        assert p.query(_CountedHash(key)) == key % 2
    assert _CountedHash.hashes == 2 * 5
    assert p.query(_CountedHash(3)) == 1
    assert _CountedHash.hashes == 2 * 5 + 1
    assert p.query_count == 6


def test_wrong_answers_land_in_field():
    p = make_noisy_predictor(lambda c: 2, 0.0, 5, Random(5))
    values = {p.query(i) for i in range(500)}
    assert values <= set(range(5))
    assert len(values) > 1


def test_estimate_advantage():
    rng = Random(6)
    truth = lambda ctx: ctx % 2
    perfect = make_noisy_predictor(truth, 0.5, 2, rng)
    adv, se = estimate_advantage(perfect, truth, lambda r: r.getrandbits(16), 2000, rng)
    assert adv == pytest.approx(0.5)
    noisy = make_noisy_predictor(truth, 0.2, 2, rng)
    adv, se = estimate_advantage(noisy, truth, lambda r: r.getrandbits(30), 10_000, rng)
    assert abs(adv - 0.2) < 0.015
    assert 0 < se < 0.01


# -- contexts -----------------------------------------------------------------


def test_context_hash_ignores_provenance():
    c1 = BilinearContext(image=((0, 1),), basis=((1, 0),), left=identity(2))
    c2 = BilinearContext(image=((0, 1),), basis=((1, 0),), left=((1, 1), (0, 1)))
    assert c1 == c2 and hash(c1) == hash(c2)


def test_context_is_slotted_and_ignores_transforms():
    """No per-instance __dict__; equality and hashing read image and basis only."""
    c1 = BilinearContext(((0, 1),), ((1, 0),), identity(2))
    c2 = BilinearContext(((0, 1),), ((1, 0),), ((1, 1), (0, 1)), ((0, 1), (1, 0)))
    assert not hasattr(c1, "__dict__") and not hasattr(c2, "__dict__")
    assert c1 == c2 and hash(c1) == hash(c2)
    assert c1 != BilinearContext(((1, 1),), ((1, 0),), identity(2))
    assert c1 != BilinearContext(((0, 1),), ((0, 1),), identity(2))
    with pytest.raises(FrozenInstanceError):
        c1.left = None


def test_implied_matrix():
    rng = Random(7)
    m0 = random_invertible(3, 2, rng)
    a = random_invertible(3, 2, rng)
    b = random_invertible(3, 2, rng)
    ctx = BilinearContext(image=(), basis=(), left=a, right=b)
    expected = mat_mul(mat_mul(a, m0, 2), mat_inverse(b, 2), 2)
    assert ctx.implied_matrix(m0, 2) == expected


def test_bilinear_truth_change_of_variables():
    """t(x, y) equals <x, M y> under A^T a = x, B^-1 b = y."""
    rng = Random(8)
    n = 4
    m0 = random_invertible(n, 2, rng)
    a, b = (1, 0, 0, 0), (0, 1, 0, 0)
    truth = make_bilinear_truth(m0, a, b, 2)
    from mvowf.field import random_invertible_mapping

    for _ in range(50):
        x = random_vector(n, 2, rng)
        y = random_vector(n, 2, rng)
        if not any(x) or not any(y):
            continue
        a_mat = transpose(random_invertible_mapping(a, x, 2, rng))
        b_mat = random_invertible_mapping(y, b, 2, rng)
        ctx = BilinearContext(image=(), basis=(), left=a_mat, right=b_mat)
        assert truth(ctx) == inner_product(x, mat_vec(m0, y, 2), 2)


def test_trace_truth_identity_f2():
    # trace of the 2x2 identity vanishes over F_2
    ctx = BilinearContext(image=(), basis=())
    assert make_trace_truth(identity(2), 2)(ctx) == 0
    assert make_trace_truth(identity(3), 2)(ctx) == 1


def test_bilinear_truth_unit_vectors_on_identity():
    e1 = (1, 0, 0, 0)
    ctx = BilinearContext(image=(), basis=())
    assert make_bilinear_truth(identity(4), e1, e1, 2)(ctx) == 1


@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(0, 2**32))
@settings(max_examples=150)
def test_truths_match_implied_matrix(q, n, seed):
    """Both truths agree with the implied_matrix versions on every context
    shape: none, left only, right only, left and right."""
    rng = Random(seed)
    m0 = random_invertible(n, q, rng)
    a, b = random_vector(n, q, rng), random_vector(n, q, rng)
    left, right = random_invertible(n, q, rng), random_invertible(n, q, rng)
    truths = [
        (make_trace_truth(m0, q), reference_trace_truth(m0, q)),
        (make_bilinear_truth(m0, a, b, q), reference_bilinear_truth(m0, a, b, q)),
    ]
    for lhs, rhs in [(None, None), (left, None), (None, right), (left, right)]:
        ctx = BilinearContext(image=(), basis=(), left=lhs, right=rhs)
        for truth, reference in truths:
            assert truth(ctx) == reference(ctx)


@pytest.mark.parametrize("q, n", [(2, 4), (2, 6), (3, 3), (5, 3)])
def test_bilinear_truth_on_reduction_contexts(q, n):
    """On contexts built as bilinear_invert builds them, the one-vector
    solve gives <a, M' b> for the implied matrix M'."""
    rng = Random(q * 100 + n)
    m0 = random_invertible(n, q, rng)
    a, b = (1,) + (0,) * (n - 1), random_vector(n, q, rng)
    b = b if any(b) else a
    truth = make_bilinear_truth(m0, a, b, q)
    for _ in range(80):
        x, y = random_vector(n, q, rng), random_vector(n, q, rng)
        if not any(x) or not any(y):
            continue
        ctx = BilinearContext(
            image=(),
            basis=(),
            left=transpose(random_invertible_mapping(a, x, q, rng)),
            right=random_invertible_mapping(y, b, q, rng),
        )
        implied = ctx.implied_matrix(m0, q)
        assert truth(ctx) == inner_product(a, mat_vec(implied, b, q), q)
        assert truth(ctx) == inner_product(x, mat_vec(m0, y, q), q)


# -- subspace adversary -------------------------------------------------------


def test_subspace_adversary_orthogonal_queries_exact():
    rng = Random(9)
    n = 8
    m0 = random_invertible(n, 2, rng)
    adv = make_subspace_adversary(m0, Random(10))
    zero = (0,) * n
    for _ in range(50):
        b = random_vector(n, 2, rng)
        assert adv.query((zero, b)) == 0  # <0, Mb> = 0, 0 is orthogonal to S
        a_perp = (0, 0, 0) + tuple(rng.randrange(2) for _ in range(n - 3))
        assert adv.query((a_perp, b)) == inner_product(a_perp, mat_vec(m0, b, 2), 2)


def test_subspace_adversary_advantage():
    n = 16
    rng = Random(11)
    m0 = random_invertible(n, 2, rng)
    adv = make_subspace_adversary(m0, Random(12))
    truth = lambda ctx: inner_product(ctx[0], mat_vec(m0, ctx[1], 2), 2)
    sample = lambda r: (random_vector(n, 2, r), random_vector(n, 2, r))
    adv_measured, _ = estimate_advantage(adv, truth, sample, 20_000, Random(13))
    assert adv_measured >= 1 / (2 * n)


def test_subspace_adversary_blind_to_hidden_minor():
    """Matrices differing only in the leading minor give identical streams."""
    n = 16
    rng = Random(14)
    m0 = random_invertible(n, 2, rng)
    m1 = [list(row) for row in m0]
    for i in range(4):
        for j in range(4):
            m1[i][j] ^= 1
    m1 = tuple(tuple(row) for row in m1)
    adv0 = make_subspace_adversary(m0, Random(100))
    adv1 = make_subspace_adversary(m1, Random(100))
    query_rng = Random(15)
    queries = [
        (random_vector(n, 2, query_rng), random_vector(n, 2, query_rng))
        for _ in range(5000)
    ]
    assert [adv0.query(c) for c in queries] == [adv1.query(c) for c in queries]


# -- decoding -----------------------------------------------------------------


def test_gl_decode_noiseless():
    rng = Random(16)
    h = tuple(rng.randrange(2) for _ in range(12))
    out = goldreich_levin_f2(linear_oracle(h), 12, 0.45, Random(17))
    assert h in out
    assert out[0] == h  # full agreement ranks first


def test_gl_decode_zero_oracle():
    out = goldreich_levin_f2(lambda x: 0, 8, 0.45, Random(18))
    assert (0,) * 8 in out


def test_gl_decode_random_oracle_yields_nothing():
    rng = Random(19)
    table = {}

    def random_oracle(x):
        if x not in table:
            table[x] = rng.randrange(2)
        return table[x]

    assert goldreich_levin_f2(random_oracle, 16, 0.2, Random(20)) == []


def test_gl_decode_noisy():
    wins = 0
    for seed in range(10):
        r = Random(1000 + seed)
        h = tuple(r.randrange(2) for _ in range(20))
        base = linear_oracle(h)

        def noisy(x):
            return base(x) if r.random() < 0.65 else 1 - base(x)

        wins += h in goldreich_levin_f2(noisy, 20, 0.15, r)
    assert wins >= 9


@pytest.mark.parametrize(
    "k, epsilon", [(1, 0.45), (5, 0.45), (20, 0.25), (70, 0.45), (16, 0.5)]
)
def test_gl_vote_queries_match_reference(k, epsilon):
    """The oracle sees exactly the reference's vote-loop calls, in order.

    k = 70 crosses 64 bits; epsilon = 1/2 (a perfect oracle) casts one vote
    per coordinate.  The queries are tuples of Python ints, so an
    oracle that hashes or compares them sees what it saw before.
    """
    calls = []

    def recording(x):
        calls.append(x)
        return sum(x) % 2

    expected = reference_gl_vote_queries(k, epsilon, Random(40 + k))
    goldreich_levin_f2(recording, k, epsilon, Random(40 + k))
    assert calls[: len(expected)] == expected
    assert all(type(bit) is int for x in calls[: len(expected)] for bit in x)


@pytest.mark.parametrize("k", [10, 12])
@pytest.mark.parametrize("epsilon", [0.15, 0.25])
def test_gl_decode_guarantee_at_worst_case(k, epsilon):
    """A form with agreement exactly at the bound is found at the confidence.

    The oracle is a fixed function wrong on floor((1/2 - epsilon) 2^k)
    points, the least agreement the guarantee covers.  At confidence 0.9 the
    planted form must be in the output on at least 36 of 40 decoder seeds.
    The oracle draws from a separate stream: one seeded like the decoder's
    would hand it check points from the very words that chose the wrong
    points.  Each run asks k N vote queries, N odd and between the Chebyshev
    bound and 2^t - 1, then re-checks on as many points as its candidate
    count calls for.
    """
    confidence = 0.9
    t, n_votes = reference_gl_sizes(k, epsilon, confidence)
    needed = k * (1 - 4 * epsilon * epsilon) / (4 * epsilon * epsilon * (1 - confidence))
    assert n_votes % 2 == 1 and needed <= n_votes <= 2**t - 1
    points = [tuple((x >> j) & 1 for j in range(k)) for x in range(2**k)]
    wins = 0
    for seed in range(40):
        r = Random(f"oracle-{seed}")
        h = tuple(r.randrange(2) for _ in range(k))
        wrong = set(r.sample(range(2**k), int((0.5 - epsilon) * 2**k)))
        table = {x: (sum(map(mul, h, x)) + (i in wrong)) % 2 for i, x in enumerate(points)}
        answers = []

        def oracle(x):
            answers.append(table[x])
            return answers[-1]

        wins += h in goldreich_levin_f2(oracle, k, epsilon, Random(seed), confidence)
        votes = np.array(answers[: k * n_votes], dtype=np.uint8).reshape(k, n_votes)
        n_candidates = len(reference_gl_candidates(votes, t))
        n_check = reference_gl_check_points(n_candidates, epsilon, confidence)
        assert len(answers) == k * n_votes + n_check
    assert wins >= 36


@pytest.mark.parametrize("epsilon", [0.5 + 1e-9, 0.75, 1.0])
def test_gl_decode_rejects_epsilon_above_half(epsilon):
    """Agreement 1/2 + epsilon above 1 is no promise; nothing is queried."""
    calls = []
    with pytest.raises(ValueError, match="epsilon must be at most 1/2"):
        goldreich_levin_f2(calls.append, 8, epsilon, Random(0))
    assert calls == []


class _CountingRandom(Random):
    """A Random that counts its getrandbits calls."""

    draws = 0

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


def test_gl_draws_only_the_references_its_votes_read():
    """At k = 20, eps = 0.45 the Chebyshev bound asks N = 47 votes, on masks
    1..47, which read 6 references: exactly 6 are drawn before the first
    query (k / (4 eps^2 delta) would size 8), and the re-check points after
    the votes."""
    k, epsilon = 20, 0.45
    assert reference_gl_sizes(k, epsilon) == (6, 47)
    rng = _CountingRandom(45)
    draws_seen = []

    def oracle(x):
        draws_seen.append(rng.draws)
        return x[3]

    got = goldreich_levin_f2(oracle, k, epsilon, rng)
    assert draws_seen[: k * 47] == [6] * (k * 47)
    n_check = len(draws_seen) - k * 47
    assert n_check >= 64 and draws_seen[k * 47 :] == [6 + n_check] * n_check
    assert got[0] == tuple(int(i == 3) for i in range(k))


@st.composite
def recheck_inputs(draw):
    """Candidates, check points and answers for the re-check, plus a block size."""
    q = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.integers(1, 80))
    n_check = draw(st.integers(1, 100))
    rows = st.integers(0, q**k - 1).map(lambda x: tuple(x // q**i % q for i in range(k)))
    candidates = sorted(draw(st.lists(rows, max_size=300)))
    points = draw(st.lists(rows, min_size=n_check, max_size=n_check))
    answers = draw(st.lists(st.integers(0, q - 1), min_size=n_check, max_size=n_check))
    # or a threshold 1/q + epsilon/2 that some count c reaches exactly
    at_count = st.integers(0, n_check).map(lambda c: 2 * (c / n_check - 1 / q))
    epsilon = draw(st.floats(0.0, 1 - 1 / q) | at_count)
    block_rows = draw(st.integers(1, 40))
    return q, k, candidates, points, answers, epsilon, block_rows


@settings(max_examples=200, deadline=None)
@given(recheck_inputs())
def test_recheck_matches_scalar_reference(inputs):
    """Blocked matrix-product scoring equals counting agreements one by one.

    The oracle is asked at each point once, in order; the forms kept are
    those with at least 1/q + epsilon/2 agreement, by falling count, ties in
    lexicographic order.  k crosses 64 bits, and the block budget is shrunk
    so that most examples split the candidates over several blocks.
    """
    q, k, candidates, points, answers, epsilon, block_rows = inputs
    calls = []
    answer = iter(answers)

    def oracle(x):
        calls.append(x)
        return next(answer)

    forms = np.array(candidates, dtype=np.uint8).reshape(len(candidates), k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hardcore, "_BLOCK_ELEMENTS", block_rows * max(k, len(points)))
        got = hardcore._ranked(oracle, points, q, epsilon, len(forms), forms.__getitem__)
    assert calls == points
    counts = reference_agreements(candidates, points, answers, q)
    kept = [(-c, h) for c, h in zip(counts, candidates) if c / len(points) >= 1 / q + epsilon / 2]
    assert got == [h for _, h in sorted(kept)]


@st.composite
def gl_inputs(draw):
    """A planted form, a noisy oracle's salt, and decoder parameters with at
    most 2^11 guesses."""
    k = draw(st.integers(1, 80))
    h = tuple(draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)))
    epsilon = draw(st.floats(0.15, 0.5))
    # t = ceil(log2(k / (4 epsilon^2 delta) + 1)) <= 11
    delta = draw(st.floats(min(0.5, 1.01 * k / (4 * epsilon * epsilon * 2047)), 0.5))
    p_right = draw(st.floats(0.5, 1.0))
    salt = draw(st.integers(0, 2**32))
    block_rows = draw(st.integers(1, 40))
    return k, h, epsilon, 1 - delta, p_right, salt, block_rows


@settings(max_examples=20, deadline=None)
@given(gl_inputs(), st.integers(0, 2**32))
def test_gl_decode_matches_reference(inputs, seed):
    """The transform's guesses and the blocked re-check give the old decoder's
    list, oracle calls and rng draws."""
    k, h, epsilon, confidence, p_right, salt, block_rows = inputs

    def answer(x):
        # a fixed function of x, wrong where a hash of x lands above p_right;
        # unlike a memo it keeps nothing per point
        value = sum(map(mul, h, x)) % 2
        spread = (hash(x) ^ salt) * 0x9E3779B97F4A7C15 % 2**64 / 2**64
        return value if spread < p_right else 1 - value

    def recording(calls):
        return lambda x: calls.append(hash(x)) or answer(x)

    calls, expected_calls = [], []
    rng, expected_rng = Random(seed), Random(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hardcore, "_BLOCK_ELEMENTS", block_rows * 64)
        got = goldreich_levin_f2(recording(calls), k, epsilon, rng, confidence)
    expected = reference_goldreich_levin_f2(
        recording(expected_calls), k, epsilon, expected_rng, confidence
    )
    assert got == expected
    assert calls == expected_calls
    assert rng.getstate() == expected_rng.getstate()


def test_exhaustive_decode_agrees_with_f2():
    rng = Random(21)
    h = tuple(rng.randrange(2) for _ in range(10))
    oracle = linear_oracle(h)
    fast = goldreich_levin_f2(oracle, 10, 0.45, Random(22))
    slow = gl_decode_exhaustive(oracle, 10, 2, 0.9, 400, Random(23))
    assert h in fast and h in slow


def test_exhaustive_decode_q3():
    h = (1, 2, 0, 1)
    oracle = lambda x: sum(a * b for a, b in zip(x, h)) % 3
    out = gl_decode_exhaustive(oracle, 4, 3, 2 / 3, 300, Random(24))
    assert out == [h]


def test_exhaustive_decode_zero_advantage_oracle():
    rng = Random(25)
    table = {}

    def random_oracle(x):
        if x not in table:
            table[x] = rng.randrange(2)
        return table[x]

    out = gl_decode_exhaustive(random_oracle, 10, 2, 0.3, 500, Random(26))
    assert out == []


@st.composite
def exact_decode_inputs(draw):
    """A planted form, a noisy memoised oracle of it, and a decoder epsilon."""
    q = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.integers(1, {2: 8, 3: 5, 5: 3}[q]))
    h = tuple(draw(st.lists(st.integers(0, q - 1), min_size=k, max_size=k)))
    p_right = draw(st.floats(0.0, 1.0))
    epsilon = draw(st.floats(0.01, 1 - 1 / q))
    noise_seed = draw(st.integers(0, 2**32))
    block_rows = draw(st.integers(1, 40))
    samples = draw(st.integers(0, 500))
    return q, k, h, p_right, epsilon, noise_seed, block_rows, samples


@settings(max_examples=150, deadline=None)
@given(exact_decode_inputs())
def test_exact_decode_matches_reference(inputs):
    """Below the exact-domain cap every point is asked once and every form scored.

    The output equals a count of each form's agreements over all q^k points,
    the decoder draws nothing from rng and ignores `samples`, and a planted
    form agreeing on at least 1/q + epsilon of the domain is always returned.
    The block budget is shrunk so that most examples score in several blocks.
    """
    q, k, h, p_right, epsilon, noise_seed, block_rows, samples = inputs
    noise = Random(noise_seed)
    memo: dict = {}
    calls = []

    def oracle(x):
        calls.append(x)
        if x not in memo:
            value = sum(a * b for a, b in zip(h, x)) % q
            if noise.random() >= p_right:
                value = (value + 1 + noise.randrange(q - 1)) % q
            memo[x] = value
        return memo[x]

    rng = Random(41)
    state = rng.getstate()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hardcore, "_BLOCK_ELEMENTS", block_rows * q**k)
        got = gl_decode_exhaustive(oracle, k, q, epsilon, samples, rng)
    assert rng.getstate() == state
    assert len(calls) == q**k and len(set(calls)) == q**k
    assert got == reference_exact_decode(memo.__getitem__, k, q, epsilon)
    planted = sum(sum(a * b for a, b in zip(h, x)) % q == y for x, y in memo.items())
    if planted / q**k >= 1 / q + epsilon:
        assert h in got


@settings(max_examples=100, deadline=None)
@given(exact_decode_inputs())
def test_sampled_decode_matches_reference(inputs):
    """With the exact-domain cap at 0 every domain takes the sampled path: the
    decoder asks the oracle at `samples` uniform points drawn from rng, in
    order, and scores every form against them."""
    q, k, h, p_right, epsilon, noise_seed, block_rows, samples = inputs
    samples = max(1, samples)
    noise = Random(noise_seed)
    memo: dict = {}
    calls = []

    def oracle(x):
        calls.append(x)
        if x not in memo:
            value = sum(a * b for a, b in zip(h, x)) % q
            if noise.random() >= p_right:
                value = (value + 1 + noise.randrange(q - 1)) % q
            memo[x] = value
        return memo[x]

    rng, expected_rng = Random(44), Random(44)
    points = [random_vector(k, q, expected_rng) for _ in range(samples)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hardcore, "_EXACT_DOMAIN", 0)
        mp.setattr(hardcore, "_BLOCK_ELEMENTS", block_rows * max(k, samples))
        got = gl_decode_exhaustive(oracle, k, q, epsilon, samples, rng)
    assert rng.getstate() == expected_rng.getstate()
    assert calls == points
    assert got == reference_exact_decode(memo.__getitem__, k, q, epsilon, points)


def test_sampled_decode_rejects_no_samples():
    with pytest.raises(ValueError, match="samples"):
        gl_decode_exhaustive(lambda x: 0, 13, 2, 0.3, 0, Random(1))
    # below the exact-domain cap samples is ignored
    assert gl_decode_exhaustive(lambda x: 0, 3, 2, 0.3, 0, Random(1))[0] == (0, 0, 0)


def test_exact_decode_at_the_domain_cap():
    """At q^k = 2^12 every point is asked once; above it the decoder samples."""
    h = tuple(i % 2 for i in range(12))
    calls = []

    def oracle(x):
        calls.append(x)
        return sum(a * b for a, b in zip(h, x)) % 2

    assert gl_decode_exhaustive(oracle, 12, 2, 0.9, 50, Random(42)) == [h]
    assert len(calls) == 2**12 == hardcore._EXACT_DOMAIN
    calls.clear()
    gl_decode_exhaustive(oracle, 13, 2, 0.9, 50, Random(43))
    assert len(calls) == 50


@settings(max_examples=100, deadline=None)
@given(exact_decode_inputs())
def test_exact_scores_match_the_blocked_product(inputs):
    """The memoised scores and the blocked product give the same list in the
    same order, from the same oracle calls.  A block budget below q^(2k)
    forces the product."""
    q, k, h, p_right, epsilon, noise_seed, block_rows, _ = inputs
    noise = Random(noise_seed)
    table = {}
    for x in enumerate_vectors(k, q):
        value = sum(a * b for a, b in zip(h, x)) % q
        if noise.random() >= p_right:
            value = (value + 1 + noise.randrange(q - 1)) % q
        table[x] = value
    calls, blocked_calls = [], []
    memoised = gl_decode_exhaustive(
        lambda x: calls.append(x) or table[x], k, q, epsilon, 0, Random(1)
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hardcore, "_BLOCK_ELEMENTS", min(block_rows, q**k - 1) * q**k)
        mp.setattr(hardcore, "_exact_scores", None)  # the product path must not ask for it
        blocked = gl_decode_exhaustive(
            lambda x: blocked_calls.append(x) or table[x], k, q, epsilon, 0, Random(1)
        )
    assert memoised == blocked
    assert calls == blocked_calls == list(table)


def test_exact_scores_are_built_once_per_domain():
    """Repeated exact decodes of one (k, q) build its scores once; q = 2,
    k = 12, whose 2^24 scores exceed one block, never builds them."""
    hardcore._exact_scores.cache_clear()
    oracle = linear_oracle((1, 2, 0, 1), 3)
    for seed in range(3):
        assert gl_decode_exhaustive(oracle, 4, 3, 0.6, 0, Random(seed)) == [(1, 2, 0, 1)]
    assert gl_decode_exhaustive(linear_oracle((1, 0)), 2, 2, 0.9, 0, Random(0)) == [(1, 0)]
    info = hardcore._exact_scores.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
    h = tuple(i % 2 for i in range(12))
    assert gl_decode_exhaustive(linear_oracle(h), 12, 2, 0.9, 0, Random(0)) == [h]
    assert hardcore._exact_scores.cache_info().misses == 2


# -- reductions ---------------------------------------------------------------


@st.composite
def query_points(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    return tuple(draw(st.lists(st.integers(0, q - 1), min_size=n * n, max_size=n * n))), n, q


@settings(max_examples=300)
@given(query_points())
def test_query_matrix_matches_reference_rank(inputs):
    """The rows x[i::n] exactly when they make an invertible matrix, else
    None, on the first call and from the memo alike."""
    x, n, q = inputs
    rows = tuple(tuple(x[i::n]) for i in range(n))
    expected = rows if reference_rank(rows, q) == n else None
    assert hardcore._query_matrix(x, n, q) == expected
    assert hardcore._query_matrix(x, n, q) == expected


def test_query_matrix_rejects_entries_outside_the_field():
    for _ in range(2):  # nothing is memoised for a point out of range
        with pytest.raises(ValueError):
            hardcore._query_matrix((2, 0, 0, 1), 2, 2)


def test_trace_invert_perfect_predictor():
    wins = 0
    for seed in range(8):
        rng = Random(2000 + seed)
        key = injective_key(2, 2, rng)
        m0 = random_invertible(2, 2, rng)
        image = evaluate(key, m0)
        predictor = make_noisy_predictor(make_trace_truth(m0, 2), 0.5, 2, rng)
        got = trace_invert(key, image, predictor, 0.5, rng)
        if got is not None:
            assert evaluate(key, got) == image
            wins += 1
    assert wins >= 7


def test_trace_invert_bookkeeping_matches_alpha():
    """Share of invertible query matrices tracks the 6/16 enumeration count."""
    invertible_2x2 = sum(1 for _ in enumerate_invertible(2, 2))
    assert invertible_2x2 / 2 ** 4 == 0.375
    assert invertibility_probability(2, 2) == pytest.approx(0.375)
    rng = Random(27)
    key = injective_key(2, 3, rng)
    m0 = random_invertible(3, 2, rng)
    image = evaluate(key, m0)
    predictor = make_noisy_predictor(make_trace_truth(m0, 2), 0.5, 2, rng)
    stats = {}
    trace_invert(key, image, predictor, 0.5, rng, stats=stats)
    total = stats["invertible_queries"] + stats["singular_queries"]
    assert abs(stats["invertible_queries"] / total - invertibility_probability(3, 2)) < 0.05


@pytest.mark.parametrize("q, epsilon", [(2, 0.5), (3, 2 / 3), (3, 0.5)])
def test_trace_invert_answers_each_point_once(q, epsilon):
    """The predictor is asked once per distinct invertible query matrix."""
    rng = Random(32)
    key = injective_key(q, 2, rng)
    m0 = random_invertible(2, q, rng)
    image = evaluate(key, m0)
    predictor = make_noisy_predictor(make_trace_truth(m0, q), epsilon, q, rng)
    assert trace_invert(key, image, predictor, epsilon, rng) == m0
    assert 0 < predictor.query_count <= gl_order(2, q)


def test_trace_invert_later_rounds_reuse_predictor_answers():
    """Failed rounds redraw the singular points but ask the predictor nothing new.

    The image is the key projected onto its first coordinate, which no
    invertible matrix gives for a spanning key, so every round must fail.
    """
    rng = Random(33)
    key = injective_key(2, 2, rng)
    image = OwfImage(tuple(sorted(mat_vecs(((1, 0), (0, 0)), key.vectors, 2))))
    predictor = Predictor(lambda ctx: 0, 0.5, 2)
    stats = {}
    trace_invert(key, image, predictor, 0.5, rng, stats=stats)
    assert stats["rounds"] == 4
    assert predictor.query_count <= gl_order(2, 2)


@pytest.mark.parametrize("q, n", [(2, 2), (3, 2), (2, 3)])
def test_trace_invert_decodes_exactly_below_cap(q, n, monkeypatch):
    """Each round asks the decoder oracle at every point of F_q^(n^2) once.

    The image has no preimage, so every round runs; goldreich_levin_f2 is
    never called, at q = 2 too.
    """
    monkeypatch.setattr(hardcore, "goldreich_levin_f2", None)
    rng = Random(34)
    key = injective_key(q, n, rng)
    projection = tuple(tuple(int(i == j == 0) for j in range(n)) for i in range(n))
    image = OwfImage(tuple(sorted(mat_vecs(projection, key.vectors, q))))
    predictor = make_noisy_predictor(lambda ctx: 0, 0.2, q, rng)
    stats = {}
    assert trace_invert(key, image, predictor, 0.2, rng, rounds=2, stats=stats) is None
    assert stats["rounds"] == 2
    assert stats["invertible_queries"] == 2 * gl_order(n, q)
    assert stats["invertible_queries"] + stats["singular_queries"] == 2 * q ** (n * n)
    assert predictor.query_count == gl_order(n, q)


def test_trace_invert_q3():
    rng = Random(28)
    key = injective_key(3, 2, rng, delta=4)
    m0 = random_invertible(2, 3, rng)
    image = evaluate(key, m0)
    predictor = make_noisy_predictor(make_trace_truth(m0, 3), 2 / 3, 3, rng)
    got = trace_invert(key, image, predictor, 2 / 3, rng)
    assert got is not None and evaluate(key, got) == image


def test_bilinear_invert_perfect_predictor():
    wins = 0
    for seed in range(8):
        rng = Random(3000 + seed)
        key = keygen(2, 4, delta=4, rng=rng)
        m0 = random_invertible(4, 2, rng)
        image = evaluate(key, m0)
        a, b = (1, 0, 0, 0), (0, 1, 0, 0)
        predictor = make_noisy_predictor(make_bilinear_truth(m0, a, b, 2), 0.5, 2, rng)
        got = bilinear_invert(key, image, predictor, a, b, 0.5, rng)
        if got is not None:
            assert evaluate(key, got) == image
            wins += 1
    assert wins == 8


def test_bilinear_invert_empty_decode():
    """A constant predictor decodes no row for the first family vector, so
    the reduction gives up before the search and says why in stats."""
    rng = Random(0)
    key = keygen(2, 4, delta=4, rng=rng)
    image = evaluate(key, random_invertible(4, 2, rng))
    predictor = Predictor(lambda ctx: 1, 0.5, 2)
    stats = {}
    a, b = (1, 0, 0, 0), (0, 1, 0, 0)
    assert bilinear_invert(key, image, predictor, a, b, 0.5, rng, stats=stats) is None
    assert stats["empty_decode"] is True
    assert stats["assignments_tried"] == 0


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3)])
def test_bilinear_invert_decodes_exactly_below_cap(q, n, monkeypatch):
    """Each decode asks every nonzero y once: at most |family| (q^n - 1) t-queries."""
    monkeypatch.setattr(hardcore, "goldreich_levin_f2", None)
    rng = Random(35)
    key = keygen(q, n, delta=4, rng=rng)
    m0 = random_invertible(n, q, rng)
    image = evaluate(key, m0)
    a = (1,) + (0,) * (n - 1)
    b = (0, 1) + (0,) * (n - 2)
    predictor = make_noisy_predictor(make_bilinear_truth(m0, a, b, q), 1 - 1 / q, q, rng)
    stats = {}
    got = bilinear_invert(key, image, predictor, a, b, 1 - 1 / q, rng, stats=stats)
    assert got is not None and evaluate(key, got) == image
    assert 0 < stats["t_queries"] <= n * (q**n - 1)


def test_bilinear_invert_q3_exhaustive_decode_path():
    rng = Random(4001)
    key = keygen(3, 3, delta=3, rng=rng)
    m0 = random_invertible(3, 3, rng)
    image = evaluate(key, m0)
    a, b = (1, 0, 0), (0, 1, 0)
    predictor = make_noisy_predictor(make_bilinear_truth(m0, a, b, 3), 2 / 3, 3, rng)
    got = bilinear_invert(key, image, predictor, a, b, 2 / 3, rng)
    assert got is not None and evaluate(key, got) == image


def test_bilinear_invert_duplicate_targets():
    """Two equal key vectors force a signature class of size 2."""
    rng = Random(29)
    vectors = (
        (1, 0, 0, 0),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 1, 0, 0),
        (1, 0, 1, 0),
        (1, 1, 1, 1),
    )
    key = OwfKey(q=2, n=4, vectors=vectors)
    m0 = random_invertible(4, 2, rng)
    image = evaluate(key, m0)
    a, b = (1, 0, 0, 0), (0, 1, 0, 0)
    predictor = make_noisy_predictor(make_bilinear_truth(m0, a, b, 2), 0.5, 2, rng)
    stats = {}
    got = bilinear_invert(key, image, predictor, a, b, 0.5, rng, stats=stats)
    assert got is not None and evaluate(key, got) == image


def _bilinear_instance(q, n, delta, epsilon, seed):
    """Arguments of bilinear_invert for a planted instance."""
    rng = Random(seed)
    key = keygen(q, n, delta=delta, rng=rng)
    m0 = random_invertible(n, q, rng)
    a = (1,) + (0,) * (n - 1)
    b = (0, 1) + (0,) * (n - 2)
    predictor = make_noisy_predictor(make_bilinear_truth(m0, a, b, q), epsilon, q, rng)
    return key, evaluate(key, m0), predictor, a, b, epsilon, rng


@pytest.mark.parametrize(
    "q, n, delta, epsilon, seeds",
    [
        (2, 4, 4, 0.5, range(6)),
        (2, 4, 4, 0.2, range(6)),
        (3, 3, 3, 2 / 3, range(4)),
        (3, 3, 0, 2 / 3, range(4)),
        (2, 4, 1, 0.5, range(4)),
        # the projection family has fewer than n members
        (2, 7, 1, 0.5, range(2)),
        (2, 9, 3, 0.5, range(1)),
    ],
)
def test_bilinear_invert_matches_reference(q, n, delta, epsilon, seeds):
    """The engine's signature-coloured matching recovers the matrix the
    per-class permutation matcher did, after the same predictor queries."""
    for seed in seeds:
        key, image, predictor, *rest = _bilinear_instance(q, n, delta, epsilon, seed)
        got = bilinear_invert(key, image, predictor, *rest)
        ref_args = _bilinear_instance(q, n, delta, epsilon, seed)
        assert got == reference_bilinear_invert(*ref_args)
        assert predictor.query_count == ref_args[2].query_count
        assert got is None or evaluate(key, got) == image


def test_bilinear_budget_spans_combos(monkeypatch):
    """Each engine call gets the budget the earlier calls left; the call that
    breaks it ends the reduction."""
    budgets = []

    def three_nodes_each(src, dst, q, n, node_budget, stats, **kwargs):
        budgets.append(node_budget)
        stats["nodes"] = min(3, node_budget + 1)
        if node_budget < 3:
            raise BudgetExceededError(f"matching search exceeded {node_budget} nodes")
        return
        yield

    monkeypatch.setattr(hardcore, "iter_matchings", three_nodes_each)
    # eps = 0.2 leaves several decoded forms per family member: 720 combos
    args = _bilinear_instance(2, 4, 1, 0.2, 14)
    stats = {}
    assert bilinear_invert(*args, assignment_budget=10, stats=stats) is None
    assert budgets == [10, 7, 4, 1]
    assert stats["assignments_tried"] == 11 and stats["budget_exhausted"]


def test_reductions_reject_zero_epsilon():
    key, image, predictor, a, b, _, rng = _bilinear_instance(2, 4, 4, 0.0, 1)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        trace_invert(key, image, predictor, 0.0, rng)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        bilinear_invert(key, image, predictor, a, b, 0.0, rng)
    assert predictor.query_count == 0


def test_reductions_reject_nan_epsilon():
    """NaN is no advantage: each entry point rejects it before any query or draw."""
    key, image, predictor, a, b, _, rng = _bilinear_instance(2, 4, 4, 0.5, 1)
    state = rng.getstate()
    calls = []
    with pytest.raises(ValueError, match="epsilon must be positive"):
        trace_invert(key, image, predictor, float("nan"), rng)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        bilinear_invert(key, image, predictor, a, b, float("nan"), rng)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        goldreich_levin_f2(calls.append, 8, float("nan"), rng)
    assert predictor.query_count == 0 and calls == [] and rng.getstate() == state


@pytest.mark.parametrize("epsilon", [float("nan"), 0.0, -0.5])
@pytest.mark.parametrize("k", [3, 9])
def test_exhaustive_decode_rejects_nonpositive_epsilon(monkeypatch, epsilon, k):
    """An epsilon that is not positive is no advantage: the exact path (3^3
    points) and the sampled one (3^9 points, above an exact domain of 3^3)
    both raise before any oracle call or draw."""
    monkeypatch.setattr(hardcore, "_EXACT_DOMAIN", 3**3)
    rng = Random(5)
    state = rng.getstate()
    calls = []
    oracle = linear_oracle((1, 2, 0, 1, 1, 0, 2, 0, 1)[:k], 3)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        gl_decode_exhaustive(lambda x: calls.append(x) or oracle(x), k, 3, epsilon, 50, rng)
    assert calls == [] and rng.getstate() == state


def test_bilinear_invert_rejects_zero_predicate_vectors():
    rng = Random(30)
    key = keygen(2, 4, delta=4, rng=rng)
    image = evaluate(key, identity(4))
    predictor = Predictor(lambda c: 0, 0.5, 2)
    with pytest.raises(ValueError):
        bilinear_invert(key, image, predictor, (0, 0, 0, 0), (1, 0, 0, 0), 0.5, rng)


def test_bilinear_invert_budget_surfaced():
    rng = Random(31)
    key = keygen(2, 4, delta=4, rng=rng)
    m0 = random_invertible(4, 2, rng)
    image = evaluate(key, m0)
    a, b = (1, 0, 0, 0), (0, 1, 0, 0)
    predictor = make_noisy_predictor(make_bilinear_truth(m0, a, b, 2), 0.5, 2, rng)
    stats = {}
    got = bilinear_invert(
        key, image, predictor, a, b, 0.5, rng, assignment_budget=0, stats=stats
    )
    assert got is None and stats["budget_exhausted"]


# -- per-query work against the per-query references ----------------------------


def _recording_predictor(truth, epsilon, q, rng):
    """A noisy predictor and the list of the contexts it evaluated, in order,
    transforms included."""
    seen = []

    def record(ctx):
        seen.append((ctx.image, ctx.basis, ctx.left, ctx.right))
        return truth(ctx)

    return make_noisy_predictor(record, epsilon, q, rng), seen


@given(st.sampled_from([(2, 2), (3, 2), (5, 2), (2, 3)]), st.sampled_from([0.2, 0.5]), st.integers(0, 2**32))
@settings(max_examples=12)
def test_trace_invert_matches_reference(qn, epsilon, seed):
    """Same contexts in order, same result, same stats and the same next rng
    draw as the reduction with a fresh rank and transform_image per query."""
    q, n = qn
    epsilon = min(epsilon, 1 - 1 / q)
    rng = Random(seed)
    key = keygen(q, n, delta=2, rng=rng)
    m0 = random_invertible(n, q, rng)
    image = evaluate(key, m0)
    outcomes = []
    for invert, truth in [
        (trace_invert, make_trace_truth(m0, q)),
        (reference_trace_invert, reference_trace_truth(m0, q)),
    ]:
        r = Random(seed + 1)
        predictor, seen = _recording_predictor(truth, epsilon, q, r)
        stats = {}
        got = invert(key, image, predictor, epsilon, r, rounds=2, stats=stats)
        outcomes.append((got, stats, seen, predictor.query_count, r.random()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][2]  # the predictor was asked


@pytest.mark.parametrize("q, n, epsilon, seeds", [(2, 4, 0.5, range(3)), (2, 4, 0.2, range(3)), (3, 3, 2 / 3, range(2))])
def test_bilinear_invert_queries_match_reference(q, n, epsilon, seeds):
    """Same contexts in order, same result, t_queries and next rng draw as the
    reduction with transform_image and mat_vecs per query.  The reference's
    assignments_tried counts its own matcher's permutations, so it is not
    compared."""
    a = (1,) + (0,) * (n - 1)
    b = (0, 1) + (0,) * (n - 2)
    for seed in seeds:
        rng = Random(seed)
        key = keygen(q, n, delta=4, rng=rng)
        m0 = random_invertible(n, q, rng)
        image = evaluate(key, m0)
        outcomes = []
        for invert, truth in [
            (bilinear_invert, make_bilinear_truth(m0, a, b, q)),
            (reference_bilinear_invert, reference_bilinear_truth(m0, a, b, q)),
        ]:
            r = Random(seed + 1)
            predictor, seen = _recording_predictor(truth, epsilon, q, r)
            stats = {}
            got = invert(key, image, predictor, a, b, epsilon, r, stats=stats)
            outcomes.append((got, stats["t_queries"], seen, r.random()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] > 0
