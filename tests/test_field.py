"""Field arithmetic and dense linear algebra over F_q."""

import time
from collections import Counter
from itertools import product
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    MODULI,
    matrices,
    reference_complete_basis,
    reference_enumerate_invertible,
    reference_mat_inverse,
    reference_mat_mul,
    reference_mat_vec,
    reference_random_invertible_mapping,
    reference_rank,
    reference_solve_linear,
    reference_solve_linear_invertible,
    vectors,
)
from mvowf import field
from mvowf.field import (
    Echelon,
    EnumerationCapError,
    NoSolutionError,
    SingularMatrixError,
    UnderdeterminedError,
    complete_basis,
    enumerate_invertible,
    enumerate_vectors,
    gl_order,
    identity,
    inner_product,
    invertibility_probability,
    invertibility_probability_limit,
    is_invertible,
    is_invertible_cached,
    mat_inverse,
    mat_mul,
    mat_vec,
    mat_vecs,
    rank,
    random_below,
    random_invertible,
    random_invertible_mapping,
    random_matrix,
    random_vector,
    solve_linear,
    solve_linear_invertible,
    transpose,
    validate_modulus,
)
from mvowf.owf import keygen


def test_inner_product_examples():
    assert inner_product((1, 0), (0, 1), 2) == 0
    assert inner_product((1, 1), (1, 1), 2) == 0
    assert inner_product((1, 2), (2, 2), 3) == 0
    with pytest.raises(ValueError):
        inner_product((1, 0), (1,), 2)


def test_validate_modulus():
    validate_modulus(2)
    validate_modulus(251)
    with pytest.raises(ValueError):
        validate_modulus(4)
    with pytest.raises(ValueError):
        validate_modulus(257)


def test_mat_inverse_examples():
    assert mat_inverse(identity(3), 2) == identity(3)
    involution = ((1, 1), (0, 1))
    assert mat_inverse(involution, 2) == involution
    with pytest.raises(SingularMatrixError):
        mat_inverse(((1, 1), (1, 1)), 2)


@pytest.mark.parametrize("q", [2, 3])
def test_mat_inverse_exhaustive_small(q):
    for m in enumerate_invertible(2, q):
        inv = mat_inverse(m, q)
        assert mat_mul(m, inv, q) == identity(2)
        assert mat_mul(inv, m, q) == identity(2)


def test_mat_inverse_randomized_larger():
    rng = Random(11)
    for q in (2, 3, 5):
        for _ in range(20):
            m = random_invertible(5, q, rng)
            inv = mat_inverse(m, q)
            assert mat_mul(m, inv, q) == identity(5)


def test_rank_examples():
    assert rank(((0, 0), (0, 0)), 2) == 0
    assert rank(identity(4), 2) == 4
    assert rank(((1, 1), (1, 1)), 2) == 1
    for q in MODULI:
        assert rank((), q) == 0


def test_rank_transpose_agrees():
    rng = Random(3)
    for q in (2, 3):
        for _ in range(50):
            m = random_matrix(4, q, rng)
            assert rank(m, q) == rank(transpose(m), q)


def test_solve_linear_examples():
    n = 3
    ws = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    x = solve_linear([(1, 0, 0), (0, 1, 0), (0, 0, 1)], ws, 2)
    for e, w in zip(identity(n), ws):
        assert mat_vec(x, e, 2) == w
    with pytest.raises(NoSolutionError):
        solve_linear([(1, 0), (1, 0)], [(1, 0), (0, 1)], 2)
    with pytest.raises(UnderdeterminedError):
        solve_linear([(1, 0)], [(1, 0)], 2)


@pytest.mark.parametrize("solve", [solve_linear, solve_linear_invertible])
@pytest.mark.parametrize(
    "vs, ws",
    [([(1, 0), (0, 1)], [(1, 0)]), ([(1, 0), (0, 1)], [(1,), (0,)]), ([(1, 0), (0, 1, 1)], [(1, 0), (0, 1)])],
    ids=["counts", "target-length", "source-length"],
)
def test_solvers_reject_mismatched_shapes(solve, vs, ws):
    with pytest.raises(ValueError) as exc:
        solve(vs, ws, 3)
    assert type(exc.value) is ValueError


def test_solve_linear_reproduces_targets():
    rng = Random(7)
    for q in (2, 3):
        for _ in range(30):
            m = random_invertible(4, q, rng)
            vs = [random_vector(4, q, rng) for _ in range(8)]
            if rank(tuple(vs), q) < 4:
                continue
            ws = [mat_vec(m, v, q) for v in vs]
            assert solve_linear(vs, ws, q) == m


@st.composite
def invertible_constraints(draw):
    """(vs, ws, q): some columns of a random invertible X, possibly repeated or combined."""
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 4))
    rng = Random(draw(st.integers(0, 2**32)))
    x = random_invertible(n, q, rng)
    vs = [random_vector(n, q, rng) for _ in range(draw(st.integers(1, n + 2)))]
    return vs, [mat_vec(x, v, q) for v in vs], q


@given(invertible_constraints())
@settings(max_examples=150)
def test_solve_linear_invertible_satisfies_constraints(inputs):
    vs, ws, q = inputs
    x = solve_linear_invertible(vs, ws, q)
    assert is_invertible(x, q)
    assert [mat_vec(x, v, q) for v in vs] == ws


def test_solve_linear_invertible_completes():
    x = solve_linear_invertible([(1, 0, 0)], [(0, 1, 0)], 2)
    assert rank(x, 2) == 3
    assert mat_vec(x, (1, 0, 0), 2) == (0, 1, 0)
    with pytest.raises(NoSolutionError):
        # independent sources, equal images: forces a singular map
        solve_linear_invertible([(1, 0), (0, 1)], [(1, 1), (1, 1)], 2)
    with pytest.raises(NoSolutionError):
        # underdetermined, but v_2 = 2 v_1 and w_2 != 2 w_1
        solve_linear_invertible([(1, 0, 0), (2, 0, 0)], [(0, 1, 0), (0, 1, 0)], 3)
    with pytest.raises(NoSolutionError):
        # underdetermined, independent sources with dependent images
        solve_linear_invertible([(1, 0, 0), (0, 1, 0)], [(0, 1, 0), (0, 2, 0)], 3)


def test_solve_linear_invertible_completion_is_polynomial():
    # the completion tries unit vectors only: at q = 251, n = 6 a scan of the
    # q^n candidate images for the first one outside the span would not end
    units = identity(6)
    expected = transpose((units[1], units[2], units[3], units[5], units[4], units[0]))
    assert reference_solve_linear_invertible(units[:3], units[1:4], 2) == expected
    start = time.perf_counter()
    for q in (2, 251):
        assert solve_linear_invertible(units[:3], units[1:4], q) == expected
    assert time.perf_counter() - start < 1.0


# one matrix per modulus with an entry outside [0, q): read mod q, the q = 2
# one is singular, and at q = 3 the entry 3 has no inverse
OUT_OF_RANGE = {2: ((2, 0), (0, 1)), 3: ((3, 0), (0, 1))}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize(
    "call",
    [
        lambda m, q: rank(m, q),
        lambda m, q: is_invertible(m, q),
        lambda m, q: mat_inverse(m, q),
        lambda m, q: solve_linear(m, identity(2), q),
        lambda m, q: solve_linear(identity(2), m, q),
    ],
    ids=["rank", "is_invertible", "mat_inverse", "solve_linear-sources", "solve_linear-targets"],
)
def test_out_of_range_entries_rejected(call, q):
    with pytest.raises(ValueError, match="out of range") as exc:
        call(OUT_OF_RANGE[q], q)
    assert not isinstance(exc.value, SingularMatrixError)
    for bad in ((1, -1), (0, q + 1)):
        with pytest.raises(ValueError, match="out of range"):
            call((bad, (0, 1)), q)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_check_entries_names_what_it_checked(q):
    """Every entry in [0, q) passes, in rows of any shape; any one entry
    outside fails with the caller's noun in the message."""
    field.check_entries([], q, "matrix")
    field.check_entries([(), tuple(range(q)), (q - 1,) * 7], q, "matrix")
    for bad in (-1, q, 2 * q, q + 0.5):
        with pytest.raises(ValueError) as exc:
            field.check_entries([(0, 1), (1, bad, 0)], q, "image")
        assert str(exc.value) == f"image entry out of range for q = {q}"


def test_random_invertible_gl1_f2():
    rng = Random(0)
    assert all(random_invertible(1, 2, rng) == ((1,),) for _ in range(20))


def test_random_invertible_uniform_over_gl2_f2():
    """|GL_2(F_2)| = 6 by enumeration; each element appears ~1/6 of the time."""
    assert sum(1 for _ in enumerate_invertible(2, 2)) == 6
    rng = Random(42)
    counts = Counter(random_invertible(2, 2, rng) for _ in range(10_000))
    assert set(counts) == set(enumerate_invertible(2, 2))
    for freq in counts.values():
        assert abs(freq / 10_000 - 1 / 6) < 0.02


def test_rejection_acceptance_rate_matches_alpha():
    """Fraction of uniform 10x10 F_2 matrices that are invertible."""
    rng = Random(9)
    hits = sum(rank(random_matrix(10, 2, rng), 2) == 10 for _ in range(10_000))
    assert abs(hits / 10_000 - invertibility_probability(10, 2)) < 0.02
    assert abs(invertibility_probability(10, 2) - 0.2891) < 0.0005


def test_invertibility_probability_values():
    assert invertibility_probability(2, 2) == pytest.approx(6 / 16)
    assert invertibility_probability_limit(2) == pytest.approx(0.288788, abs=1e-6)


def test_random_invertible_mapping_stabilizer_uniform():
    """Enumerate GL_2(F_2): exactly {I, [[1,1],[0,1]]} fix e1."""
    e1 = (1, 0)
    stabilizer = [a for a in enumerate_invertible(2, 2) if mat_vec(a, e1, 2) == e1]
    assert sorted(stabilizer) == sorted([identity(2), ((1, 1), (0, 1))])
    rng = Random(4)
    counts = Counter(random_invertible_mapping(e1, e1, 2, rng) for _ in range(4000))
    assert set(counts) == set(stabilizer)
    for freq in counts.values():
        assert abs(freq / 4000 - 0.5) < 0.05


def test_random_invertible_mapping_uniform_over_coset_q3():
    """Enumerate GL_2(F_3): the solution set {A : A u = w} has 6 elements."""
    u, w = (1, 2), (2, 1)
    coset = [a for a in enumerate_invertible(2, 3) if mat_vec(a, u, 3) == w]
    assert len(coset) == 6
    rng = Random(19)
    counts = Counter(random_invertible_mapping(u, w, 3, rng) for _ in range(6000))
    assert set(counts) == set(coset)
    for freq in counts.values():
        assert abs(freq / 6000 - 1 / 6) < 0.03


def test_random_invertible_mapping_postcondition():
    rng = Random(8)
    for q in (2, 3):
        for _ in range(50):
            n = rng.randrange(2, 5)
            u = random_vector(n, q, rng)
            w = random_vector(n, q, rng)
            if not any(u) or not any(w):
                continue
            a = random_invertible_mapping(u, w, q, rng)
            assert mat_vec(a, u, q) == w
            assert is_invertible(a, q)
    with pytest.raises(ValueError):
        random_invertible_mapping((0, 0), (1, 0), 2, rng)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5]).flatmap(
    lambda q: st.integers(1, 7 if q == 2 else 5).flatmap(
        lambda n: st.tuples(st.just(q), vectors(q, n), vectors(q, n), st.integers(0, 2**32))
    )
))
def test_random_invertible_mapping_matches_reference(case):
    """Equal rng states give equal matrices and leave equal rng states.  Each
    q has n on both sides of the row-table bound (2^7, 3^4 and 5^3 vectors
    lie above it), so both forms of the basis products are compared."""
    q, u, w, seed = case
    assume(any(u) and any(w))
    fast, slow = Random(seed), Random(seed)
    assert random_invertible_mapping(u, w, q, fast) == reference_random_invertible_mapping(
        u, w, q, slow
    )
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize(
    "q, u", [(2, (1, 0, 1, 1)), (2, (0, 0, 0, 0, 1, 1)), (3, (2, 1, 0)), (3, (0, 1)), (5, (3, 4)), (5, (0, 2))]
)
def test_basis_row_tables_match_mat_vecs(q, u):
    """Below the bound the products by P_u and by (P_u^-1)^T are lookups,
    and each gives mat_vecs for every vector of F_q^n."""
    n = len(u)
    assert q**n <= field._ROW_TABLE_BOUND
    p = complete_basis([u], n, q)
    p_inv_t = transpose(mat_inverse(p, q))
    times_p, times_p_inv_t = field._basis_with_inverse_transpose(u, q)
    every = list(enumerate_vectors(n, q))
    assert list(times_p(every)) == mat_vecs(p, every, q)
    assert list(times_p_inv_t(every)) == mat_vecs(p_inv_t, every, q)


@pytest.mark.parametrize("u, w", [((1, 0), (1, 0, 0)), ((1, 0, 0), (1, 0))])
def test_random_invertible_mapping_rejects_length_mismatch(u, w):
    """A u and w of different lengths have no square A with A u = w: they
    raise before any draw."""
    rng = Random(3)
    state = rng.getstate()
    with pytest.raises(ValueError, match="length mismatch"):
        random_invertible_mapping(u, w, 2, rng)
    assert rng.getstate() == state


@pytest.mark.parametrize(
    "q, u, w", [(2, (2, 1), (1, 0)), (2, (1, 0), (1, -1)), (3, (1, 0, 3), (1, 1, 1)), (5, (1, 1), (5, 0))]
)
def test_random_invertible_mapping_rejects_entries_out_of_range(q, u, w):
    """Below the row-table bound an entry outside [0, q) in u or w raises
    ValueError, not the KeyError of a missing table row, before any draw."""
    assert q ** len(u) <= field._ROW_TABLE_BOUND
    rng = Random(3)
    state = rng.getstate()
    with pytest.raises(ValueError):
        random_invertible_mapping(u, w, q, rng)
    assert rng.getstate() == state


# -- the sampler against Random.randrange -------------------------------------


@given(
    st.one_of(st.sampled_from([1, 2, 3, 5]), st.integers(1, 300)),
    st.integers(0, 40),
    st.integers(0, 2**64),
)
def test_random_below_matches_randrange(bound, count, seed):
    """Equal values, and equal rng states after, for every bound (1 too,
    whose draws still use words) and count."""
    fast, slow = Random(seed), Random(seed)
    assert random_below(bound, count, fast) == tuple(slow.randrange(bound) for _ in range(count))
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("bound", [0, -1, -5])
def test_random_below_rejects_empty_range(bound):
    """A bound below 1 raises ValueError, as randrange does, rather than
    drawing forever; with nothing to draw it returns () and draws nothing."""
    rng = Random(1)
    with pytest.raises(ValueError):
        Random(1).randrange(bound)
    with pytest.raises(ValueError):
        random_below(bound, 1, rng)
    assert random_below(bound, 0, rng) == ()
    assert rng.getstate() == Random(1).getstate()
    with pytest.raises(ValueError):
        keygen(bound, 4, delta=2, seed=1)


def _randrange_vector(n, q, rng):
    return tuple(rng.randrange(q) for _ in range(n))


@given(st.sampled_from([2, 3, 5]), st.integers(1, 5), st.integers(0, 2**64))
@settings(max_examples=60)
def test_draws_match_randrange_copies(q, n, seed):
    """keygen, random_matrix and random_invertible draw what copies of
    them through randrange draw, and leave the rng in the same state."""
    fast, slow = Random(seed), Random(seed)
    key = keygen(q, max(n, 2), delta=3, rng=fast)
    assert key.vectors == tuple(_randrange_vector(key.n, q, slow) for _ in range(key.m))
    assert random_matrix(n, q, fast) == tuple(_randrange_vector(n, q, slow) for _ in range(n))
    m = random_invertible(n, q, fast)
    while True:
        expected = tuple(_randrange_vector(n, q, slow) for _ in range(n))
        if reference_rank(expected, q) == n:
            break
    assert m == expected
    assert fast.getstate() == slow.getstate()


# -- the one-vector solve ------------------------------------------------------


@pytest.mark.parametrize("q, n", [(2, 1), (2, 4), (2, 7), (3, 3), (5, 4), (251, 3)])
def test_solve_vector_matches_inverse(q, n):
    """M^-1 b, read off one single-right-hand-side solve."""
    rng = Random(q * 10 + n)
    for _ in range(60):
        m, b = random_invertible(n, q, rng), random_vector(n, q, rng)
        assert field._solve_vector(m, b, q) == mat_vec(reference_mat_inverse(m, q), b, q)


def test_solve_vector_errors():
    with pytest.raises(SingularMatrixError):
        field._solve_vector(((1, 1), (1, 1)), (0, 1), 2)
    with pytest.raises(SingularMatrixError):
        field._solve_vector(((1, 2), (2, 1)), (1, 1), 3)
    for q in (2, 3):
        with pytest.raises(ValueError, match="out of range"):
            field._solve_vector(((1, 0), (0, 1)), (0, q), q)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_random_invertible_mapping_at_n_1(q):
    """T = (1) has an empty block to rank: the map is w u^-1 and no draw is made."""
    for u, w in product(range(1, q), repeat=2):
        fast, slow = Random(u * q + w), Random(u * q + w)
        before = fast.getstate()
        a = random_invertible_mapping((u,), (w,), q, fast)
        assert a == reference_random_invertible_mapping((u,), (w,), q, slow)
        assert a == ((w * pow(u, -1, q) % q,),)
        assert fast.getstate() == slow.getstate() == before


class _IndexRng:
    """An rng whose getrandbits returns the given values in turn."""

    def __init__(self, values):
        self.values = iter(values)
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return next(self.values)


@pytest.mark.parametrize("q, n", [(2, 3), (2, 4), (3, 3)])
def test_random_invertible_mapping_indices_cover_the_coset(q, n):
    """The q^(n-1) |GL_{n-1}| indices of the one draw give every A with A u = w
    exactly once: distinct, invertible, mapping u to w, and as many as the
    coset has elements, |GL_n| / (q^n - 1).  At n = 1 nothing is drawn."""
    rng = Random(q * 10 + n)
    size = q ** (n - 1) * gl_order(n - 1, q)
    coset_size = gl_order(n, q) // (q**n - 1)
    assert size == coset_size
    for _ in range(2):
        u = w = (0,) * n
        while not any(u) or not any(w):
            u, w = random_vector(n, q, rng), random_vector(n, q, rng)
        stub = _IndexRng(range(size))
        drawn = [random_invertible_mapping(u, w, q, stub) for _ in range(size)]
        assert stub.calls == size
        assert len(set(drawn)) == coset_size
        for a in drawn:
            assert mat_vec(a, u, q) == w and reference_rank(a, q) == n
    # at n = 1 the coset is the one map w u^-1, and the rng is not called
    stub = _IndexRng(())
    assert random_invertible_mapping((1,), (q - 1,), q, stub) == ((q - 1,),)
    assert stub.calls == 0


def test_random_invertible_mapping_builds_no_table_above_the_bound(monkeypatch):
    """GL_4(F_3), GL_3(F_5) and GL_5(F_2) exceed TABLE_BOUND: their draws
    take the rejection loop, and no GL_n table is built for them."""
    table = field._gl_table
    oversized = []

    def guarded(n, q):
        if gl_order(n, q) > field.TABLE_BOUND:
            oversized.append((n, q))
            raise MemoryError(f"GL_{n}(F_{q}) table requested")
        return table(n, q)

    monkeypatch.setattr(field, "_gl_table", guarded)
    field._stabilizer_tables.cache_clear()
    before = table.cache_info()
    rng = Random(7)
    for q, n in [(3, 5), (5, 4), (2, 6)]:
        assert gl_order(n - 1, q) > field.TABLE_BOUND
        u, w = identity(n)[0], (1,) * n
        for _ in range(3):
            a = random_invertible_mapping(u, w, q, rng)
            assert mat_vec(a, u, q) == w and is_invertible(a, q)
    after = table.cache_info()
    assert oversized == []
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


def test_enumerate_invertible_counts():
    assert sum(1 for _ in enumerate_invertible(1, 3)) == 2
    assert sum(1 for _ in enumerate_invertible(2, 3)) == 48
    for n, q in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)]:
        assert sum(1 for _ in enumerate_invertible(n, q)) == gl_order(n, q)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_gl_elements_count_the_group_order(n, q):
    """GL_0(F_q) is the trivial group: its one element is the empty matrix,
    which is_invertible_cached accepts."""
    elements = field.gl_elements(n, q)
    assert len(elements) == gl_order(n, q)
    assert list(enumerate_invertible(n, q)) == list(field._stream_invertible(n, q))
    assert all(is_invertible_cached(m, q) for m in elements)
    if n == 0:
        assert list(elements) == [()]


def test_enumerate_invertible_distinct_and_invertible():
    seen = set()
    for m in enumerate_invertible(2, 3):
        assert m not in seen
        seen.add(m)
        assert is_invertible(m, 3)


@pytest.mark.parametrize("n, q", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 5), (1, 2), (1, 5)])
def test_enumerate_invertible_matches_reference_order(n, q):
    assert list(enumerate_invertible(n, q)) == list(reference_enumerate_invertible(n, q))


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        next(enumerate_invertible(10, 5))


def test_cap_is_checked_after_the_table_is_built(monkeypatch):
    table = field.gl_elements(2, 3)
    assert type(table) is tuple and field.gl_elements(2, 3) is table  # built once
    monkeypatch.setenv("MVOWF_ENUM_CAP", str(3**4 - 1))
    with pytest.raises(EnumerationCapError):
        field.gl_elements(2, 3)
    with pytest.raises(EnumerationCapError):
        next(enumerate_invertible(2, 3))
    monkeypatch.setenv("MVOWF_ENUM_CAP", str(3**4))
    assert list(enumerate_invertible(2, 3)) == list(table)


@pytest.mark.parametrize("n, q", [(2, 3), (3, 2), (2, 5)])
def test_groups_above_the_table_bound_stream(monkeypatch, n, q):
    monkeypatch.setattr(field, "TABLE_BOUND", gl_order(n, q) - 1)
    streamed = field.gl_elements(n, q)
    assert type(streamed) is not tuple
    assert list(streamed) == list(reference_enumerate_invertible(n, q))
    assert field.gl_elements(n, q) is not streamed
    assert list(enumerate_invertible(n, q)) == list(reference_enumerate_invertible(n, q))


def test_complete_basis():
    p = complete_basis([(1, 1, 0)], 3, 2)
    assert rank(p, 2) == 3
    assert tuple(row[0] for row in p) == (1, 1, 0)


@st.composite
def matrix_pairs(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**32))
    rng = Random(seed)
    return random_invertible(n, q, rng), random_invertible(n, q, rng), q


@given(matrix_pairs())
@settings(max_examples=60, deadline=None)
def test_product_inverse_property(pair):
    a, b, q = pair
    assert mat_inverse(mat_mul(a, b, q), q) == mat_mul(mat_inverse(b, q), mat_inverse(a, q), q)


@given(st.integers(0, 2**32), st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_rank_bounds_property(seed, q):
    rng = Random(seed)
    m = random_matrix(3, q, rng)
    r = rank(m, q)
    assert 0 <= r <= 3
    assert (r == 3) == is_invertible(m, q)


def _base_q_digits(i, n, q):
    """The n base-q digits of i, most significant first."""
    digits = []
    for _ in range(n):
        i, d = divmod(i, q)
        digits.append(d)
    return tuple(reversed(digits))


def test_enumerate_vectors_lexicographic():
    """F_q^n in lexicographic order is the count 0 .. q^n - 1 in base q;
    n = 0 gives the one empty vector."""
    for q in (2, 3, 5):
        for n in range(6):
            expected = [_base_q_digits(i, n, q) for i in range(q**n)]
            assert list(enumerate_vectors(n, q)) == expected, (n, q)


# -- the batched kernel against the per-vector reference ---------------------


@st.composite
def kernel_inputs(draw):
    """(M, vs, q): M is k x n with k != n allowed, n up to 16, vs possibly empty."""
    q = draw(st.sampled_from(MODULI))
    k, n = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    m = draw(matrices(q, k, n))
    vs = draw(st.lists(vectors(q, n), max_size=12))
    return m, vs, q


@given(kernel_inputs())
@settings(max_examples=300, deadline=None)
def test_mat_vecs_matches_reference(inputs):
    m, vs, q = inputs
    expected = [reference_mat_vec(m, v, q) for v in vs]
    assert mat_vecs(m, vs, q) == expected
    assert [mat_vec(m, v, q) for v in vs] == expected


@given(st.sampled_from(MODULI), st.integers(1, 16), st.integers(1, 16), st.integers(1, 16), st.data())
@settings(max_examples=150, deadline=None)
def test_mat_mul_matches_reference(q, k, n, p, data):
    a = data.draw(matrices(q, k, n))
    b = data.draw(matrices(q, n, p))
    assert mat_mul(a, b, q) == reference_mat_mul(a, b, q)


@pytest.mark.parametrize("q", MODULI)
def test_mat_vecs_lane_bound(q):
    # every lane reaches its largest value n (q-1)^2 without carrying
    for k, n in ((1, 16), (16, 16), (5, 3)):
        m = ((q - 1,) * n,) * k
        vs = [(q - 1,) * n, (0,) * n]
        assert mat_vecs(m, vs, q) == [reference_mat_vec(m, v, q) for v in vs]


def test_mat_vecs_empty_batch_and_mismatch():
    assert mat_vecs(identity(3), [], 5) == []
    for q in (2, 3):
        # a matrix with no rows maps every vector, of any length, to ()
        assert mat_vecs((), [(1, 0), (0, 1, 1)], q) == [(), ()]
        assert mat_vecs((), [], q) == []
    for q in (2, 3):
        with pytest.raises(ValueError):
            mat_vecs(identity(3), [(1, 0, 0), (1, 0)], q)
        with pytest.raises(ValueError):
            mat_vec(identity(2), (1, 0, 0), q)
        with pytest.raises(ValueError):
            mat_mul(identity(2), identity(3), q)


def test_mat_vecs_rejects_matrix_entries_out_of_range_at_q2():
    # at q = 2 packing M's rows checks every entry; at q > 2 nothing is checked
    for bad in ((1, 2), (0, -1)):
        with pytest.raises(ValueError, match="out of range"):
            mat_vecs((bad, (0, 1)), [(1, 0)], 2)
        with pytest.raises(ValueError, match="out of range"):
            mat_mul((bad, (0, 1)), identity(2), 2)


# -- the incremental echelon --------------------------------------------------


@given(st.sampled_from(MODULI), st.integers(1, 6), st.integers(0, 8), st.data())
@settings(max_examples=200)
def test_echelon_rank_and_undo(q, n, k, data):
    m = data.draw(matrices(q, k, n)) if k else ()
    echelon = Echelon(q, n)
    states = [list(echelon.pivots)]
    for row in m:
        before = list(echelon.pivots)
        if echelon.push(echelon.pack(row)):
            states.append(list(echelon.pivots))
        else:
            assert echelon.pivots == before  # a dependent row changes nothing
    assert len(echelon) == (reference_rank(m, q) if m else 0)
    assert sorted(echelon.columns()) == sorted(set(echelon.columns()))
    while states:
        assert echelon.pivots == states.pop()
        if states:
            echelon.pop()


@given(st.sampled_from([2, 3, 5]), st.integers(1, 5), st.data())
@settings(max_examples=200)
def test_echelon_back_substitute_matches_reference(q, n, data):
    """X with X v = w for every pushed row (v | w), for any k >= 1 carried coordinates."""
    k = data.draw(st.integers(1, n + 1))
    vs = data.draw(matrices(q, n, n))
    assume(reference_rank(vs, q) == n)
    ws = data.draw(matrices(q, n, k))
    echelon = Echelon(q, n, k)
    for v, w in zip(vs, ws):
        assert echelon.push(echelon.pack(v + w))
    # X (v_1 ... v_n) = (w_1 ... w_n), the v_i and w_i as columns
    expected = reference_mat_mul(transpose(ws), reference_mat_inverse(transpose(vs), q), q)
    assert echelon.back_substitute() == expected


@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.data())
@settings(max_examples=200)
def test_is_invertible_cached_matches_rank(q, n, data):
    m = data.draw(matrices(q, n, n))
    for _ in range(2):  # the second answer comes from the memo
        assert is_invertible_cached(m, q) == (reference_rank(m, q) == n) == is_invertible(m, q)


def test_is_invertible_cached_keyed_by_modulus():
    m = ((1, 1, 0), (0, 1, 1), (1, 0, 1))  # determinant 2
    assert not is_invertible_cached(m, 2)
    assert is_invertible_cached(m, 3)
    assert not is_invertible_cached(m, 2)
    assert rank(m, 2) == 2 and rank(m, 3) == 3


def test_is_invertible_cached_bad_entry_not_cached():
    bad = ((1, 2), (0, 1))
    size = is_invertible_cached.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="out of range"):
            is_invertible_cached(bad, 2)
    assert is_invertible_cached.cache_info().currsize == size
    assert is_invertible_cached(bad, 3)


def test_is_invertible_takes_lists():
    """The uncached test reads any sequence of rows, lists included."""
    assert is_invertible([[1, 1], [0, 1]], 2)
    assert not is_invertible([[1, 1], [1, 1]], 2)
    assert not is_invertible([[1, 0, 0], [0, 1, 0]], 3)


@pytest.mark.parametrize("q", [2, 3])
def test_echelon_augmented_rows(q):
    # pivots lie in the head; a row whose head reduces to zero is dependent
    # however its tail reads, and the tail follows every row operation
    echelon = Echelon(q, 2, 2)
    assert echelon.push(echelon.pack((1, 1, 1, 0)))
    assert not echelon.push(echelon.pack((1, 1, 0, 1)))
    row = echelon.reduce(echelon.pack((1, 1, 0, 1)))
    assert row < echelon.bound and row != echelon.zero
    assert echelon.tail(row) == Echelon(q, 2).pack(((q - 1) % q, 1))
    assert echelon.reduce(echelon.pack((1, 1, 1, 0))) == echelon.zero
    assert echelon.columns() == [0]
    with pytest.raises(ValueError, match="out of range"):
        echelon.pack((q, 0, 0, 0))


# -- the eliminations against the Gauss-Jordan references ---------------------


def outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as e:  # the exception type is part of the compared behaviour
        return type(e)


@st.composite
def low_rank_matrices(draw, q, k, n):
    """k x n matrices over F_q of rank at most a drawn r, as (k x r)(r x n) products."""
    r = draw(st.integers(0, min(k, n)))
    if r == 0:
        return ((0,) * n,) * k
    return reference_mat_mul(draw(matrices(q, k, r)), draw(matrices(q, r, n)), q)


@st.composite
def linear_systems(draw):
    """(vs, ws, q, n): k x n sources, k in 0..n+2, of drawn rank, with random
    targets (mostly inconsistent when the sources are dependent) or their
    images under a random, possibly singular, X."""
    q = draw(st.sampled_from(MODULI))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n + 2))
    vs = draw(low_rank_matrices(q, k, n))
    if draw(st.booleans()):
        ws = draw(matrices(q, k, n))
    else:
        x = draw(low_rank_matrices(q, n, n))
        ws = tuple(reference_mat_vec(x, v, q) for v in vs)
    return vs, ws, q, n


@given(linear_systems())
@settings(max_examples=500)
def test_eliminations_match_references(system):
    vs, ws, q, n = system
    # the reference indexes the first row, so a matrix with no rows is checked apart
    assert rank(vs, q) == (reference_rank(vs, q) if vs else 0)
    assert outcome(solve_linear, vs, ws, q) == outcome(reference_solve_linear, vs, ws, q)
    assert outcome(complete_basis, vs, n, q) == outcome(reference_complete_basis, vs, n, q)
    # the reference scans all q^n images for each completed column
    if q**n <= 5**6:
        assert outcome(solve_linear_invertible, vs, ws, q) == outcome(
            reference_solve_linear_invertible, vs, ws, q
        )


@given(st.sampled_from(MODULI), st.integers(1, 6), st.data())
@settings(max_examples=300)
def test_mat_inverse_matches_reference(q, n, data):
    m = data.draw(low_rank_matrices(q, n, n))
    assert outcome(mat_inverse, m, q) == outcome(reference_mat_inverse, m, q)
