"""Key generation, evaluation, injectivity machinery, inversion oracles."""

import time
from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    MODULI,
    matrices,
    reference_invert_exhaustive,
    reference_iter_matchings,
    reference_mat_vec,
    reference_refined_colours,
    reference_relations,
    vectors,
)
from mvowf.field import (
    SingularMatrixError,
    enumerate_invertible,
    identity,
    is_invertible,
    mat_inverse,
    mat_mul,
    mat_vec,
    mat_vecs,
    random_invertible,
    random_vector,
    rank,
)
from mvowf.owf import (
    BudgetExceededError,
    OwfImage,
    OwfKey,
    consistent_permutations,
    default_delta,
    evaluate,
    injectivity_experiment,
    invert_backtracking,
    invert_exhaustive,
    is_injective,
    iter_matchings,
    keygen,
    orbit_randomize,
    row_image_table,
    _refined_colours,
    _relations,
    self_reduce,
    transform_image,
)

TRIPLE = OwfKey(q=2, n=2, vectors=((1, 0), (0, 1), (1, 1)))
WEIGHTED = OwfKey(q=2, n=2, vectors=((1, 0), (0, 1), (0, 1), (1, 1), (1, 1), (1, 1)))


def random_injective_key(q, n, rng, delta=None):
    while True:
        key = keygen(q, n, delta=delta, rng=rng)
        if is_injective(key):
            return key


def test_default_delta():
    # 5/ln^2(2) * ln^2(16) = 5 * log2(16)^2 = 80 exactly
    assert default_delta(2, 16) == 80
    assert keygen(2, 16, seed=1).m == 96
    assert keygen(3, 16, delta=4, seed=1).m == 20
    assert default_delta(2, 2) == 5


def test_output_to_input_ratio_tends_to_one():
    """The abstract's claim that f_V has fewer than (1 + eps) times as many
    output as input bits: m / n = 1 + default_delta(q, n) / n, exactly.

    The claim is asymptotic: the ratio falls strictly over n = 10^2 .. 10^7
    and is below 1.01 at n = 10^6, but at desk sizes it is not monotone
    (6.0 at n = 4, 6.625 at n = 8, q = 2).
    """

    def ratio(q, n):
        return Fraction(n + default_delta(q, n), n)

    for q in (2, 3, 5):
        ratios = [ratio(q, 10**e) for e in range(2, 8)]
        assert all(a > b for a, b in zip(ratios, ratios[1:])), q
        assert ratio(q, 10**6) < Fraction(101, 100)
    assert [round(float(ratio(q, 10**6)), 4) for q in (2, 3, 5)] == [1.002, 1.0008, 1.0004]
    assert (ratio(2, 4), ratio(2, 8)) == (6, Fraction(53, 8))


def test_keygen_deterministic():
    k1 = keygen(2, 4, seed=7)
    k2 = keygen(2, 4, seed=7)
    assert k1 == k2
    assert k1.seed == 7
    assert keygen(2, 4, seed=8) != k1


def test_keygen_validates():
    with pytest.raises(ValueError):
        keygen(2, 1, seed=0)
    with pytest.raises(ValueError):
        keygen(2, 4)  # no rng, no seed
    with pytest.raises(ValueError):
        OwfKey(q=4, n=2, vectors=((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        OwfKey(q=2, n=3, vectors=((0, 1, 0), (1, 0, 1)))  # m < n


def test_evaluate_identity_sorts():
    key = keygen(2, 3, delta=5, seed=3)
    img = evaluate(key, identity(3))
    assert img.vectors == tuple(sorted(key.vectors))


def test_evaluate_non_injective_example():
    swap = ((0, 1), (1, 0))
    assert evaluate(TRIPLE, swap) == evaluate(TRIPLE, identity(2))


def test_evaluate_rejects_singular():
    from mvowf.field import SingularMatrixError

    with pytest.raises(SingularMatrixError):
        evaluate(TRIPLE, ((1, 1), (1, 1)))


def test_evaluate_equivariance():
    rng = Random(5)
    key = keygen(2, 3, delta=4, rng=rng)
    for _ in range(20):
        m = random_invertible(3, 2, rng)
        a = random_invertible(3, 2, rng)
        assert transform_image(a, evaluate(key, m), 2) == evaluate(key, mat_mul(a, m, 2))


def test_orbit_symmetry():
    rng = Random(6)
    key = keygen(2, 3, delta=4, rng=rng)
    for _ in range(20):
        m = random_invertible(3, 2, rng)
        b = random_invertible(3, 2, rng)
        key_b = OwfKey(q=2, n=3, vectors=tuple(mat_vec(b, v, 2) for v in key.vectors))
        assert evaluate(key_b, m) == evaluate(key, mat_mul(m, b, 2))


def test_consistent_permutations_full_symmetric():
    found = consistent_permutations(TRIPLE)
    assert found.complete
    assert len(found.witnesses) == 6  # GL_2(F_2) permutes the 3 nonzero vectors freely
    for w in found.witnesses:
        for i, v in enumerate(TRIPLE.vectors):
            assert mat_vec(w.matrix, v, 2) == TRIPLE.vectors[w.pi[i]]


def test_consistent_permutations_multiplicities_pin_identity():
    found = consistent_permutations(WEIGHTED)
    assert found.complete
    assert [w.matrix for w in found.witnesses] == [identity(2)]


def test_consistent_permutations_non_spanning():
    key = OwfKey(q=2, n=2, vectors=((1, 0), (1, 0)))
    found = consistent_permutations(key)
    assert found.complete
    assert sorted(w.matrix for w in found.witnesses) == sorted(
        [identity(2), ((1, 1), (0, 1))]
    )


def test_consistent_permutations_cap():
    key = OwfKey(q=2, n=2, vectors=((1, 0), (0, 1), (1, 1)))
    found = consistent_permutations(key, cap=2)
    assert not found.complete
    assert len(found.witnesses) == 2


def test_consistent_permutations_node_budget():
    key = OwfKey(q=2, n=2, vectors=((1, 0), (0, 1), (1, 1)))
    found = consistent_permutations(key, node_budget=1)
    assert not found.complete


@pytest.mark.parametrize("q", [2, 3])
def test_witness_count_matches_gl_scan(q):
    """Cross-oracle: witness matrices equal {K in GL_2 : K*V = V as multisets}."""
    rng = Random(70 + q)
    gl = list(enumerate_invertible(2, q))
    for _ in range(20):
        key = keygen(q, 2, delta=rng.randrange(0, 4), rng=rng)
        sorted_v = sorted(key.vectors)
        scan = {
            k for k in gl if sorted(mat_vec(k, v, q) for v in key.vectors) == sorted_v
        }
        found = consistent_permutations(key)
        assert found.complete
        assert {w.matrix for w in found.witnesses} == scan


def test_is_injective_examples():
    assert not is_injective(TRIPLE)
    assert is_injective(WEIGHTED)
    assert not is_injective(OwfKey(q=2, n=2, vectors=((1, 0), (1, 0), (1, 0))))


@pytest.mark.parametrize("q", [2, 3])
def test_is_injective_matches_collision_definition(q):
    """Oracle: scan all pairs M != M' in GL_2 for evaluate collisions."""
    rng = Random(40 + q)
    gl = list(enumerate_invertible(2, q))
    for _ in range(25):
        key = keygen(q, 2, delta=rng.randrange(0, 4), rng=rng)
        images = [tuple(sorted(mat_vec(m, v, q) for v in key.vectors)) for m in gl]
        has_collision = len(set(images)) < len(gl)
        assert is_injective(key) == (not has_collision)


def test_invert_backtracking_roundtrip():
    rng = Random(17)
    for _ in range(20):
        key = random_injective_key(2, 3, rng)
        m = random_invertible(3, 2, rng)
        assert invert_backtracking(key, evaluate(key, m)) == m


def test_invert_backtracking_not_in_image():
    key = OwfKey(q=2, n=2, vectors=((1, 0), (0, 1), (1, 1)))
    # zero vector cannot be hit by an invertible matrix from nonzero inputs
    bad = OwfImage(((0, 0), (0, 1), (1, 0)))
    assert invert_backtracking(key, bad) is None


def test_invert_backtracking_non_injective_key_returns_some_preimage():
    rng = Random(23)
    m = random_invertible(2, 2, rng)
    img = evaluate(TRIPLE, m)
    got = invert_backtracking(TRIPLE, img)
    assert got is not None
    assert evaluate(TRIPLE, got) == img


def test_invert_backtracking_budget():
    rng = Random(2)
    key = keygen(2, 4, delta=8, rng=rng)
    img = evaluate(key, random_invertible(4, 2, rng))
    with pytest.raises(BudgetExceededError):
        invert_backtracking(key, img, node_budget=2)


@pytest.mark.parametrize(
    "q, n, delta", [(2, 3, 2), (2, 2, 5), (3, 3, 5), (3, 2, 10), (5, 3, 3), (5, 2, 30)]
)
def test_invert_backtracking_rejects_malformed_image(q, n, delta):
    """An image vector of the wrong length or with an entry outside [0, q)
    raises ValueError, on either side of m <= q^n (where inversion refines
    the colours, and where it does not); an image with the wrong number of
    vectors has no preimage."""
    rng = Random(100 * q + n)
    key = keygen(q, n, delta=delta, rng=rng)
    image = evaluate(key, random_invertible(n, q, rng)).vectors
    for bad in [(q,) + (0,) * (n - 1), (0,) * (n - 1) + (-1,), (1,) * (n - 1), (1,) * (n + 1)]:
        with pytest.raises(ValueError):
            invert_backtracking(key, OwfImage(tuple(sorted(image[1:] + (bad,)))))
    assert invert_backtracking(key, OwfImage(image[1:])) is None
    assert invert_backtracking(key, OwfImage(tuple(sorted(image + image[:1])))) is None


@pytest.mark.parametrize("q", [2, 3])
def test_inverters_agree(q):
    rng = Random(50 + q)
    for _ in range(50):
        key = keygen(q, 2, delta=rng.randrange(0, 4), rng=rng)
        m = random_invertible(2, q, rng)
        img = evaluate(key, m)
        bt = invert_backtracking(key, img)
        ex = invert_exhaustive(key, img)
        assert bt is not None and ex is not None
        assert evaluate(key, bt) == img == evaluate(key, ex)
        if is_injective(key):
            assert bt == ex == m


def test_invert_exhaustive_identity_image():
    img = OwfImage(tuple(sorted(WEIGHTED.vectors)))
    assert invert_exhaustive(WEIGHTED, img) == identity(2)


def test_roundtrip_exhaustive_over_gl2():
    """For an injective key, every matrix in GL_2(F_2) round-trips exactly."""
    for m in enumerate_invertible(2, 2):
        assert invert_backtracking(WEIGHTED, evaluate(WEIGHTED, m)) == m


def test_invert_exhaustive_rejects_random_multiset():
    rng = Random(31)
    key = keygen(2, 2, delta=2, rng=rng)
    while True:
        fake = OwfImage(tuple(sorted(tuple(rng.randrange(2) for _ in range(2)) for _ in range(key.m))))
        if all(evaluate(key, m) != fake for m in enumerate_invertible(2, 2)):
            break
    assert invert_exhaustive(key, fake) is None


# every GL_n(F_q) small enough to scan once per example, in scan order
GL = {(q, n): list(enumerate_invertible(n, q)) for q, n in [(2, 2), (2, 3), (3, 2), (5, 2)]}


@st.composite
def exhaustive_cases(draw):
    """A key of n to n + 3 vectors (short keys are often non-injective) and an
    image: either evaluate at some M, or a random multiset, mostly not an image."""
    q, n = draw(st.sampled_from(sorted(GL)))
    key = OwfKey(q=q, n=n, vectors=tuple(draw(st.lists(vectors(q, n), min_size=n, max_size=n + 3))))
    if draw(st.booleans()):
        image = evaluate(key, draw(st.sampled_from(GL[q, n])))
    else:
        image = OwfImage(tuple(sorted(draw(st.lists(vectors(q, n), min_size=key.m, max_size=key.m)))))
    return key, image


@settings(max_examples=200)
@given(exhaustive_cases())
def test_invert_exhaustive_matches_reference(case):
    """The same matrix as one mat_vecs per candidate: the first preimage in scan order, or None."""
    key, image = case
    assert invert_exhaustive(key, image) == reference_invert_exhaustive(key, image)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_invert_exhaustive_returns_first_of_many_preimages(q):
    """Every image of a key spanned by few vectors has several preimages."""
    key = OwfKey(q=q, n=2, vectors=((1, 0), (0, 1), (1, 1), (0, 0)))
    for m in GL[q, 2][:: len(GL[q, 2]) // 6]:
        image = evaluate(key, m)
        preimages = [g for g in GL[q, 2] if evaluate(key, g) == image]
        assert len(preimages) > 1
        assert invert_exhaustive(key, image) == preimages[0] == reference_invert_exhaustive(key, image)


def test_self_reduce_perfect_inverter_first_try():
    rng = Random(61)
    key = random_injective_key(2, 3, rng)
    m = random_invertible(3, 2, rng)
    img = evaluate(key, m)
    calls = []

    def perfect(k, w):
        calls.append(1)
        return invert_backtracking(k, w)

    assert self_reduce(perfect, key, img, trials=10, rng=rng) == m
    assert len(calls) == 1


def test_self_reduce_always_failing_inverter():
    rng = Random(62)
    key = random_injective_key(2, 3, rng)
    img = evaluate(key, random_invertible(3, 2, rng))
    calls = []

    def failing(k, w):
        calls.append(1)
        return None

    assert self_reduce(failing, key, img, trials=7, rng=rng) is None
    assert len(calls) == 7


def test_self_reduce_crippled_inverter():
    """Base inverter succeeds only when the preimage's top-left entry is 1."""
    rng = Random(63)
    key = random_injective_key(2, 3, rng)

    def crippled(k, w):
        m = invert_backtracking(k, w)
        if m is not None and m[0][0] == 1:
            return m
        return None

    wins = 0
    for _ in range(25):
        # targets the base inverter refuses outright: top-left entry is 0
        while True:
            target = random_invertible(3, 2, rng)
            if target[0][0] == 0:
                break
        img = evaluate(key, target)
        got = self_reduce(crippled, key, img, trials=100, rng=rng)
        if got is not None and evaluate(key, got) == img:
            wins += 1
    assert wins == 25


def test_orbit_randomize_roundtrip():
    rng = Random(64)
    for _ in range(20):
        key = random_injective_key(2, 3, rng)
        m = random_invertible(3, 2, rng)
        img = evaluate(key, m)
        key2, img2, b = orbit_randomize(key, img, rng)
        assert img2 == img
        assert key2.vectors == tuple(mat_vec(b, v, 2) for v in key.vectors)
        m2 = invert_backtracking(key2, img2)
        assert m2 is not None
        recovered = mat_mul(m2, b, 2)
        assert evaluate(key, recovered) == img


def test_injectivity_experiment_deterministic():
    a = injectivity_experiment(2, 3, [0, 2], trials=30, seed=5)
    b = injectivity_experiment(2, 3, [0, 2], trials=30, seed=5)
    assert a == b
    assert all(p.trials == 30 and p.m == 3 + p.delta for p in a)


def test_image_sorted_invariant():
    with pytest.raises(ValueError):
        OwfImage(((1, 0), (0, 1)))


# -- evaluate and transform_image against the per-vector reference -----------


@st.composite
def keys_and_matrices(draw):
    q = draw(st.sampled_from(MODULI))
    n = draw(st.integers(2, 16))
    rng = Random(draw(st.integers(0, 2**32)))
    key = keygen(q, n, delta=draw(st.integers(0, 8)), rng=rng)
    return key, random_invertible(n, q, rng), draw(matrices(q, n, n))


@given(keys_and_matrices())
@settings(max_examples=100, deadline=None)
def test_evaluate_and_transform_image_match_reference(inputs):
    key, m, a = inputs
    q = key.q
    expected = OwfImage(tuple(sorted(reference_mat_vec(m, v, q) for v in key.vectors)))
    assert evaluate(key, m) == expected
    # a is any matrix, singular or not
    assert transform_image(a, expected, q) == OwfImage(
        tuple(sorted(reference_mat_vec(a, w, q) for w in expected.vectors))
    )


@pytest.mark.parametrize(
    "q, bad",
    [(2, ((2, 0), (0, 1))), (2, ((1, 0), (-1, 1))), (3, ((3, 0), (0, 1))), (3, ((1, -1), (0, 1)))],
)
def test_evaluate_rejects_out_of_range_entries(q, bad):
    key = OwfKey(q=q, n=2, vectors=((1, 0), (0, 1), (1, 1)))
    for call in (lambda: evaluate(key, bad), lambda: transform_image(bad, evaluate(key, identity(2)), q)):
        with pytest.raises(ValueError, match="out of range") as exc:
            call()
        assert not isinstance(exc.value, SingularMatrixError)


# -- the row-image table against transform_image and mat_vecs ------------------


@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(1, 9), st.data())
@settings(max_examples=150)
def test_row_image_table_matches_transform_image(q, n, m, data):
    ws = data.draw(st.lists(vectors(q, n), min_size=m, max_size=m))
    image = OwfImage(tuple(sorted(ws)))
    table = row_image_table(ws, q)
    assert len(table) == q**n
    for _ in range(3):
        a = data.draw(matrices(q, data.draw(st.integers(1, 4)), n))  # any shape and rank
        moved = tuple(zip(*map(table.__getitem__, a)))  # A w in the order of ws
        assert moved == tuple(mat_vecs(a, ws, q))
        assert tuple(sorted(moved)) == transform_image(a, image, q).vectors


@pytest.mark.parametrize("q, bad", [(2, (2, 0)), (2, (1, -1)), (3, (3, 0)), (5, (0, 5)), (3, (1, 0, 1))])
def test_row_image_table_lacks_bad_rows(q, bad):
    table = row_image_table(((1, 0), (0, 1), (1, 1)), q)
    assert bad not in table
    with pytest.raises(KeyError):
        table[bad]
    assert table[(1, 1)] == (1, 1, 2 % q)


# -- the matching engine against the per-node-rescan reference ---------------


@st.composite
def matching_searches(draw):
    """(src, dst, q, n, enumerate_completions); dst is src, an image of src, or random."""
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 4))
    rng = Random(draw(st.integers(0, 2**32)))
    src = [random_vector(n, q, rng) for _ in range(draw(st.integers(1, n + 6)))]
    kind = draw(st.sampled_from(["self", "image", "random"]))
    if kind == "self":
        dst = src
    elif kind == "image":
        dst = sorted(mat_vecs(random_invertible(n, q, rng), src, q))
    else:
        dst = [random_vector(n, q, rng) for _ in src]
    return src, dst, q, n, draw(st.booleans())


def _run_search(search, src, dst, q, n, completions, budget, **kwargs):
    """(yields, finished): the matrices yielded before the end or the budget."""
    out = []
    try:
        for m in search(src, dst, q, n, node_budget=budget, enumerate_completions=completions, **kwargs):
            out.append(m)
    except BudgetExceededError:
        return out, False
    return out, True


def _profile(values):
    """How many distinct values occur with each multiplicity."""
    return Counter(Counter(values).values())


@given(matching_searches())
@settings(max_examples=300)
def test_iter_matchings_matches_reference(search):
    src, dst = search[:2]
    if _profile(src) != _profile(dst):
        # no matching exists; the engine's opening check finds that before
        # its first node, where the reference may search a while
        assert _run_search(iter_matchings, *search, 0) == ([], True)
        return
    stats, got_stats = {}, {}
    expected = _run_search(reference_iter_matchings, *search, 3000, stats=stats)
    assert _run_search(iter_matchings, *search, 3000, stats=got_stats) == expected
    if expected[1]:
        # same node count: the reference's count suffices and one less does not
        nodes = stats["nodes"]
        assert got_stats["nodes"] == nodes
        assert _run_search(iter_matchings, *search, nodes) == expected
        if nodes:
            assert not _run_search(iter_matchings, *search, nodes - 1)[1]
    else:
        assert got_stats["nodes"] == 3001  # the node that broke the budget


def _colouring(data, src, dst, q, n, yields):
    """(colours, (src_colour, dst_colour), invariant): what the engine is
    passed, and the colour of each value.  The colours are the refined
    labels the engine's callers pass (invariant: every matching keeps them),
    linear, v -> Hv and w -> Gw, or arbitrary dicts; the last two are often
    consistent with one of the yields K when there are any."""
    kind = data.draw(st.sampled_from(["refined", "linear", "arbitrary"]))
    if kind == "refined":
        labels = _refined_colours(src, dst, q)
        # no dst labels when the classes differ: then nothing matches, and
        # no dst colour equals a src colour
        return labels, (labels.src.get, (labels.dst or {}).get), True
    rng = Random(data.draw(st.integers(0, 2**32)))
    k = data.draw(st.sampled_from(yields)) if yields and data.draw(st.booleans()) else None
    if kind == "linear":
        h = tuple(random_vector(n, q, rng) for _ in range(data.draw(st.integers(1, n))))
        # G = H K^-1 gives K v the colour of v
        g = mat_mul(h, mat_inverse(k, q), q) if k else tuple(random_vector(n, q, rng) for _ in h)
        colours = (lambda v: mat_vec(h, v, q)), (lambda w: mat_vec(g, w, q))
        return colours, colours, False
    spread = data.draw(st.integers(1, 3))
    src_colour = {v: rng.randrange(spread) for v in src}
    dst_colour = {w: rng.randrange(spread) for w in dst}
    if k:
        dst_colour.update(zip(mat_vecs(k, src, q), map(src_colour.get, src)))
        # swapping the colours of two equally frequent values keeps the label
        # profile, so the search runs; only arbitrary colours can then fail a
        # forced image on its colour alone
        count = Counter(dst)
        x = rng.choice(dst)
        y = rng.choice([w for w in dst if count[w] == count[x]])
        dst_colour[x], dst_colour[y] = dst_colour[y], dst_colour[x]
    colours = src_colour.__getitem__, dst_colour.__getitem__
    return colours, colours, False


@given(matching_searches(), st.data())
@settings(max_examples=300)
def test_colours_filter_reference_yields(search, data):
    """Coloured yields are the reference's, filtered to colour-keeping M, in
    order, and the coloured search visits no more nodes.  The refined
    colours keep every yield."""
    src, dst, q, n, _ = search
    stats, got_stats = {}, {}
    plain, finished = _run_search(reference_iter_matchings, *search, 3000, stats=stats)
    colours, (src_colour, dst_colour), invariant = _colouring(data, src, dst, q, n, plain)
    keep = [m for m in plain if all(src_colour(v) == dst_colour(mat_vec(m, v, q)) for v in src)]
    if invariant:
        assert keep == plain
    got, got_finished = _run_search(iter_matchings, *search, 3000, colours=colours, stats=got_stats)
    if finished:
        assert got_finished and got == keep
        assert got_stats["nodes"] <= stats["nodes"]
    else:
        # the coloured tree is a subtree, searched in the same order
        assert got[: len(keep)] == keep


@given(matching_searches())
@settings(max_examples=300)
def test_refined_labels_search_matches_reference_colours(search):
    """The engine on the refinement's labels, as its callers run it, against
    the engine on the reference refinement's colour callables, labelled
    (multiplicity, colour): the same yields in the same order, the same
    node count, and a budget one short stops both at the same node."""
    src, dst, q = search[:3]
    labelled = _refined_colours(src, dst, q)
    coloured = reference_refined_colours(src, dst, q)
    stats, got_stats = {}, {}
    expected = _run_search(iter_matchings, *search, 3000, colours=coloured, stats=stats)
    assert _run_search(iter_matchings, *search, 3000, colours=labelled, stats=got_stats) == expected
    assert got_stats["nodes"] == stats["nodes"]
    nodes = stats["nodes"]
    if expected[1] and nodes:
        stats, got_stats = {}, {}
        short = _run_search(iter_matchings, *search, nodes - 1, colours=coloured, stats=stats)
        assert not short[1]
        assert _run_search(iter_matchings, *search, nodes - 1, colours=labelled, stats=got_stats) == short
        assert got_stats["nodes"] == stats["nodes"] == nodes


def test_stats_written_when_closed():
    key = keygen(2, 4, delta=4, rng=Random(12))
    stats = {}
    search = iter_matchings(key.vectors, key.vectors, 2, 4, stats=stats)
    next(search)
    search.close()
    assert stats["nodes"] > 0


def test_single_completion_is_polynomial():
    # with enumerate_completions=False the free image is found among unit
    # vectors: at q = 251, n = 6 a scan of the q^n images would not end
    units = identity(6)
    src, dst = units[:3], units[1:4]
    assert _run_search(iter_matchings, src, dst, 2, 6, False, None) == _run_search(
        reference_iter_matchings, src, dst, 2, 6, False, None
    )
    start = time.perf_counter()
    m = next(iter_matchings(src, dst, 251, 6, enumerate_completions=False))
    assert time.perf_counter() - start < 1.0
    assert is_invertible(m, 251)
    assert sorted(mat_vecs(m, src, 251)) == sorted(dst)


# -- the refined colours: invariance, and what the callers gain ----------------


@given(st.sampled_from([2, 3, 5]), st.integers(2, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_refined_colours_are_gl_invariant(q, n, data):
    """For a V with repeated values and any M in GL_n, v and M v get one
    colour in the joint colouring of V and M*V."""
    distinct = data.draw(st.lists(vectors(q, n), min_size=1, max_size=2 * n + 4, unique=True))
    repeats = data.draw(st.lists(st.sampled_from(distinct), max_size=6))
    src = tuple(data.draw(st.permutations(distinct + repeats)))
    m = random_invertible(n, q, Random(data.draw(st.integers(0, 2**32))))
    images = mat_vecs(m, src, q)
    labels = _refined_colours(src, tuple(sorted(images)), q)
    assert all(labels.src[v] == labels.dst[w] for v, w in zip(src, images))


def _brute_force_relations(values, q):
    """For each v_i, every (j, l, beta) with v_i = v_j + beta v_l; at q = 2
    the pairs j < l of values other than v_i (the zero-sum triples)."""
    k = len(values)
    if q == 2:
        candidates = [(j, l, 1) for j in range(k) for l in range(j + 1, k)]
    else:
        candidates = [(j, l, beta) for j in range(k) for l in range(k) for beta in range(1, q)]
    out = []
    for i, v in enumerate(values):
        out.append(
            sorted(
                (j, l, beta)
                for j, l, beta in candidates
                if (q > 2 or i not in (j, l))
                and v == tuple((a + beta * b) % q for a, b in zip(values[j], values[l]))
            )
        )
    return out


@given(st.sampled_from([2, 3, 5]), st.integers(2, 4), st.booleans(), st.data())
@settings(max_examples=200)
def test_relations_match_reference_and_scan(q, n, zero, data):
    """_relations, one difference per unordered pair, against the reference
    (one lane sum per ordered pair) and a scan over every (j, l, beta), as
    multisets per value; the values sometimes hold the zero vector."""
    values = data.draw(st.lists(vectors(q, n), min_size=1, max_size=2 * n + 6, unique=True))
    if zero and (0,) * n not in values:
        values.insert(data.draw(st.integers(0, len(values))), (0,) * n)
    got = [sorted(r) for r in _relations(values, q)]
    assert got == [sorted(r) for r in reference_relations(values, q)]
    assert got == _brute_force_relations(values, q)


def _partition(colour_of):
    """The classes of equal colour among the keys of colour_of."""
    classes = {}
    for x, c in colour_of.items():
        classes.setdefault(c, set()).add(x)
    return sorted(map(sorted, classes.values()))


@given(st.sampled_from([2, 3, 5]), st.integers(2, 4), st.booleans(), st.data())
@settings(max_examples=300)
def test_refined_colours_partition_matches_reference(q, n, zero, data):
    """The refinement's labels split {(side, value)} into the reference's
    classes, for dst = M*src, for an unrelated dst with the same
    multiplicity profile and for dst = src; dst has no labels exactly when
    the reference's two sides differ in how many values carry some colour."""
    distinct = data.draw(st.lists(vectors(q, n), min_size=1, max_size=2 * n + 4, unique=True))
    if zero and (0,) * n not in distinct:
        distinct.append((0,) * n)
    repeats = data.draw(st.lists(st.sampled_from(distinct), max_size=6))
    src = tuple(data.draw(st.permutations(distinct + repeats)))
    rng = Random(data.draw(st.integers(0, 2**32)))
    kind = data.draw(st.sampled_from(["image", "unrelated", "self"]))
    if kind == "self":
        dst = src
    elif kind == "image":
        dst = tuple(sorted(mat_vecs(random_invertible(n, q, rng), src, q)))
    else:
        # as many distinct values as src, carrying its multiplicities
        k = len(distinct)
        others = data.draw(st.lists(vectors(q, n), min_size=k, max_size=k, unique=True))
        counts = list(Counter(src).values())
        rng.shuffle(counts)
        dst = tuple(sorted(w for w, c in zip(others, counts) for _ in range(c)))
    labels = _refined_colours(src, dst, q)
    src_colour, dst_colour = reference_refined_colours(src, dst, q)
    expected = {(0, v): src_colour(v) for v in src}
    expected.update({(1, w): dst_colour(w) for w in dst})
    differ = Counter(src_colour(v) for v in set(src)) != Counter(dst_colour(w) for w in set(dst))
    assert (labels.dst is None) == differ
    if not differ:
        got = {(0, v): c for v, c in labels.src.items()}
        got.update({(1, w): c for w, c in labels.dst.items()})
        assert _partition(got) == _partition(expected)


# the groups small enough to scan once per example; GL_3(F_3) has 11,232 elements
STABILIZER_GL = {**GL, (3, 3): list(enumerate_invertible(3, 3))}


@given(st.sampled_from(sorted(STABILIZER_GL)), st.data())
@settings(max_examples=120, deadline=None)
def test_is_injective_matches_stabilizer_scan(case, data):
    """is_injective, whose search runs on the refined colours, against the
    exhaustive scan for a K != I in GL_n with K*V = V (short keys are often
    not injective)."""
    q, n = case
    key = OwfKey(q=q, n=n, vectors=tuple(data.draw(st.lists(vectors(q, n), min_size=n, max_size=n + 4))))
    table = row_image_table(key.vectors, q)
    fixed = sorted(key.vectors)
    ident = identity(n)
    only_identity = all(k == ident or sorted(zip(*map(table.__getitem__, k))) != fixed for k in STABILIZER_GL[case])
    assert is_injective(key) == only_identity


@pytest.mark.parametrize("n, seed", [(8, 0), (8, 1), (8, 2), (10, 0), (10, 2), (10, 3)])
def test_planted_inversion_within_small_budget(n, seed):
    """Planted keys of the default length (m = 53 at n = 8, 66 at n = 10):
    on the refined colours each inverts in under 100 nodes, where the
    multiplicity labels alone run past 2 * 10^4."""
    key = keygen(2, n, seed=seed)
    image = evaluate(key, random_invertible(n, 2, Random(seed)))
    m = invert_backtracking(key, image, node_budget=1000)
    assert m is not None and evaluate(key, m) == image
