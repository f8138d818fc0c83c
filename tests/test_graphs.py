"""Graph encoding, witness search, isomorphism extraction."""

import itertools
from random import Random

import pytest

from conftest import random_graph, shuffled_copy
from mvowf.field import identity, is_invertible
from mvowf.graphs import (
    InvalidWitnessError,
    SimpleGraph,
    brute_force_iso,
    classify_vertices,
    decide_isomorphic,
    encode_graph,
    extract_isomorphism,
    is_isomorphism,
    iter_witnesses,
    reduce_pair,
)

TRIANGLE = SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
PATH3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
PATH4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
STAR4 = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])

# the non-permutation triangle witness: columns (0,1,1), (1,0,1), (0,0,1)
TRIANGLE_WITNESS = ((0, 1, 0), (1, 0, 0), (1, 1, 1))


def all_graphs(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(2 ** len(pairs)):
        yield SimpleGraph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def test_graph_validation():
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(2, [(0, 5)])
    g = SimpleGraph.from_edges(3, [(2, 0), (0, 2)])  # normalized, deduplicated
    assert g.edges == frozenset({(0, 2)})


def test_encode_examples():
    assert encode_graph(PATH3, 2) == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (0, 1, 1),
    )
    edgeless = SimpleGraph.from_edges(3, [])
    assert encode_graph(edgeless, 5) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    tri = encode_graph(TRIANGLE, 2)
    weights = sorted(sum(v) for v in tri)
    assert weights == [1, 1, 1, 2, 2, 2]


def test_reduce_pair():
    v, w = reduce_pair(PATH3, PATH3, 2)
    assert w == tuple(sorted(v))
    assert reduce_pair(PATH3, TRIANGLE, 2) is None  # edge counts differ
    assert reduce_pair(PATH3, PATH4, 2) is None


@pytest.mark.parametrize("q", [1, 4, 6, 257])
def test_graph_search_rejects_bad_modulus(q):
    for call in (reduce_pair, decide_isomorphic, lambda g1, g2, q: list(iter_witnesses(g1, g2, q))):
        with pytest.raises(ValueError, match=f"modulus {q} "):
            call(PATH3, PATH3, q)
    # before the sizes are compared
    with pytest.raises(ValueError, match=f"modulus {q} "):
        reduce_pair(PATH3, TRIANGLE, q)


def test_triangle_witness_recovery():
    """The mixed green/red witness recovers the transposition (0 1)."""
    colors = classify_vertices(TRIANGLE_WITNESS, TRIANGLE, 2)
    assert colors == {0: "red", 1: "red", 2: "green"}
    pi = extract_isomorphism(TRIANGLE_WITNESS, TRIANGLE, TRIANGLE, 2)
    assert pi == (1, 0, 2)
    assert is_isomorphism(pi, TRIANGLE, TRIANGLE)


def test_extract_identity_witness():
    assert extract_isomorphism(identity(3), PATH3, PATH3, 2) == (0, 1, 2)
    assert extract_isomorphism(identity(3), PATH3, PATH3, 3) == (0, 1, 2)


def test_extract_rejects_non_witness():
    with pytest.raises(InvalidWitnessError):
        extract_isomorphism(((1, 1, 0), (0, 1, 0), (0, 0, 1)), PATH3, PATH3, 2)
    with pytest.raises(InvalidWitnessError):
        extract_isomorphism(identity(3), PATH3, TRIANGLE, 2)


def test_decide_isomorphic_examples():
    assert decide_isomorphic(PATH4, STAR4, 2) is None
    assert decide_isomorphic(PATH4, STAR4, 3) is None
    assert brute_force_iso(TRIANGLE, PATH3) is None
    assert brute_force_iso(PATH3, PATH3) == (0, 1, 2)  # identity comes first


@pytest.mark.parametrize("q", [2, 3])
def test_decide_isomorphic_empty_graphs(q):
    """The 0 x 0 witness maps the empty V onto the empty W: the empty permutation."""
    empty = SimpleGraph.from_edges(0, [])
    assert decide_isomorphic(empty, empty, q) == ()


def test_relabeled_pair_solution_is_permutation_matrix():
    rng = Random(12)
    g1 = random_graph(5, rng)
    g2, perm = shuffled_copy(g1, rng)
    for q in (2, 3):
        pi = decide_isomorphic(g1, g2, q)
        assert pi is not None
        assert is_isomorphism(pi, g1, g2)


@pytest.mark.parametrize("q", [2, 3])
def test_agreement_with_brute_force(q):
    rng = Random(90 + q)
    for trial in range(40):
        n = rng.randrange(3, 7)
        g1 = random_graph(n, rng)
        if trial % 2 == 0:
            g2, _ = shuffled_copy(g1, rng)
        else:
            g2 = random_graph(n, rng)
        expected = brute_force_iso(g1, g2)
        got = decide_isomorphic(g1, g2, q)
        assert (got is None) == (expected is None)
        if got is not None:
            assert is_isomorphism(got, g1, g2)


def test_q3_witnesses_always_permutation_matrices():
    """Exhaustive over all labeled graph pairs on <= 3 vertices."""
    for n in (2, 3):
        for g1 in all_graphs(n):
            for g2 in all_graphs(n):
                for m in iter_witnesses(g1, g2, 3):
                    for j in range(n):
                        col = tuple(row[j] for row in m)
                        assert sum(1 for e in col if e) == 1 and max(col) == 1


def test_q3_witness_enumeration_matches_gl_scan():
    """Cross-oracle: backtracking witnesses equal a full GL_3(F_3) scan."""
    from mvowf.field import enumerate_invertible, mat_vec

    g1 = PATH3
    g2, _ = shuffled_copy(PATH3, Random(77))
    v, w_sorted = reduce_pair(g1, g2, 3)
    scan = {
        m
        for m in enumerate_invertible(3, 3)
        if tuple(sorted(mat_vec(m, x, 3) for x in v)) == w_sorted
    }
    assert set(iter_witnesses(g1, g2, 3)) == scan
    assert scan  # isomorphic pair must have witnesses


def test_q2_red_vertices_have_unique_green_neighbor():
    """Across many found q=2 witnesses, recovery never trips its alarms."""
    rng = Random(55)
    for _ in range(30):
        n = rng.randrange(3, 6)
        g1 = random_graph(n, rng)
        g2, _ = shuffled_copy(g1, rng)
        for m in itertools.islice(iter_witnesses(g1, g2, 2), 10):
            assert is_invertible(m, 2)
            pi = extract_isomorphism(m, g1, g2, 2)
            assert is_isomorphism(pi, g1, g2)


def test_brute_force_iso_cap():
    big = SimpleGraph.from_edges(9, [])
    with pytest.raises(ValueError):
        brute_force_iso(big, big)


@pytest.mark.parametrize("q", [2, 3])
def test_decide_isomorphic_encodes_each_graph_once(q, monkeypatch):
    """The witness is read off the encoding the search ran on, so each graph
    is encoded once per decision."""
    from mvowf import graphs

    encoded = []

    def counting(g, q):
        encoded.append(g)
        return encode_graph(g, q)

    monkeypatch.setattr(graphs, "encode_graph", counting)
    g2 = SimpleGraph.from_edges(4, [(2, 0), (0, 3), (3, 1)])
    assert is_isomorphism(decide_isomorphic(PATH4, g2, q), PATH4, g2)
    assert encoded == [PATH4, g2]
