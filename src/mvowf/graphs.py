"""Graph isomorphism via the matrix-multiset search.

A graph on n vertices becomes n basis vectors plus one u+v vector per edge;
two graphs are isomorphic exactly when some invertible M maps one vector
multiset onto the other.  For q >= 3 any such M is a permutation matrix; for
q = 2 it may mix vertices and edges, and the green/red recovery procedure
extracts the isomorphism anyway.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .field import Matrix, Vector, identity, mat_vecs, transpose, validate_modulus
from .owf import _refined_colours, iter_matchings

GREEN = "green"
RED = "red"


class InvalidWitnessError(RuntimeError):
    """A claimed witness M*V = W failed a step that should be impossible.

    Raised as an alarm rather than skipped: the recovery procedure's
    existence and uniqueness claims hold for every genuine witness, so
    hitting this indicates a corrupted input or an implementation bug.
    """


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph; edges stored as ordered pairs u < v."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u > v:
                raise ValueError("edges must be stored with u < v")

    @classmethod
    def from_edges(cls, n_vertices: int, edges: Iterable[tuple[int, int]]) -> SimpleGraph:
        normalized = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return cls(n_vertices=n_vertices, edges=normalized)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, u: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == u:
                out.append(b)
            elif b == u:
                out.append(a)
        return sorted(out)


def encode_graph(g: SimpleGraph, q: int) -> tuple[Vector, ...]:
    """Vertex basis vectors in index order, then u+v vectors in edge order."""
    n = g.n_vertices
    vectors = list(identity(n))
    for u, v in sorted(g.edges):
        vectors.append(tuple((1 if j in (u, v) else 0) for j in range(n)))
    return tuple(vectors)


def reduce_pair(
    g1: SimpleGraph, g2: SimpleGraph, q: int
) -> tuple[tuple[Vector, ...], tuple[Vector, ...]] | None:
    """Encode both graphs; None when the sizes already rule out isomorphism.

    Raises ValueError unless q is a prime below 256.
    """
    validate_modulus(q)
    if g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges:
        return None
    return encode_graph(g1, q), tuple(sorted(encode_graph(g2, q)))


def classify_vertices(m: Matrix, g1: SimpleGraph, q: int) -> dict[int, str]:
    """Color each vertex by the weight of its image: 1 green, 2 red."""
    colors = {}
    for u in range(g1.n_vertices):
        weight = sum(1 for row in m if row[u])
        if weight == 1:
            colors[u] = GREEN
        elif weight == 2:
            colors[u] = RED
        else:
            raise InvalidWitnessError(
                f"vertex {u} maps to a vector of weight {weight}, expected 1 or 2"
            )
    return colors


def _basis_index(v: Vector) -> int:
    """Index of the single 1 in a weight-1 0/1 vector."""
    idx = [i for i, e in enumerate(v) if e]
    if len(idx) != 1 or v[idx[0]] != 1:
        raise InvalidWitnessError(f"expected a basis vector, got {v}")
    return idx[0]


def is_isomorphism(pi: tuple[int, ...], g1: SimpleGraph, g2: SimpleGraph) -> bool:
    if sorted(pi) != list(range(g1.n_vertices)):
        return False
    mapped = frozenset((min(pi[u], pi[v]), max(pi[u], pi[v])) for u, v in g1.edges)
    return mapped == g2.edges


def extract_isomorphism(
    m: Matrix, g1: SimpleGraph, g2: SimpleGraph, q: int
) -> tuple[int, ...]:
    """Read the vertex bijection off a witness M with M*V = W.

    For q >= 3 the witness must already be a permutation matrix.  For q = 2
    a green vertex maps straight to a basis vector, while a red vertex u has
    a unique green neighbor v, and M(u+v) names pi(u).  Violations of the
    procedure's guarantees raise InvalidWitnessError.
    """
    pair = reduce_pair(g1, g2, q)
    if pair is None:
        raise InvalidWitnessError("graphs differ in vertex or edge count")
    return _extract(m, g1, g2, q, pair)


def _extract(
    m: Matrix,
    g1: SimpleGraph,
    g2: SimpleGraph,
    q: int,
    pair: tuple[tuple[Vector, ...], tuple[Vector, ...]],
) -> tuple[int, ...]:
    """extract_isomorphism, given the encoding (V, sorted W) of reduce_pair."""
    v_list, w_sorted = pair
    if tuple(sorted(mat_vecs(m, v_list, q))) != w_sorted:
        raise InvalidWitnessError("matrix does not map V onto W")

    n = g1.n_vertices
    pi = [None] * n
    columns = transpose(m)
    if q >= 3:
        for u in range(n):
            pi[u] = _basis_index(columns[u])
    else:
        colors = classify_vertices(m, g1, q)
        for u in range(n):
            if colors[u] == GREEN:
                pi[u] = _basis_index(columns[u])
            else:
                green_nbrs = [v for v in g1.neighbors(u) if colors[v] == GREEN]
                if len(green_nbrs) != 1:
                    raise InvalidWitnessError(
                        f"red vertex {u} has {len(green_nbrs)} green neighbors, expected 1"
                    )
                v = green_nbrs[0]
                image = tuple((a + b) % 2 for a, b in zip(columns[u], columns[v]))
                pi[u] = _basis_index(image)
    pi = tuple(pi)
    if not is_isomorphism(pi, g1, g2):
        raise InvalidWitnessError(f"recovered map {pi} is not an isomorphism")
    return pi


def _witnesses(
    pair: tuple[tuple[Vector, ...], tuple[Vector, ...]], q: int, n: int, node_budget: int | None
) -> Iterator[Matrix]:
    """The matching search over the encoding (V, sorted W), with refined colours."""
    v_list, w_sorted = pair
    return iter_matchings(
        v_list,
        w_sorted,
        q,
        n,
        node_budget=node_budget,
        colours=_refined_colours(v_list, w_sorted, q),
    )


def iter_witnesses(
    g1: SimpleGraph, g2: SimpleGraph, q: int, node_budget: int | None = None
) -> Iterator[Matrix]:
    """Every invertible M mapping the G1 encoding onto the G2 encoding."""
    pair = reduce_pair(g1, g2, q)
    if pair is None:
        return
    yield from _witnesses(pair, q, g1.n_vertices, node_budget)


def decide_isomorphic(
    g1: SimpleGraph, g2: SimpleGraph, q: int, node_budget: int = 10**6
) -> tuple[int, ...] | None:
    """Isomorphism between the graphs, or None; search over matrix witnesses.

    Raises BudgetExceededError when the witness search runs out of nodes, and
    InvalidWitnessError when a found witness defies the recovery procedure
    (impossible for genuine witnesses).  The witness is read off the same
    encoding the search ran on.
    """
    pair = reduce_pair(g1, g2, q)
    if pair is None:
        return None
    for m in _witnesses(pair, q, g1.n_vertices, node_budget):
        return _extract(m, g1, g2, q, pair)
    return None


def brute_force_iso(g1: SimpleGraph, g2: SimpleGraph) -> tuple[int, ...] | None:
    """Reference oracle: try all n! vertex bijections in lexicographic order."""
    if g1.n_vertices > 8:
        raise ValueError("brute force capped at 8 vertices")
    if g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges:
        return None
    for pi in itertools.permutations(range(g1.n_vertices)):
        if is_isomorphism(pi, g1, g2):
            return pi
    return None
