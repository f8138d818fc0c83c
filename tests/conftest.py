from random import Random

from hypothesis import strategies as st

from mvowf.graphs import SimpleGraph


def random_graph(n: int, rng: Random, p: float = 0.5) -> SimpleGraph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return SimpleGraph.from_edges(n, edges)


def relabel(g: SimpleGraph, perm) -> SimpleGraph:
    return SimpleGraph.from_edges(g.n_vertices, [(perm[u], perm[v]) for u, v in g.edges])


def shuffled_copy(g: SimpleGraph, rng: Random) -> tuple[SimpleGraph, list[int]]:
    perm = list(range(g.n_vertices))
    rng.shuffle(perm)
    return relabel(g, perm), perm


# -- reference arithmetic: the per-vector generator expressions that the
# batched kernel field.mat_vecs replaced, kept as the differential oracle


def reference_mat_vec(m, v, q):
    return tuple(sum(r * x for r, x in zip(row, v)) % q for row in m)


def reference_mat_mul(a, b, q):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % q for col in bt) for row in a)


MODULI = (2, 3, 5, 251)


def vectors(q, n):
    """Strategy for vectors of length n over F_q."""
    return st.lists(st.integers(0, q - 1), min_size=n, max_size=n).map(tuple)


def matrices(q, rows, cols):
    """Strategy for rows x cols matrices over F_q, as tuples of row tuples."""
    return st.lists(vectors(q, cols), min_size=rows, max_size=rows).map(tuple)


# -- reference re-check: the per-candidate loop that hardcore._agreements
# replaced, one parity bit at a time


def reference_agreements(candidates, points, answers):
    """Per candidate h, the number of points x with <h, x> mod 2 == answer."""
    packed = [sum(bit << i for i, bit in enumerate(x)) for x in points]
    out = []
    for h in candidates:
        h_int = sum(bit << i for i, bit in enumerate(h))
        out.append(
            sum(((h_int & x).bit_count() & 1) == answers[j] for j, x in enumerate(packed))
        )
    return out
