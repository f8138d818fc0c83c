from collections import Counter
from random import Random

from hypothesis import settings, strategies as st

from mvowf.field import enumerate_vectors, rank, scalar_inv, solve_linear
from mvowf.graphs import SimpleGraph
from mvowf.owf import BudgetExceededError

# One profile for the whole suite: no per-example deadline, since the shared
# hosts the suite runs on stall single examples past the 200 ms default.
settings.register_profile("mvowf", deadline=None)
settings.load_profile("mvowf")


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


# -- reference searches: the matching engine and the GL_n enumeration as they
# were before field.Echelon, re-reducing from scratch at every node


def reference_enumerate_invertible(n, q):
    """Every element of GL_n(F_q), one full rank computation per candidate prefix."""
    all_rows = list(enumerate_vectors(n, q))

    def build(prefix):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        r = len(prefix)
        for row in all_rows:
            if rank(tuple(prefix) + (row,), q) == r + 1:
                yield from build(prefix + [row])

    yield from build([])


def reference_iter_matchings(
    src, dst, q, n, node_budget=None, enumerate_completions=True, stats=None
):
    """The matching search with per-node rescans; same yields and node counts.

    When the search runs to its end, stats["nodes"] holds the nodes it charged.
    """
    src_count = Counter(src)
    dst_count = Counter(dst)
    if sum(src_count.values()) != sum(dst_count.values()):
        return
    src_vals = list(dict.fromkeys(src))
    by_mult = {}
    for w in sorted(dst_count):
        by_mult.setdefault(dst_count[w], []).append(w)

    nodes = 0
    used = set()
    pairs = []
    # echelon rows (pivot col, v-part, w-part): each row asserts M*vpart = wpart
    pivots = []
    # separate echelon over the w-parts of pivots: collapse means M singular
    img_pivots = []

    def charge():
        nonlocal nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetExceededError(f"matching search exceeded {node_budget} nodes")

    def reduce_pair(v, w):
        vr, wr = list(v), list(w)
        for pcol, pv, pw in pivots:
            f = vr[pcol]
            if f:
                vr = [(x - f * y) % q for x, y in zip(vr, pv)]
                wr = [(x - f * y) % q for x, y in zip(wr, pw)]
        return vr, wr

    def reduce_image(w):
        wr = list(w)
        for pcol, pw in img_pivots:
            f = wr[pcol]
            if f:
                wr = [(x - f * y) % q for x, y in zip(wr, pw)]
        return wr

    def push_pivot(vr, wr):
        wi = reduce_image(wr)
        if not any(wi):
            return False
        pcol = next(i for i, x in enumerate(vr) if x)
        inv = scalar_inv(vr[pcol], q)
        pivots.append((pcol, [(x * inv) % q for x in vr], [(x * inv) % q for x in wr]))
        icol = next(i for i, x in enumerate(wi) if x)
        inv = scalar_inv(wi[icol], q)
        img_pivots.append((icol, [(x * inv) % q for x in wi]))
        return True

    def solve_from_pairs(extra):
        vs = [p[0] for p in pairs] + [p[0] for p in extra]
        ws = [p[1] for p in pairs] + [p[1] for p in extra]
        return solve_linear(vs, ws, q)

    def complete(free_sources):
        if not free_sources:
            yield solve_from_pairs([])
            return

        def choose(idx, extra):
            if idx == len(free_sources):
                yield solve_from_pairs(extra)
                return
            for y in enumerate_vectors(n, q):
                wi = reduce_image(list(y))
                if not any(wi):
                    continue
                charge()
                icol = next(i for i, x in enumerate(wi) if x)
                inv = scalar_inv(wi[icol], q)
                img_pivots.append((icol, [(x * inv) % q for x in wi]))
                yield from choose(idx + 1, extra + [(free_sources[idx], y)])
                img_pivots.pop()
                if not enumerate_completions:
                    return

        yield from choose(0, [])

    def free_basis():
        taken = {pcol for pcol, _, _ in pivots}
        return [tuple(1 if i == j else 0 for i in range(n)) for j in range(n) if j not in taken]

    def forced_images_available(idx):
        claimed = set()
        for v in src_vals[idx:]:
            vr, wneg = reduce_pair(v, (0,) * n)
            if any(vr):
                continue
            forced = tuple((-x) % q for x in wneg)
            if dst_count.get(forced) != src_count[v] or forced in used or forced in claimed:
                return False
            claimed.add(forced)
        return True

    def extend(idx):
        if idx == len(src_vals):
            yield from complete(free_basis())
            return
        v = src_vals[idx]
        mult = src_count[v]
        vr, wneg = reduce_pair(v, (0,) * n)
        if not any(vr):
            forced = tuple((-x) % q for x in wneg)
            if dst_count.get(forced) == mult and forced not in used:
                charge()
                used.add(forced)
                pairs.append((v, forced))
                yield from extend(idx + 1)
                pairs.pop()
                used.remove(forced)
            return
        for w in by_mult.get(mult, []):
            if w in used:
                continue
            charge()
            wr = [(x + y) % q for x, y in zip(w, wneg)]
            if not push_pivot(vr, wr):
                continue
            used.add(w)
            pairs.append((v, w))
            if forced_images_available(idx + 1):
                yield from extend(idx + 1)
            pairs.pop()
            used.remove(w)
            pivots.pop()
            img_pivots.pop()

    yield from extend(0)
    if stats is not None:
        stats["nodes"] = nodes
