import functools
import itertools
import math
from collections import Counter
from operator import mul
from random import Random

import numpy as np
from hypothesis import settings, strategies as st

from mvowf.field import (
    NoSolutionError,
    SingularMatrixError,
    TABLE_BOUND,
    UnderdeterminedError,
    enumerate_invertible,
    enumerate_vectors,
    gl_order,
    inner_product,
    invertibility_probability,
    mat_vec,
    mat_vecs,
    random_invertible_mapping,
    rank,
    scalar_inv,
    solve_linear_invertible,
    transpose,
)
from mvowf.graphs import SimpleGraph
from mvowf.hardcore import BilinearContext, _decode
from mvowf.owf import BudgetExceededError, evaluate, transform_image
from mvowf.permstats import projection_family_size, sample_projection_family
from mvowf.wreath import enumerate_wreath, wreath_mul

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


# -- reference eliminations: the Gauss-Jordan loops that field.Echelon
# replaced in rank, mat_inverse and solve_linear, kept as the differential
# oracle, and the completions built on them


def _reference_rows_in_range(rows, q):
    """Rows copied to lists; ValueError when an entry lies outside [0, q)."""
    digits = {a: a for a in range(q)}
    try:
        return [list(map(digits.__getitem__, row)) for row in rows]
    except KeyError as e:
        raise ValueError(f"entry {e.args[0]!r} out of range for q = {q}") from None


def _reference_pack(v):
    x = 0
    for j, e in enumerate(v):
        if e:
            if e != 1:
                raise ValueError(f"entry {e!r} out of range for q = 2")
            x |= 1 << j
    return x


def _reference_unpack(x, n):
    return tuple((x >> j) & 1 for j in range(n))


def _reference_rank_f2(rows):
    pivots = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
    return len(pivots)


def reference_rank(m, q):
    """Row rank by Gaussian elimination."""
    if q == 2:
        return _reference_rank_f2([_reference_pack(row) for row in m])
    work = _reference_rows_in_range(m, q)
    rows, cols = len(work), len(work[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = scalar_inv(work[r][c], q)
        work[r] = [(x * inv) % q for x in work[r]]
        for i in range(rows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % q for x, y in zip(work[i], work[r])]
        r += 1
        if r == rows:
            break
    return r


def reference_mat_inverse(m, q):
    """Inverse by Gauss-Jordan; raises SingularMatrixError when rank < n."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if q == 2:
        # augmented rows packed as one int: low n bits matrix, high n bits identity
        work = [_reference_pack(row) | (1 << (n + i)) for i, row in enumerate(m)]
        r = 0
        for c in range(n):
            piv = next((i for i in range(r, n) if (work[i] >> c) & 1), None)
            if piv is None:
                raise SingularMatrixError("matrix is singular over F_2")
            work[r], work[piv] = work[piv], work[r]
            for i in range(n):
                if i != r and (work[i] >> c) & 1:
                    work[i] ^= work[r]
            r += 1
        return tuple(_reference_unpack(work[i] >> n, n) for i in range(n))
    work = [
        row + [1 if i == j else 0 for j in range(n)]
        for i, row in enumerate(_reference_rows_in_range(m, q))
    ]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if work[i][c]), None)
        if piv is None:
            raise SingularMatrixError(f"matrix is singular over F_{q}")
        work[r], work[piv] = work[piv], work[r]
        inv = scalar_inv(work[r][c], q)
        work[r] = [(x * inv) % q for x in work[r]]
        for i in range(n):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % q for x, y in zip(work[i], work[r])]
        r += 1
    return tuple(tuple(row[n:]) for row in work)


def reference_solve_linear(vs, ws, q):
    """Return the unique n x n matrix X with X v_i = w_i for all i.

    Raises NoSolutionError when the constraints are inconsistent and
    UnderdeterminedError when the v_i do not span F_q^n (no unique X).
    """
    if len(vs) != len(ws):
        raise ValueError("need equally many constraint and target vectors")
    if not vs:
        raise UnderdeterminedError("no constraints")
    n = len(vs[0])
    # eliminate on rows [v_i | w_i]; X e_j = (reduced w of pivot row j)
    work = [
        v + w for v, w in zip(_reference_rows_in_range(vs, q), _reference_rows_in_range(ws, q))
    ]
    pivot_col = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = scalar_inv(work[r][c], q)
        work[r] = [(x * inv) % q for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % q for x, y in zip(work[i], work[r])]
        pivot_col.append(c)
        r += 1
    for i in range(r, len(work)):
        if any(work[i][n:]):
            raise NoSolutionError("inconsistent constraints")
    if r < n:
        raise UnderdeterminedError(f"constraints span only {r} of {n} dimensions")
    # after full-rank RREF the pivot rows read e_c | (column c of X)
    cols = [None] * n
    for i, c in enumerate(pivot_col):
        cols[c] = work[i][n:]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def reference_complete_basis(vectors, n, q):
    """Extend independent vectors to a basis, one rank computation per candidate."""
    basis = list(vectors)
    if basis and reference_rank(tuple(basis), q) != len(basis):
        raise ValueError("input vectors are dependent")
    for j in range(n):
        if len(basis) == n:
            break
        e = tuple(1 if i == j else 0 for i in range(n))
        if reference_rank(tuple(basis) + (e,), q) > len(basis):
            basis.append(e)
    return tuple(tuple(basis[j][i] for j in range(len(basis))) for i in range(n))


def reference_solve_linear_invertible(vs, ws, q):
    """Some invertible X with X v_i = w_i, by rank tests and a scan of all q^n images.

    The sources are completed by the unit vectors off the pivot columns of
    their row space, in ascending order; each gets the lexicographically
    first image outside the span of the images so far.  Column j is a pivot
    column when it raises the rank of the sources cut to columns 0..j.
    """
    try:
        unique = reference_solve_linear(vs, ws, q)
    except UnderdeterminedError:
        pass
    else:
        if reference_rank(unique, q) != len(unique):
            raise NoSolutionError("constraints force a singular map")
        return unique
    n = len(vs[0])
    r = reference_rank(vs, q)
    if reference_rank([v + w for v, w in zip(vs, ws)], q) != r:
        raise NoSolutionError("inconsistent constraints")
    images = list(ws)
    if reference_rank(images, q) != r:
        raise NoSolutionError("constraints force a singular map")
    pivots = [
        j
        for j in range(n)
        if reference_rank([v[: j + 1] for v in vs], q) > reference_rank([v[:j] for v in vs], q)
    ]
    extra_vs = []
    for j in range(n):
        if j in pivots:
            continue
        for y in enumerate_vectors(n, q):
            if reference_rank(images + [y], q) > reference_rank(images, q):
                images.append(y)
                extra_vs.append(tuple(1 if i == j else 0 for i in range(n)))
                break
    return reference_solve_linear(list(vs) + extra_vs, images, q)


def reference_random_invertible_mapping(u, w, q, rng):
    """Uniform invertible A with A u = w, as a0 * s with four matrix products.

    a0 = P_w P_u^-1 maps u to w, and s = P_u T P_u^-1 is a uniform
    stabilizer element of u, for T uniform in GL_n with first column e_1.
    T's first row after the 1 is free and its lower-right block is
    invertible.  When GL_{n-1}(F_q) has at most TABLE_BOUND elements (and
    n >= 2), T is one randrange over the pairs (first row, block):
    reference_stabilizer_parts lists both, and the index splits by divmod
    by the number of blocks; each listed block's rows are T's block's
    columns.  Otherwise T's columns 2..n are drawn entry by entry until T
    has full rank.
    """
    n = len(u)
    p_u = reference_complete_basis([u], n, q)
    p_w = reference_complete_basis([w], n, q)
    p_u_inv = reference_mat_inverse(p_u, q)
    a0 = reference_mat_mul(p_w, p_u_inv, q)
    e1 = tuple(1 if i == 0 else 0 for i in range(n))
    if n > 1 and gl_order(n - 1, q) <= TABLE_BOUND:
        vectors, blocks = reference_stabilizer_parts(n, q)
        first, block = divmod(rng.randrange(len(vectors) * len(blocks)), len(blocks))
        cols = [e1] + [(x, *row) for x, row in zip(vectors[first], blocks[block])]
        t = tuple(tuple(col[i] for col in cols) for i in range(n))
    else:
        while True:
            cols = [e1] + [tuple(rng.randrange(q) for _ in range(n)) for _ in range(n - 1)]
            t = tuple(tuple(col[i] for col in cols) for i in range(n))
            if reference_rank(t, q) == n:
                break
    s = reference_mat_mul(reference_mat_mul(p_u, t, q), p_u_inv, q)
    return reference_mat_mul(a0, s, q)


@functools.lru_cache(maxsize=None)
def reference_stabilizer_parts(n, q):
    """The vectors of F_q^(n-1) and the invertible (n-1) x (n-1) matrices
    (tuples of rows), each in lexicographic order, the matrices found by
    reference_rank among all of them."""
    vectors = list(itertools.product(range(q), repeat=n - 1))
    matrices = itertools.product(vectors, repeat=n - 1)
    return vectors, [m for m in matrices if reference_rank(m, q) == n - 1]


# -- reference decoding: the Goldreich-Levin vote queries one _to_bits tuple
# at a time, and exact scoring of every form by counting its agreements


def reference_gl_sizes(k, epsilon, confidence=0.9):
    """(t, N): the reference points and the votes per coordinate of
    goldreich_levin_f2.

    N is the smallest odd integer at least k (1 - 4 epsilon^2) /
    (4 epsilon^2 delta), the Chebyshev bound for votes right with
    probability 1/2 + epsilon; t is the least t with 2^t - 1 >= N, the
    references masks 1..N read, capped at 16, and N is capped at 2^t - 1.
    """
    delta = max(1e-9, 1.0 - confidence)
    needed = k * max(0.0, 1 - 4 * epsilon * epsilon) / (4 * epsilon * epsilon * delta)
    n_votes = 2 * math.ceil((needed - 1) / 2) + 1
    t = next(t for t in range(1, 17) if 2**t - 1 >= n_votes or t == 16)
    return t, min(2**t - 1, n_votes)


def reference_gl_vote_queries(k, epsilon, rng, confidence=0.9):
    """The vote-loop query points of goldreich_levin_f2, in call order.

    Draws the t reference points from rng as the decoder does; then for each
    coordinate i and each subset mask 1..N of them, e_i plus the subset sum,
    with bit j of an int at position j.
    """
    t, n_votes = reference_gl_sizes(k, epsilon, confidence)
    refs = [rng.getrandbits(k) for _ in range(t)]
    sums = [0] * (n_votes + 1)
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] ^ refs[low.bit_length() - 1]
    return [
        tuple(((1 << i) ^ sums[mask]) >> j & 1 for j in range(k))
        for i in range(k)
        for mask in range(1, len(sums))
    ]


def reference_exact_decode(answer, k, q, epsilon, points=None):
    """Forms h of F_q^k with <h, x> = answer(x) on at least 1/q + epsilon/2 of
    the points x, by falling agreement, ties in lexicographic order.  The
    points default to all q^k of them in lexicographic order; answer is
    called once per point, in order."""
    if points is None:
        points = list(enumerate_vectors(k, q))
    answers = [answer(x) for x in points]
    scored = []
    for h in enumerate_vectors(k, q):
        hits = sum(
            sum(a * b for a, b in zip(h, x)) % q == y for x, y in zip(points, answers)
        )
        if hits / len(points) >= 1 / q + epsilon / 2:
            scored.append((-hits, h))
    return [h for _, h in sorted(scored)]


# -- reference Goldreich-Levin: the decoder as it was before its guesses came
# from a Walsh-Hadamard transform, with a re-check one candidate at a time


def reference_agreements(candidates, points, answers, q):
    """Per candidate h, the number of points x with <h, x> mod q == answer.

    At q = 2 one parity bit at a time on packed ints, else one sum of
    products at a time.
    """
    if q == 2:
        packed = [sum(bit << i for i, bit in enumerate(x)) for x in points]
        out = []
        for h in candidates:
            h_int = sum(bit << i for i, bit in enumerate(h))
            out.append(sum(((h_int & x).bit_count() & 1) == y for x, y in zip(packed, answers)))
        return out
    return [
        sum(sum(map(mul, h, x)) % q == y for x, y in zip(points, answers))
        for h in candidates
    ]


def reference_gl_candidates(votes, t):
    """The distinct majority forms of all 2^t guesses, from a (k, N) array of
    0/1 votes cast on subset masks 1..N.

    ones[i, b], the subsets voting h_i = 1 under guess b, comes from a
    float32 product of the votes with parity(b & mask), built from a parity
    table in chunks of guesses.
    """
    n_votes = votes.shape[1]
    votes = votes.astype(np.float32)
    masks = np.arange(1, n_votes + 1, dtype=np.uint16)
    parity = np.array([x.bit_count() & 1 for x in range(2**t)], dtype=np.uint8)
    vote_totals = votes.sum(axis=1)
    candidates = set()
    chunk = max(1, (1 << 22) // n_votes)
    for start in range(0, 2**t, chunk):
        guesses = np.arange(start, min(start + chunk, 2**t), dtype=np.uint16)
        corr = parity[guesses[:, None] & masks[None, :]].astype(np.float32)
        ones = vote_totals[:, None] + corr.sum(axis=1)[None, :] - 2.0 * (votes @ corr.T)
        hbits = (ones > n_votes / 2.0).astype(np.uint8)
        candidates.update(map(tuple, np.unique(hbits.T, axis=0).tolist()))
    return candidates


def reference_gl_check_points(n_candidates, epsilon, confidence=0.9):
    """How many fresh points goldreich_levin_f2 re-checks n_candidates on."""
    delta = max(1e-9, 1.0 - confidence)
    return max(
        64,
        math.ceil(2 * math.log(2 * max(n_candidates, 2) / delta) / (epsilon * epsilon)),
    )


def reference_goldreich_levin_f2(oracle, k, epsilon, rng, confidence=0.9):
    """goldreich_levin_f2 with guesses from a correlation matrix.

    Queries the same points in the same order and draws the same values
    from rng.  The guesses' forms come from reference_gl_candidates; the
    survivors are re-checked by reference_agreements.
    """
    if k > 400:
        raise ValueError("decode dimension capped at 400")
    if not 0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 1/2]")
    t, n_votes = reference_gl_sizes(k, epsilon, confidence)

    refs = [rng.getrandbits(k) for _ in range(t)]
    masks = np.arange(1, n_votes + 1, dtype=np.uint16)
    mask_bits = (masks[:, None] >> np.arange(t)) & 1
    ref_bits = np.array([[(r >> i) & 1 for i in range(k)] for r in refs], dtype=np.int64)
    sums = ((mask_bits @ ref_bits) & 1).astype(np.uint8)
    votes = np.empty((k, n_votes), dtype=np.uint8)
    for i in range(k):
        sums[:, i] ^= 1
        votes[i] = [oracle(x) for x in map(tuple, sums.tolist())]
        sums[:, i] ^= 1
    candidates = reference_gl_candidates(votes, t)

    n_check = reference_gl_check_points(len(candidates), epsilon, confidence)
    draws = [rng.getrandbits(k) for _ in range(n_check)]
    points = [tuple((x >> i) & 1 for i in range(k)) for x in draws]
    answers = [oracle(x) for x in points]
    ordered = sorted(candidates)
    scored = []
    for h, hits in zip(ordered, reference_agreements(ordered, points, answers, 2)):
        frac = hits / n_check
        if frac >= 0.5 + epsilon / 2:
            scored.append((-frac, h))
    scored.sort()
    return [h for _, h in scored]


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
            if reference_rank(tuple(prefix) + (row,), q) == r + 1:
                yield from build(prefix + [row])

    yield from build([])


# -- reference brute-force scans: invert_exhaustive with one mat_vecs per
# candidate and verify_hsp_promise with one wreath_mul per value class, as
# they were before each scan shared its products


def reference_invert_exhaustive(key, image):
    """First M in enumerate_invertible order with sorted(M V) == image, or None."""
    for m in enumerate_invertible(key.n, key.q):
        if tuple(sorted(mat_vecs(m, key.vectors, key.q))) == image.vectors:
            return m
    return None


def reference_verify_hsp_promise(inst, n, q):
    """True iff every value class of inst.f is one right coset {x, x*a}."""
    _, alpha = inst.subgroup
    classes = {}
    for x in enumerate_wreath(n, q):
        classes.setdefault(inst.f(x), []).append(x)
    for members in classes.values():
        if len(members) != 2:
            return False
        x, y = members
        if wreath_mul(x, alpha, q) != y:
            return False
    return True


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
        return reference_solve_linear(vs, ws, q)

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


# -- reference colour refinement: the relations with one lane-sum call per
# ordered pair of values, and the refinement naming q > 2 signatures by
# tuples and returning colour callables, as they were before the engine read
# its labels


def reference_relations(values, q):
    """For each value v_i, the (j, l, beta) with v_i = v_j + beta v_l."""
    out = [[] for _ in values]
    if q == 2:
        codes = [int.from_bytes(bytes(v), "big") for v in values]
        index = dict(zip(codes, range(len(codes)))).get
        for j, a in enumerate(codes):
            for l in range(j + 1, len(codes)):
                i = index(a ^ codes[l])
                if i is not None and i > l:
                    out[i].append((j, l, 1))
                    out[j].append((l, i, 1))
                    out[l].append((j, i, 1))
        return out
    w = q.bit_length() + 1
    weights = [1 << (w * t) for t in range(len(values[0]))]
    ones = sum(weights)
    bias = ((1 << (w - 1)) - q) * ones
    tops = ones << (w - 1)

    def add(x, y):
        s = x + y
        return s - (((s + bias) & tops) >> (w - 1)) * q

    codes = [sum(map(mul, v, weights)) for v in values]
    multiples = {}
    for l, b in enumerate(codes):
        x = b
        for beta in range(1, q):
            multiples.setdefault(x, []).append((l, beta))
            x = add(x, b)
    qs = q * ones
    for j, a in enumerate(codes):
        minus_a = add(qs - a, 0)
        for i, v in enumerate(codes):
            for l, beta in multiples.get(add(v, minus_a), ()):
                out[i].append((j, l, beta))
    return out


def reference_refined_colours(src, dst, q):
    """(src_colour, dst_colour) of the joint refinement, or None when the
    multiplicities differ.  On a round where src and dst differ in how many
    values carry some colour, the colours of that round."""
    counts = [Counter(src)]
    if dst is not src:
        dst_count = Counter(dst)
        if dst_count != counts[0]:
            if sorted(dst_count.values()) != sorted(counts[0].values()):
                return None
            counts.append(dst_count)
    colours = [list(c.values()) for c in counts]
    sizes = Counter(colours[0])
    relations = [reference_relations(list(c), q) for c in counts] if len(sizes) < len(colours[0]) else []
    while len(sizes) < len(colours[0]):
        names = {}
        refined = []
        for col, rels in zip(colours, relations):
            if q == 2:
                bit = [1 << c for c in col]
                sigs = [
                    [bit[j] | bit[l] for j, l, _ in r] if sizes[c] > 1 else ()
                    for c, r in zip(col, rels)
                ]
            else:
                sigs = [
                    [(col[j], col[l], beta) for j, l, beta in r] if sizes[c] > 1 else ()
                    for c, r in zip(col, rels)
                ]
            refined.append([names.setdefault((c, *sorted(s)), len(names)) for c, s in zip(col, sigs)])
        if len(names) == len(sizes) or sorted(refined[0]) != sorted(refined[-1]):
            colours = refined
            break
        colours, sizes = refined, Counter(refined[0])
    colour = [dict(zip(c, col)).__getitem__ for c, col in zip(counts, colours)]
    return colour[0], colour[-1]


# -- reference per-query work: the predicate truths through the full matrix
# L M0 R^-1, and the trace reduction with a fresh rank and transform_image
# for each query matrix, as they were before the row-image tables and the
# memoised invertibility test


def reference_trace_truth(m0, q):
    """Trace of each context's implied matrix."""

    def truth(ctx):
        m = ctx.implied_matrix(m0, q)
        return sum(m[i][i] for i in range(len(m))) % q

    return truth


def reference_bilinear_truth(m0, a, b, q):
    """<a, M' b> for each context's implied matrix M'."""

    def truth(ctx):
        return inner_product(a, mat_vec(ctx.implied_matrix(m0, q), b, q), q)

    return truth


def reference_trace_invert(key, image, predictor, epsilon, rng, confidence=0.95, rounds=4, stats=None):
    """trace_invert with one rank and one transform_image per new query point."""
    n, q = key.n, key.q
    stats = {} if stats is None else stats
    stats.update(invertible_queries=0, singular_queries=0, rounds=0, candidates=0)
    effective = invertibility_probability(n, q) * epsilon
    answered = {}
    for _ in range(rounds):
        stats["rounds"] += 1
        answered = {x: hit for x, hit in answered.items() if hit[1]}

        def oracle(x):
            hit = answered.get(x)
            if hit is None:
                mat_n = tuple(tuple(x[j * n + i] for j in range(n)) for i in range(n))
                if rank(mat_n, q) == n:
                    ctx = BilinearContext(
                        image=transform_image(mat_n, image, q).vectors,
                        basis=key.vectors,
                        left=mat_n,
                    )
                    hit = (predictor.query(ctx), True)
                else:
                    hit = (rng.randrange(q), False)
                answered[x] = hit
            stats["invertible_queries" if hit[1] else "singular_queries"] += 1
            return hit[0]

        candidates = _decode(oracle, n * n, q, effective, 400, rng, confidence)
        stats["candidates"] += len(candidates)
        for h in candidates:
            m = tuple(tuple(h[i * n + j] for j in range(n)) for i in range(n))
            if rank(m, q) == n and evaluate(key, m) == image:
                return m
    return None


# -- reference reduction: the bilinear reduction as it was before it ran its
# matching on iter_matchings, with its own signature-class matcher


def reference_bilinear_invert(
    key, image, predictor, a, b, epsilon, rng, confidence=0.9, assignment_budget=10**6, stats=None
):
    """bilinear_invert with per-class permutations, each solved and verified.

    Decodes exactly as bilinear_invert does.  Then, per combo of decoded rows,
    it compares the sizes of the signature classes of key and image, and
    tries every product of within-class permutations: each assignment is
    solved by solve_linear_invertible and checked through evaluate, and
    counts as one of assignments_tried.
    """
    n, q = key.n, key.q
    if not any(a) or not any(b):
        raise ValueError("predicate vectors a, b must be nonzero")
    t_memo = {}
    counts = {"t_queries": 0, "assignments_tried": 0, "budget_exhausted": False}

    def t_oracle(x, y):
        if not any(y) or not any(x):
            return 0
        if (x, y) not in t_memo:
            counts["t_queries"] += 1
            a_mat = transpose(random_invertible_mapping(a, x, q, rng))
            b_mat = random_invertible_mapping(y, b, q, rng)
            ctx = BilinearContext(
                image=transform_image(a_mat, image, q).vectors,
                basis=tuple(mat_vecs(b_mat, key.vectors, q)),
                left=a_mat,
                right=b_mat,
            )
            t_memo[(x, y)] = predictor.query(ctx)
        return t_memo[(x, y)]

    size = min(projection_family_size(key.m), n)
    family = sample_projection_family(n, q, size, rng)

    row_lists = []
    for g in family:
        rows = _decode(functools.partial(t_oracle, g), n, q, epsilon, 200, rng, confidence)
        if not rows:
            if stats is not None:
                stats.update(counts, family=family, empty_decode=True)
            return None
        row_lists.append(rows)

    actual_sigs = {}
    for j, w in enumerate(image.vectors):
        actual_sigs.setdefault(tuple(inner_product(g, w, q) for g in family), []).append(j)

    result = None
    for combo in itertools.product(*row_lists):
        claimed_sigs = {}
        for i, v in enumerate(key.vectors):
            claimed_sigs.setdefault(tuple(inner_product(h, v, q) for h in combo), []).append(i)
        if {s: len(ix) for s, ix in claimed_sigs.items()} != {
            s: len(ix) for s, ix in actual_sigs.items()
        }:
            continue
        sigs = list(claimed_sigs)

        def arrangements(class_idx):
            # lazy product of per-class permutations
            if class_idx == len(sigs):
                yield ()
                return
            for perm in itertools.permutations(actual_sigs[sigs[class_idx]]):
                for rest in arrangements(class_idx + 1):
                    yield (perm,) + rest

        for arrangement in arrangements(0):
            counts["assignments_tried"] += 1
            if counts["assignments_tried"] > assignment_budget:
                counts["budget_exhausted"] = True
                if stats is not None:
                    stats.update(counts)
                return None
            vs, ws = [], []
            for s, targets in zip(sigs, arrangement):
                for i, j in zip(claimed_sigs[s], targets):
                    vs.append(key.vectors[i])
                    ws.append(image.vectors[j])
            try:
                m = solve_linear_invertible(vs, ws, q)
            except NoSolutionError:
                continue
            if evaluate(key, m) == image:
                result = m
                break
        if result is not None:
            break
    if stats is not None:
        stats.update(counts)
    return result
