"""Hard-core predicate reductions: recover the hidden matrix from a predictor.

A predictor answers predicate queries (trace of the preimage, or one bilinear
form of it) with some advantage over guessing.  The reductions re-randomize
the instance, wrap the predictor into a noisy linear-form oracle, list-decode
it, and verify candidate preimages exactly, so nothing unverified is ever
returned.  A subspace-censored adversary shows the bilinear predicate cannot
be extracted faster than exhaustively searching a hidden minor.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field
from operator import mul
from random import Random
from typing import Callable

from .field import (
    Matrix,
    Vector,
    _solve_vector,
    enumerate_vectors,
    enumeration_cap,
    identity,
    inner_product,
    invertibility_probability,
    is_invertible_cached,
    mat_inverse,
    mat_mul,
    mat_vec,
    mat_vecs,
    rank,  # unused here; perfbench's tracer self-test rebinds hardcore.rank
    random_below,
    random_invertible_mapping,
    random_vector,
    transpose,
)
from .owf import BudgetExceededError, OwfImage, OwfKey, evaluate, iter_matchings, row_image_table
from .permstats import projection_family_size, sample_projection_family


@dataclass(frozen=True, slots=True)
class BilinearContext:
    """What a predicate oracle sees: a transformed image and key basis.

    The transform fields record how the query was built (image = left * W,
    basis = right * V).  They are excluded from equality and hashing: a real
    adversary never sees them, and simulated ground-truth oracles use them to
    answer as the information-theoretic predictor would.  Slotted, like
    wreath.WreathElement: the reductions build one per predictor query.
    """

    image: tuple[Vector, ...]
    basis: tuple[Vector, ...]
    left: Matrix | None = dc_field(default=None, compare=False)
    right: Matrix | None = dc_field(default=None, compare=False)

    def implied_matrix(self, m0: Matrix, q: int) -> Matrix:
        """Underlying preimage left * M0 * right^-1 given the original M0."""
        out = m0 if self.left is None else mat_mul(self.left, m0, q)
        if self.right is not None:
            out = mat_mul(out, mat_inverse(self.right, q), q)
        return out


_MISSING = object()


class Predictor:
    """Oracle with memoized answers, so it defines one fixed function per run."""

    def __init__(self, answer: Callable, epsilon: float, q: int):
        self._answer = answer
        self.epsilon = epsilon
        self.q = q
        self.query_count = 0
        self._memo: dict = {}

    def query(self, context):
        """The memoised answer, from one lookup.

        A miss hashes the context twice (look up, store) and a hit once,
        where `in` then `[]` took three and two.  Misses are the common
        case: the reduce benchmark's queries never repeat a context.
        """
        self.query_count += 1
        answer = self._memo.get(context, _MISSING)
        if answer is _MISSING:
            answer = self._memo[context] = self._answer(context)
        return answer


def make_noisy_predictor(
    truth: Callable, epsilon: float, q: int, rng: Random
) -> Predictor:
    """Predictor answering truth(context) with probability 1/q + epsilon.

    Wrong answers are uniform over the other q - 1 values; epsilon = 1 - 1/q
    gives a perfect predictor.  Per-context noise is memoized by the
    Predictor wrapper.
    """
    if not 0 <= epsilon <= 1 - 1 / q:
        raise ValueError(f"epsilon must lie in [0, 1 - 1/{q}]")
    agreement = 1 / q + epsilon

    def answer(context):
        value = truth(context)
        if rng.random() < agreement:
            return value
        return (value + 1 + random_below(q - 1, 1, rng)[0]) % q

    return Predictor(answer, epsilon, q)


def make_trace_truth(m0: Matrix, q: int) -> Callable[[BilinearContext], int]:
    """Ground truth oracle for the trace of a context's underlying preimage.

    With no right transform the preimage is L M0 (L the left transform, or
    the identity), and trace(L M0) is the sum over i of <row i of L,
    column i of M0>: n inner products instead of a matrix product, against
    M0's columns chained once, when the oracle is made.  A context with a
    right transform falls back to implied_matrix.
    """
    cols = tuple(itertools.chain(*transpose(m0)))
    unit = identity(len(m0))

    def truth(ctx: BilinearContext) -> int:
        if ctx.right is None:
            left = unit if ctx.left is None else ctx.left
            return sum(map(mul, itertools.chain(*left), cols)) % q
        m = ctx.implied_matrix(m0, q)
        return sum(m[i][i] for i in range(len(m))) % q

    return truth


def make_bilinear_truth(
    m0: Matrix, a: Vector, b: Vector, q: int
) -> Callable[[BilinearContext], int]:
    """Ground truth oracle for <a, M' b> on a context's underlying preimage.

    M' = L M0 R^-1 (L, R the left and right transforms, each the identity
    when absent), and <a, M' b> = <L^T a, M0 (R^-1 b)>: R^-1 b from one
    single-right-hand-side solve (field._solve_vector) and two
    matrix-vector products, with no matrix product or inverse.  This
    covers every context shape, so implied_matrix is never needed.
    """

    def truth(ctx: BilinearContext) -> int:
        x = a if ctx.left is None else [sum(map(mul, a, col)) for col in zip(*ctx.left)]
        y = b if ctx.right is None else _solve_vector(ctx.right, b, q)
        return sum(map(mul, x, [sum(map(mul, row, y)) for row in m0])) % q

    return truth


def make_subspace_adversary(
    m0: Matrix, rng: Random, dim_s: int | None = None
) -> Predictor:
    """Bilinear-query oracle that hides the leading dim_s x dim_s minor.

    Answers <a, M b> exactly whenever a or b is orthogonal to the span of the
    first dim_s coordinates, and a memoized uniform bit otherwise.  Advantage
    is about 1/n with dim_s = log2 n, yet queries never read the hidden
    minor, so no reduction can recover it without exhaustive search.
    Contexts are (a, b) vector pairs; q = 2 only.
    """
    n = len(m0)
    if dim_s is None:
        dim_s = max(1, math.ceil(math.log2(n)))
    p_orth = 2.0 ** (-dim_s)
    advantage = (2 * p_orth - p_orth * p_orth) / 2

    def answer(context):
        a, b = context
        if not any(a[:dim_s]) or not any(b[:dim_s]):
            return inner_product(a, mat_vec(m0, b, 2), 2)
        return random_below(2, 1, rng)[0]

    return Predictor(answer, advantage, 2)


def estimate_advantage(
    predictor: Predictor,
    truth: Callable,
    sample_context: Callable[[Random], object],
    samples: int,
    rng: Random,
) -> tuple[float, float]:
    """Empirical Pr[predictor = truth] - 1/q and its standard error."""
    hits = 0
    for _ in range(samples):
        ctx = sample_context(rng)
        if predictor.query(ctx) == truth(ctx):
            hits += 1
    p = hits / samples
    return p - 1 / predictor.q, math.sqrt(p * (1 - p) / samples)


# -- list decoding of noisy linear forms -------------------------------------

# Elements of the largest array one block of _ranked's matrix products builds
# (candidate forms times scoring points), and of the largest score table
# _exact_scores keeps.
_BLOCK_ELEMENTS = 1 << 22

# Largest domain q^k that gl_decode_exhaustive queries point by point
# instead of sampling; the reductions decode such domains exactly.
_EXACT_DOMAIN = 1 << 12


def _to_bits(x: int, k: int) -> Vector:
    return tuple((x >> i) & 1 for i in range(k))


def goldreich_levin_f2(
    oracle: Callable[[Vector], int],
    k: int,
    epsilon: float,
    rng: Random,
    confidence: float = 0.9,
) -> list[Vector]:
    """Linear forms over F_2^k agreeing with the oracle on a 1/2 + epsilon fraction.

    Classic list decoder, run in P independent passes with delta = 1 -
    confidence split between them: P is the integer minimising
    P delta^(-1/P) (2 at confidence 0.9, 3 at 0.95), and each pass fails
    with probability at most delta_pass = delta^(1/P), so all P fail with
    probability at most delta.  A pass draws t fresh reference points with
    guessed values and takes one majority vote per coordinate over N
    pairwise independent subset sums, those of masks 1..N, where N is the
    smallest odd integer at least k (1 - 4 epsilon^2) / (12 epsilon^2
    delta_pass), and t = N.bit_length(), the fewest references that give
    N nonzero masks; t is capped at 16 and N with it at 2^t - 1.  That N
    leaves at most two coordinates' majorities wrong under the right guess,
    with probability at least 1 - delta_pass, so each distinct majority form
    b stands for itself, its k neighbours b + e_i and its k (k - 1) / 2
    neighbours b + e_i + e_j.  The votes of all 2^t guesses at once are one
    in-place Walsh-Hadamard transform of the +-1 votes, the unused masks
    left at 0 (Goldreich-Levin 1989, Kushilevitz-Mansour 1993): afterwards
    entry b of coordinate i is N - 2 * (subsets voting h_i = 1 under guess
    b), which is odd, so the majority has no ties.  The B distinct majority
    forms of all passes and their neighbourhoods are re-checked once,
    against fresh samples, on as many as a union bound over
    B (1 + k + k (k - 1) / 2) forms needs, and kept above agreement
    1/2 + epsilon/2, by falling agreement, ties in lexicographic order (see
    _ranked_within_two).  The oracle is asked P k N vote queries, pass by
    pass, then the re-check points.  Any form with the stated agreement
    lands in the output with probability at least `confidence`.  epsilon
    must lie in (0, 1/2] and confidence in (0, 1); either out of range, NaN
    included, raises ValueError before any query or draw.
    """
    import numpy as np  # loaded by the decoders only, see _ranked

    if k > 400:
        raise ValueError("decode dimension capped at 400")
    if not epsilon > 0:  # NaN too
        raise ValueError("epsilon must be positive")
    if epsilon > 0.5:
        raise ValueError("epsilon must be at most 1/2: agreement cannot exceed 1")
    if not 0 < confidence < 1:  # NaN too
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    delta = 1.0 - confidence
    # P delta^(-1/P) is convex in P and least at P = ln(1/delta)
    passes = min(range(1, math.ceil(-math.log(delta)) + 2), key=lambda p: p * delta ** (-1 / p))
    eps2 = epsilon * epsilon
    # each vote is right with probability p >= 1/2 + eps, so by Chebyshev
    # over pairwise independent votes a majority of N fails with probability
    # at most p(1 - p) / (N (p - 1/2)^2) <= (1 - 4 eps^2) / (4 N eps^2); by
    # Markov on the number of wrong majorities, three or more are wrong with
    # probability at most a third of its mean, k (1 - 4 eps^2) / (12 N eps^2),
    # so N = votes >= needed keeps that below delta_pass
    votes = math.ceil(k * max(0.0, 1 - 4 * eps2) / (12 * eps2 * delta ** (1 / passes))) | 1
    # masks 1..N read only the first N.bit_length() references
    t = min(16, votes.bit_length())
    votes = min(2**t - 1, votes)
    bases = np.unique(
        np.concatenate([_majority_forms(oracle, k, t, votes, rng) for _ in range(passes)]),
        axis=0,
    )

    # re-check on fresh points.  Sized so a true form survives and junk from
    # wrong guesses is unlikely to pass even after a union bound over all
    # B (1 + k + k (k - 1) / 2) forms.
    forms = len(bases) * (1 + k + k * (k - 1) // 2)
    n_check = max(64, math.ceil(2 * math.log(2 * max(forms, 2) / delta) / eps2))
    # point p is the k low bits of draw p, bit i at coordinate i, all
    # unpacked at once
    raw = b"".join(rng.getrandbits(k).to_bytes(-(-k // 8), "little") for _ in range(n_check))
    draws = np.frombuffer(raw, dtype=np.uint8).reshape(n_check, -1)
    points = np.unpackbits(draws, axis=1, count=k, bitorder="little")
    return _ranked_within_two(oracle, points, epsilon, bases)


def _majority_forms(
    oracle: Callable[[Vector], int], k: int, t: int, votes: int, rng: Random
) -> np.ndarray:
    """One pass of goldreich_levin_f2: the 2^t guesses' majority forms, as
    rows of a uint8 array (0/1 entries), from t references drawn from rng
    and `votes` queries per coordinate, coordinate by coordinate in mask
    order."""
    import numpy as np

    refs = [rng.getrandbits(k) for _ in range(t)]
    # sums[mask - 1] = bits of the XOR of the refs the mask selects, all
    # subset sums in one product (entries at most t <= 16, so exact)
    mask_bits = np.arange(1, votes + 1)[:, None] >> np.arange(t) & 1
    ref_bits = np.array([_to_bits(r, k) for r in refs], dtype=np.int64)
    sums = ((mask_bits @ ref_bits) & 1).astype(np.uint8)

    # signs[i, mask] = 1 - 2 * vote on h_i; mask 0 and masks above N cast none
    signs = np.zeros((k, 2**t), dtype=np.int32)
    for i in range(k):
        sums[:, i] ^= 1  # e_i + each subset sum, in mask order
        signs[i, 1 : votes + 1] = [1 - 2 * oracle(x) for x in map(tuple, sums.tolist())]
        sums[:, i] ^= 1
    for j in range(t):
        pairs = signs.reshape(k, -1, 2, 1 << j)
        low, high = pairs[:, :, 0], pairs[:, :, 1]
        low += high
        high *= -2
        high += low  # (low, high) -> (low + high, low - high)
    return (signs < 0).T.view(np.uint8)


def _ranked_within_two(
    oracle: Callable[[Vector], int],
    points: np.ndarray,
    epsilon: float,
    bases: np.ndarray,
) -> list[Vector]:
    """The forms within distance 2 of a row b of `bases` (b, b + e_i and
    b + e_i + e_j, e_i a unit vector) agreeing with the oracle on at least
    1/2 + epsilon/2 of the rows of `points`, over F_2; both are uint8
    arrays of 0/1 entries, and the oracle is asked at each point once, in
    order, as a tuple of ints.

    With A[b, p] = [<b, p> = answer_p], hits(b) = sum_p A[b, p].  Adding
    e_i + e_j flips <b, p> exactly where p_i != p_j, so with the 0/1 matrix
    F[p, (i, j)] = [p_i != p_j] of pair differences,
    hits(b + e_i + e_j) = hits(b) + sum_p F[p, (i, j)] - 2 (A F)[b, (i, j)].
    A coordinate k that is 0 in every form and point makes the pair (i, k)
    flip coordinate i alone, so the k (k + 1) / 2 pairs i < j <= k cover
    both radii and nothing but the survivors is listed.  Per block of bases
    one float32 product gives A as _ranked does, and per block of pairs one
    more gives A F, exact while there are fewer than 2^24 points; the
    blocks of bases, of F and of A F each stay within _BLOCK_ELEMENTS.
    Each form comes out once, by falling agreement, ties in lexicographic
    order.
    """
    import numpy as np

    n_points, k = points.shape
    answers = np.fromiter(map(oracle, map(tuple, points.tolist())), dtype=np.int32, count=n_points)
    # forms and points with the always-0 coordinate k appended
    forms = np.zeros((len(bases), k + 1), dtype=np.uint8)
    forms[:, :k] = bases
    pts = np.zeros((n_points, k + 1), dtype=np.uint8)
    pts[:, :k] = points
    pts_t = pts.T.astype(np.float32)
    first, second = np.triu_indices(k + 1, 1)
    rows = max(1, _BLOCK_ELEMENTS // max(n_points, k + 1))
    cols = max(1, _BLOCK_ELEMENTS // max(n_points, min(rows, len(bases))))
    # the fewest hits h with h / n_points >= 1/2 + epsilon/2
    least = bisect.bisect_left(range(n_points + 1), 0.5 + epsilon / 2, key=lambda h: h / n_points)
    kept: dict[Vector, int] = {}
    for start in range(0, len(forms), rows):
        block = forms[start : start + rows]
        scores = (block.astype(np.float32) @ pts_t).astype(np.int32) & 1
        agree = (scores == answers).astype(np.float32)
        hits = agree.sum(axis=1)
        base_rows = np.flatnonzero(hits >= least)
        base_hits = hits[base_rows].astype(np.int32)
        kept.update(zip(map(tuple, block[base_rows, :k].tolist()), base_hits.tolist()))
        for low in range(0, len(first), cols):
            i, j = first[low : low + cols], second[low : low + cols]
            flips = (pts[:, i] ^ pts[:, j]).astype(np.float32)
            moved = (hits[:, None] + flips.sum(axis=0) - 2 * (agree @ flips)).astype(np.int32)
            rows_c, cols_c = np.nonzero(moved >= least)
            near = block[rows_c]
            near[np.arange(len(rows_c)), i[cols_c]] ^= 1
            near[np.arange(len(rows_c)), j[cols_c]] ^= 1
            kept.update(zip(map(tuple, near[:, :k].tolist()), moved[rows_c, cols_c].tolist()))
    return sorted(kept, key=lambda h: (-kept[h], h))


def gl_decode_exhaustive(
    oracle: Callable[[Vector], int],
    k: int,
    q: int,
    epsilon: float,
    samples: int,
    rng: Random,
) -> list[Vector]:
    """Score every form in F_q^k; keep those above agreement 1/q + epsilon/2.

    When q^k <= _EXACT_DOMAIN the forms are scored against every point of
    F_q^k, each queried once in enumerate_vectors order: for an oracle that
    is a fixed function this finds exactly the forms above the threshold,
    with no sampling error, ignores `samples` and draws nothing from rng.
    If also q^(2k) <= _BLOCK_ELEMENTS, the scores come from _exact_scores,
    built once per (k, q), so a call makes no product.  Larger domains are
    scored on `samples` uniform points, a desk-scale stand-in for list
    decoding over larger fields.  Form number j is the k base-q digits of j,
    most significant first, so the forms come in lexicographic order without
    being listed; they come out by falling agreement, ties in lexicographic
    order.  An epsilon that is not positive (NaN too) raises ValueError
    before any oracle call or draw.
    """
    import numpy as np  # loaded by the decoders only, see _ranked

    if not epsilon > 0:  # NaN too
        raise ValueError("epsilon must be positive")
    if q**k > enumeration_cap():
        raise ValueError(f"q^k = {q**k} exceeds enumeration cap")
    if q**k <= _EXACT_DOMAIN:
        if q ** (2 * k) <= _BLOCK_ELEMENTS:
            points, forms, values = _exact_scores(k, q)
            return _ranked(oracle, points, q, epsilon, q**k, forms.__getitem__, values)
        points = list(enumerate_vectors(k, q))
    elif samples < 1:
        raise ValueError(f"samples must be at least 1 when q^k > {_EXACT_DOMAIN}, got {samples}")
    else:
        points = [random_vector(k, q, rng) for _ in range(samples)]
    places = q ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return _ranked(oracle, points, q, epsilon, q**k, lambda j: j[:, None] // places % q)


@functools.lru_cache(maxsize=None)
def _exact_scores(k: int, q: int) -> tuple[list[Vector], np.ndarray, np.ndarray]:
    """The q^k points of F_q^k in enumerate_vectors order, the same vectors
    as a uint8 array of forms (row j is form j), and the uint8 array of
    <form j, point i> mod q at [j, i].

    One float32 product, exact as in _ranked; gl_decode_exhaustive asks for
    it only when its q^(2k) entries fit in one of _ranked's blocks.
    """
    import numpy as np

    points = list(enumerate_vectors(k, q))
    forms = np.array(points, dtype=np.uint8).reshape(len(points), k)
    values = forms.astype(np.float32) @ forms.T.astype(np.float32)
    np.fmod(values, q, out=values)
    values = values.astype(np.uint8)
    forms.flags.writeable = values.flags.writeable = False  # shared by every call
    return points, forms, values


def _ranked(
    oracle: Callable[[Vector], int],
    points: list[Vector],
    q: int,
    epsilon: float,
    count: int,
    forms: Callable[[np.ndarray], np.ndarray],
    values: np.ndarray | None = None,
) -> list[Vector]:
    """The forms agreeing with the oracle on at least 1/q + epsilon/2 of points.

    forms(j) gives the candidate forms numbered by the index array j, as
    rows; there are `count` of them, numbered in lexicographic order.  The
    oracle is asked at each point once, in order.  When `values` is given,
    its entry [j, i] is <form j, point i> mod q and the answers are compared
    with it once.  Otherwise each block of forms is scored by one float32
    product whose entries are at most k (q - 1)^2 < 2^24, so exact.  Forms
    come out by falling agreement, ties in lexicographic order.  numpy is
    imported here and in the two decoders, not with the module: the
    matching engine and the GL_n scans never use it, and a process that runs
    only them saves the import (about 14 MB of resident memory and 0.15 s
    of CPU with numpy 2.4).  _ranked_within_two imports it likewise.
    """
    import numpy as np

    answers = np.fromiter(map(oracle, points), dtype=np.int32, count=len(points))
    if values is not None:
        hits = (values == answers).sum(axis=1, dtype=np.int32)
    else:
        pts = np.array(points, dtype=np.float32).T  # (k, len(points))
        rows = max(1, _BLOCK_ELEMENTS // max(pts.shape))
        hits = np.empty(count, dtype=np.int32)
        for start in range(0, count, rows):
            block = forms(np.arange(start, min(start + rows, count)))
            scores = (block.astype(np.float32) @ pts).astype(np.int32) % q
            hits[start : start + rows] = (scores == answers).sum(axis=1)
    kept = np.flatnonzero(hits / len(points) >= 1 / q + epsilon / 2)
    kept = kept[np.argsort(-hits[kept], kind="stable")]
    return list(map(tuple, forms(kept).tolist()))


def _decode(
    oracle: Callable[[Vector], int],
    k: int,
    q: int,
    epsilon: float,
    min_samples: int,
    rng: Random,
    confidence: float,
) -> list[Vector]:
    """The reductions' list decoder: exact below _EXACT_DOMAIN points, else
    goldreich_levin_f2 at q = 2 and sampled scoring at q > 2."""
    if q == 2 and q**k > _EXACT_DOMAIN:
        return goldreich_levin_f2(oracle, k, epsilon, rng, confidence)
    samples = max(min_samples, math.ceil(8 * k / (epsilon * epsilon)))
    return gl_decode_exhaustive(oracle, k, q, epsilon, samples, rng)


# -- the trace reduction ------------------------------------------------------


@functools.lru_cache(maxsize=1 << 12)
def _query_matrix(x: Vector, n: int, q: int) -> Matrix | None:
    """The n x n N with vec(N^T) = x (row i is x[i::n]) when N is invertible
    over F_q, else None.

    Memoised per (x, n, q) with the bound of field.is_invertible_cached, so a
    point asked again in a later call costs one lookup; entries outside
    [0, q) raise ValueError, and nothing is cached for them.
    """
    mat_n = tuple([x[i::n] for i in range(n)])
    return mat_n if is_invertible_cached(mat_n, q) else None


def trace_invert(
    key: OwfKey,
    image: OwfImage,
    predictor: Predictor,
    epsilon: float,
    rng: Random,
    rounds: int = 4,
    stats: dict | None = None,
) -> Matrix | None:
    """Recover a preimage from a predictor for the trace of the preimage.

    The map x -> trace(N M) with vec(N^T) = x is linear in the entries of M,
    so querying the predictor on re-randomized instances N * image gives a
    noisy linear-form oracle in dimension n^2.  Singular N (where no preimage
    exists) get memoized uniform values, scaling the usable advantage by the
    invertible fraction alpha.  A single draw of those values yields a usable
    oracle only with constant probability (at n = 2 most of the domain is
    singular), so up to `rounds` fresh extensions are tried.  Each distinct
    point is answered once: only its first query looks up N, or None when N
    is singular, in the memoised _query_matrix and, if N is invertible, asks
    the predictor on N * image, read off one row_image_table of the image
    built per call; that answer then serves every later round too, so the
    predictor sees at most |GL_n(F_q)| queries.
    When q^(n^2) <= 2^12 (n <= 3 at q = 2, n = 2 at q <= 7) each round
    decodes exactly: gl_decode_exhaustive queries every point once and keeps
    every form above 1/q + alpha epsilon / 2 on that round's extension (see
    _decode for larger domains).  The invertible and singular query counts
    count every decoder query.  Candidates are verified through evaluate,
    after is_invertible_cached has passed them; nothing unverified is
    returned.
    """
    if not epsilon > 0:  # NaN too
        raise ValueError("epsilon must be positive")
    n, q = key.n, key.q
    k = n * n
    stats = {} if stats is None else stats
    stats.update(invertible_queries=0, singular_queries=0, rounds=0, candidates=0)
    effective = invertibility_probability(n, q) * epsilon

    # N*image is read off a table of the image's q^n possible row images
    row_images = row_image_table(image.vectors, q).__getitem__
    # query point -> (answer, whether N is invertible)
    answered: dict[Vector, tuple[int, bool]] = {}
    for _ in range(rounds):
        stats["rounds"] += 1
        # a fresh extension: singular points are drawn again, while the
        # predictor's answers at invertible points hold for every round
        answered = {x: hit for x, hit in answered.items() if hit[1]}

        def oracle(x: Vector) -> int:
            hit = answered.get(x)
            if hit is None:
                mat_n = _query_matrix(x, n, q)
                if mat_n is not None:
                    image_n = tuple(sorted(zip(*map(row_images, mat_n))))
                    hit = (predictor.query(BilinearContext(image_n, key.vectors, mat_n)), True)
                else:
                    hit = (random_below(q, 1, rng)[0], False)
                answered[x] = hit
            stats["invertible_queries" if hit[1] else "singular_queries"] += 1
            return hit[0]

        candidates = _decode(oracle, k, q, effective, 400, rng, 0.95)
        stats["candidates"] += len(candidates)

        for h in candidates:
            m = tuple(tuple(h[i * n + j] for j in range(n)) for i in range(n))
            if is_invertible_cached(m, q) and evaluate(key, m) == image:
                return m
    return None


# -- the bilinear reduction ---------------------------------------------------


def bilinear_invert(
    key: OwfKey,
    image: OwfImage,
    predictor: Predictor,
    a: Vector,
    b: Vector,
    epsilon: float,
    rng: Random,
    assignment_budget: int = 10**6,
    stats: dict | None = None,
) -> Matrix | None:
    """Recover a preimage from a predictor for the matrix entry <a, M b>.

    For each probe pair (x, y) the instance is re-randomized by A, B with
    A^T a = x and B^-1 b = y, so the predictor's answer estimates <x, M y>.
    Decoding y -> t(g, y) for each member g of a projection family recovers
    the linear forms <g, M .>.  Each combo of decoded forms h_g gives key
    vector v the signature (<h_g, v>)_g, and iter_matchings searches only
    the matchings that map v to an image vector w with the same signature
    (<g, w>)_g, stopping at its first verified preimage.  The engine's
    nodes, summed over the combos, count as assignments_tried and stop the
    search at assignment_budget.  When q^n <= 2^12 each decode is exact,
    every y queried once (see _decode) and scored from the memoised
    _exact_scores when q^(2n) <= _BLOCK_ELEMENTS.  Each new (x, y) costs two
    random_invertible_mapping draws, each one random_below call with no
    rejection when GL_{n-1}(F_q) fits in a table and its two basis products
    dict lookups when q^n <= 2^6 (field._ROW_TABLE_BOUND), and A * image and
    B * key are read off two row-image tables (row_image_table; image and
    key) built per call.
    """
    n, q = key.n, key.q
    if not any(a) or not any(b):
        raise ValueError("predicate vectors a, b must be nonzero")
    if not epsilon > 0:  # NaN too
        raise ValueError("epsilon must be positive")
    stats = {} if stats is None else stats
    stats.update(t_queries=0, assignments_tried=0, budget_exhausted=False)
    t_memo: dict[tuple[Vector, Vector], int] = {}
    # A*image and B*key are read off tables of their q^n possible row images
    image_rows = row_image_table(image.vectors, q).__getitem__
    key_rows = row_image_table(key.vectors, q).__getitem__

    def t_oracle(x: Vector, y: Vector) -> int:
        if not any(y) or not any(x):
            return 0  # bilinear form vanishes; no query needed
        if (x, y) not in t_memo:
            stats["t_queries"] += 1
            a_mat = transpose(random_invertible_mapping(a, x, q, rng))
            b_mat = random_invertible_mapping(y, b, q, rng)
            ctx = BilinearContext(
                tuple(sorted(zip(*map(image_rows, a_mat)))),
                tuple(zip(*map(key_rows, b_mat))),
                a_mat,
                b_mat,
            )
            t_memo[(x, y)] = predictor.query(ctx)
        return t_memo[(x, y)]

    # projection family: 2 log2 m independent vectors, clamped to dimension n
    size = min(projection_family_size(key.m), n)
    family = sample_projection_family(n, q, size, rng)

    row_lists: list[list[Vector]] = []
    for g in family:
        oracle = functools.partial(t_oracle, g)
        rows = _decode(oracle, n, q, epsilon, 200, rng, 0.9)
        if not rows:
            stats.update(family=family, empty_decode=True)
            return None
        row_lists.append(rows)

    actual = dict(zip(image.vectors, mat_vecs(family, image.vectors, q)))
    result = None
    for combo in itertools.product(*row_lists):
        claimed = dict(zip(key.vectors, mat_vecs(combo, key.vectors, q)))
        nodes: dict = {}
        matches = iter_matchings(
            key.vectors,
            image.vectors,
            q,
            n,
            node_budget=assignment_budget - stats["assignments_tried"],
            enumerate_completions=False,
            colours=(claimed.__getitem__, actual.__getitem__),
            stats=nodes,
        )
        try:
            result = next((m for m in matches if evaluate(key, m) == image), None)
        except BudgetExceededError:
            stats["budget_exhausted"] = True
        finally:
            matches.close()
            stats["assignments_tried"] += nodes["nodes"]
        if result is not None or stats["budget_exhausted"]:
            break
    return result
