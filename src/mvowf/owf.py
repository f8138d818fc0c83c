"""Candidate one-way function: M maps to the sorted multiset M*V.

A key is a list V of m vectors over F_q^n; evaluating at an invertible M
yields the lexicographically sorted list of the M*v. The module provides
key generation, evaluation, the injectivity analysis (which invertible K
fix V as a multiset), backtracking and exhaustive inversion oracles, and
the worst-to-average self-reduction wrappers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import mul
from random import Random
from typing import Callable, Iterator, Sequence

from .field import (
    Echelon,
    Matrix,
    SingularMatrixError,
    Vector,
    check_entries,
    enumerate_vectors,
    gl_elements,
    identity,
    mat_inverse,
    mat_mul,
    mat_vecs,
    rank,
    random_invertible,
    random_vector,
    row_image_table,
    validate_modulus,
)
from .rng import spawn_rng


class BudgetExceededError(RuntimeError):
    """Backtracking search hit its node budget before finishing."""


@dataclass(frozen=True)
class OwfKey:
    """Public parameters (q, n, m, V) defining the function."""

    q: int
    n: int
    vectors: tuple[Vector, ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        validate_modulus(self.q)
        if self.m < self.n:
            raise ValueError(f"need m >= n, got m = {self.m}, n = {self.n}")
        for v in self.vectors:
            if len(v) != self.n:
                raise ValueError("key vector of wrong length")
        check_entries(self.vectors, self.q, "key vector")

    @property
    def m(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class OwfImage:
    """Value of the function: m vectors sorted lexicographically."""

    vectors: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if any(self.vectors[i] > self.vectors[i + 1] for i in range(len(self.vectors) - 1)):
            raise ValueError("image vectors must be sorted")

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)


@dataclass(frozen=True)
class ConsistencyWitness:
    """Permutation pi and invertible K with K v_i = v_{pi(i)} for all i."""

    pi: tuple[int, ...]
    matrix: Matrix


@dataclass
class WitnessSearch:
    witnesses: list[ConsistencyWitness]
    complete: bool


Inverter = Callable[[OwfKey, OwfImage], Matrix | None]


def default_delta(q: int, n: int) -> int:
    """Key-length surplus ceil(A ln^2 n) with A = 5 / ln^2 q."""
    return math.ceil(5.0 / math.log(q) ** 2 * math.log(n) ** 2)


def keygen(
    q: int,
    n: int,
    delta: int | None = None,
    rng: Random | None = None,
    seed: int | None = None,
) -> OwfKey:
    """Fresh key with m = n + delta i.i.d. uniform vectors."""
    if n < 2:
        raise ValueError("need n >= 2")
    if rng is None:
        if seed is None:
            raise ValueError("keygen needs an rng or a seed")
        rng = spawn_rng(seed, "keygen")
    if delta is None:
        delta = default_delta(q, n)
    m = n + delta
    vectors = tuple(random_vector(n, q, rng) for _ in range(m))
    return OwfKey(q=q, n=n, vectors=vectors, seed=seed)


def evaluate(key: OwfKey, m: Matrix) -> OwfImage:
    """Sorted list of M*v over the key vectors; M must be invertible."""
    if len(m) != key.n or any(len(row) != key.n for row in m):
        raise ValueError("matrix has wrong shape for this key")
    # rank rejects entries outside [0, q) as it reads them
    if rank(m, key.q) != key.n:
        raise SingularMatrixError("evaluation domain is GL_n; matrix is singular")
    return OwfImage(tuple(sorted(mat_vecs(m, key.vectors, key.q))))


def transform_image(a: Matrix, image: OwfImage, q: int) -> OwfImage:
    """Sorted multiset A*W; equals evaluate at A*M when W = evaluate at M."""
    check_entries(a, q, "matrix")
    return OwfImage(tuple(sorted(mat_vecs(a, image.vectors, q))))


# -- multiset matching search ------------------------------------------------
#
# Core engine shared by witness enumeration, injectivity, inversion, the
# graph-isomorphism search and the bilinear reduction: yield every
# invertible M with M*src = dst as multisets.  An optional colouring
# (src_colour, dst_colour) lets v map to w only when src_colour(v) ==
# dst_colour(w).  Inversion, injectivity, the witness enumeration and the
# graph search pass the colour refinement below (_refined_colours): any M
# with M*src = dst maps every relation v = a + beta b among the values onto
# one with the same beta, so M keeps those colours, only branches without a
# matching go, and the yields and their order stay as they are; node
# counts fall, so a node_budget now reaches further.  Each distinct value
# is labelled (multiplicity, colour), a matching maps each value to one of
# the same label, and so the search ends before its first node when src
# and dst differ in how many values carry each label.  Distinct source
# values are assigned targets in first-appearance order, candidates in
# lexicographic order.  Assigning v -> w pushes the row (v | -M v),
# reduced, onto a field.Echelon whose pivots lie in the v-part; a second
# Echelon over the images of the pivots rejects an assignment that would
# make M singular.  Each source value not
# yet assigned keeps a residual, (v | 0) reduced against the pivots; a push
# reduces every residual against the new pivot only.  A residual with a
# zero v-part is (0 | M v): the value lies in the assigned span and its
# image is forced.  So the lookahead scans the residuals and prunes the
# branch when a forced image is missing from dst or has the wrong label.  A
# forced image cannot collide with an assigned or another forced one: the
# pivots' images are independent, so M is injective on the assigned span.
# Packed rows are hashable, and a zero-v-part residual is the key of its
# image.  When the source values do not span, the unit vectors off the
# pivot columns complete them, each pushed with an image that keeps M
# invertible: the first such image only (one witness per leaf) or every
# one.  At a leaf the pivots span the v-part, so (e_j | 0) reduces to
# (0 | M e_j), column j of M.  stats["nodes"] receives the nodes charged,
# however the search ends.


def iter_matchings(
    src: Sequence[Vector],
    dst: Sequence[Vector],
    q: int,
    n: int,
    node_budget: int | None = None,
    enumerate_completions: bool = True,
    colours: tuple[Callable[[Vector], object], Callable[[Vector], object]] | None = None,
    stats: dict | None = None,
) -> Iterator[Matrix]:
    src_colour, dst_colour = colours or (lambda v: None, lambda w: None)
    src_label = {v: (c, src_colour(v)) for v, c in Counter(src).items()}
    dst_label = {w: (c, dst_colour(w)) for w, c in Counter(dst).items()}
    if Counter(src_label.values()) != Counter(dst_label.values()):
        if stats is not None:
            stats["nodes"] = 0
        return
    src_vals = list(src_label)  # first-appearance order
    labels = list(src_label.values())
    rows = Echelon(q, n, n)
    images = Echelon(q, n)
    bound = rows.bound
    zeros = (0,) * n
    units = identity(n)
    label_of = {rows.pack(zeros + w): label for w, label in dst_label.items()}
    by_label: dict[tuple, list] = {}  # label -> keys (0 | w), lex order of w
    for k in sorted(label_of):
        by_label.setdefault(label_of[k], []).append(k)

    nodes = 0
    used: set = set()  # keys of the assigned images

    def charge() -> None:
        nonlocal nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetExceededError(f"matching search exceeded {node_budget} nodes")

    def complete(free: list[Vector], idx: int) -> Iterator[Matrix]:
        if idx == len(free):
            cols = [rows.unpack(rows.reduce(rows.pack(e + zeros)))[n:] for e in units]
            yield tuple(zip(*cols))
            return
        # when one completion is wanted, the lex-first image outside the span
        # is the highest-index unit vector outside it (see
        # field.solve_linear_invertible), so only unit vectors are tried
        for y in enumerate_vectors(n, q) if enumerate_completions else reversed(units):
            if not images.push(images.pack(y)):
                continue
            charge()
            rows.push(rows.sub(rows.pack(free[idx] + zeros), rows.pack(zeros + y)))
            yield from complete(free, idx + 1)
            rows.pop()
            images.pop()
            if not enumerate_completions:
                return

    def forced_images_available(idx: int, residuals: list) -> bool:
        return all(
            label_of.get(r) == label for r, label in zip(residuals, labels[idx:]) if r < bound
        )

    def extend(idx: int, residuals: list) -> Iterator[Matrix]:
        # residuals[i] belongs to src_vals[idx + i]
        if idx == len(src_vals):
            # unit vectors off the pivot columns extend the source span to F_q^n
            taken = set(rows.columns())
            yield from complete([e for j, e in enumerate(units) if j not in taken], 0)
            return
        label = labels[idx]
        r = residuals[0]
        rest = residuals[1:]
        if r < bound:
            if label_of.get(r) == label:
                charge()
                used.add(r)
                yield from extend(idx + 1, rest)
                used.remove(r)
            return
        for k in by_label[label]:
            if k in used:
                continue
            charge()
            row = rows.sub(r, k)  # (v' | -M v') for the part v' of v outside the span
            if not images.push(rows.tail(row)):
                continue
            rows.push(row)
            used.add(k)
            reduced = rows.eliminate(rest)
            if forced_images_available(idx + 1, reduced):
                yield from extend(idx + 1, reduced)
            used.remove(k)
            rows.pop()
            images.pop()

    try:
        yield from extend(0, [rows.pack(v + zeros) for v in src_vals])
    finally:
        if stats is not None:
            stats["nodes"] = nodes


# -- colour refinement for the engine's callers --------------------------------
#
# An M in GL_n maps every linear relation v = a + beta b among the values of
# src onto one among the values of dst with the same beta, and keeps
# multiplicities.  So colour each distinct value by its multiplicity, then
# repeatedly by its old colour and the multiset of (colour a, colour b,
# beta) over the relations through it, naming the new colours of src and
# dst from one table per round: the colour of v then equals the colour of
# M v for every M with M*src = dst (Weisfeiler-Leman refinement, run on the
# relations among the values instead of the edges of a graph).  Passed as
# the engine's colours, it removes only branches that hold no matching, and
# each candidate list stays a lex-ordered subsequence, so the yields and
# their order are unchanged and only the node count falls.  At q = 2 the
# relations are the zero-sum triples {a, b, a XOR b} of distinct values,
# each pair {a, b} unordered.  At q > 2 every ordered pair (a, b) is tried,
# a with coefficient 1 and b with beta in 1..q-1: listing each pair of
# values once, in the order the values come, would tie the relations to an
# order that M does not keep.  A value alone in its class keeps it, so a
# round only sorts the relations of the values that share one.


def _packed_sum(q: int, n: int) -> tuple[list[int], Callable[[int, int], int]]:
    """(lane weights, add) for vectors packed into lanes of q.bit_length() + 1 bits.

    add(x, y) is the lane-wise (x + y) mod q of two ints whose lane sums lie
    in [0, 2q - 2], such as two packed vectors: adding 2^(w-1) - q to every
    lane sets the lane's top bit exactly where its sum reaches q, and no
    lane carries into the next, so the sum costs a few int operations
    whatever n is.
    """
    w = q.bit_length() + 1
    weights = [1 << (w * t) for t in range(n)]
    ones = sum(weights)
    bias = ((1 << (w - 1)) - q) * ones
    tops = ones << (w - 1)

    def add(x: int, y: int) -> int:
        s = x + y
        return s - (((s + bias) & tops) >> (w - 1)) * q

    return weights, add


def _relations(values: Sequence[Vector], q: int) -> list[list[tuple[int, int, int]]]:
    """For each value v_i, the (j, l, beta) with v_i = v_j + beta v_l (see above)."""
    out: list[list[tuple[int, int, int]]] = [[] for _ in values]
    if q == 2:
        codes = [int.from_bytes(bytes(v), "big") for v in values]  # XOR is the sum
        index = dict(zip(codes, range(len(codes)))).get
        for j, a in enumerate(codes):
            for l in range(j + 1, len(codes)):
                i = index(a ^ codes[l])
                if i is not None and i > l:  # each triple once, for all three members
                    out[i].append((j, l, 1))
                    out[j].append((l, i, 1))
                    out[l].append((j, i, 1))
        return out
    weights, add = _packed_sum(q, len(values[0]))
    codes = [sum(map(mul, v, weights)) for v in values]
    multiples: dict[int, list[tuple[int, int]]] = {}  # beta v_l -> (l, beta)
    for l, b in enumerate(codes):
        x = b
        for beta in range(1, q):
            multiples.setdefault(x, []).append((l, beta))
            x = add(x, b)
    qs = q * sum(weights)  # q in every lane
    for j, a in enumerate(codes):
        minus_a = add(qs - a, 0)
        for i, v in enumerate(codes):
            for l, beta in multiples.get(add(v, minus_a), ()):
                out[i].append((j, l, beta))
    return out


def _refined_colours(
    src: Sequence[Vector], dst: Sequence[Vector], q: int
) -> tuple[Callable[[Vector], int], Callable[[Vector], int]] | None:
    """The joint invariant colouring above, as iter_matchings colours.

    None when the multiplicities of src and dst already differ, which the
    engine finds before its first node.  Refinement stops when the number
    of classes stops growing, when every value has a class of its own, or
    when src and dst differ in how many values carry some colour.
    """
    counts = [Counter(src)]
    if dst is not src:
        dst_count = Counter(dst)
        if dst_count != counts[0]:
            if sorted(dst_count.values()) != sorted(counts[0].values()):
                return None
            counts.append(dst_count)  # refine both, naming from one table
    colours = [list(c.values()) for c in counts]
    sizes = Counter(colours[0])
    relations = [_relations(list(c), q) for c in counts] if len(sizes) < len(colours[0]) else []
    while len(sizes) < len(colours[0]):
        names: dict[tuple, int] = {}
        refined = []
        for col, rels in zip(colours, relations):
            if q == 2:  # 1 << a | 1 << b names the unordered pair {a, b}
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


def _canonical_permutation(vectors: Sequence[Vector], k: Matrix, q: int) -> tuple[int, ...]:
    """Lex-least permutation pi with K v_i = v_{pi(i)}: ascending index blocks."""
    positions: dict[Vector, list[int]] = {}
    for i, v in enumerate(vectors):
        positions.setdefault(v, []).append(i)
    pi = [0] * len(vectors)
    images = mat_vecs(k, list(positions), q)
    for idxs, w in zip(positions.values(), images):
        for i, j in zip(idxs, positions[w]):
            pi[i] = j
    return tuple(pi)


def consistent_permutations(
    key: OwfKey,
    cap: int = 10_000,
    node_budget: int = 10**7,
) -> WitnessSearch:
    """All invertible K with K*V = V as multisets, one canonical pi per K.

    Permutations that only shuffle equal vectors add nothing (the function
    value never sees them), so each witness is a distinct K paired with its
    lexicographically least permutation.  Truncated at `cap` witnesses or
    `node_budget` search nodes with complete=False.
    """
    witnesses: list[ConsistencyWitness] = []
    complete = True
    try:
        for k in iter_matchings(
            key.vectors,
            key.vectors,
            key.q,
            key.n,
            node_budget=node_budget,
            colours=_refined_colours(key.vectors, key.vectors, key.q),
        ):
            if len(witnesses) >= cap:
                complete = False
                break
            witnesses.append(
                ConsistencyWitness(pi=_canonical_permutation(key.vectors, k, key.q), matrix=k)
            )
    except BudgetExceededError:
        complete = False
    return WitnessSearch(witnesses=witnesses, complete=complete)


def is_injective(key: OwfKey, node_budget: int = 10**7) -> bool:
    """True iff the identity is the only invertible K with K*V = V."""
    if rank(key.vectors, key.q) < key.n:
        # some K != identity fixes span(V) pointwise, except in GL_1(F_2)
        if key.n > 1 or key.q > 2:
            return False
    ident = identity(key.n)
    colours = _refined_colours(key.vectors, key.vectors, key.q)
    for k in iter_matchings(
        key.vectors, key.vectors, key.q, key.n, node_budget=node_budget, colours=colours
    ):
        if k != ident:
            return False
    return True


def invert_backtracking(
    key: OwfKey, image: OwfImage, node_budget: int = 10**6
) -> Matrix | None:
    """First invertible M with M*V = image found by the matching search.

    Returns None when the image has no preimage; raises BudgetExceededError
    when the node budget runs out first.  Every returned matrix is verified
    through evaluate.
    """
    # A key with more vectors than F_q^n has points repeats most points, with
    # varied multiplicities; the engine's multiplicity labels then reach the
    # first witness in few nodes, and refining costs more than it saves.
    # The keys of the paper are sparse (m = n + O(log^2 n)).
    colours = None
    if key.m <= key.q**key.n:
        colours = _refined_colours(key.vectors, image.vectors, key.q)
    for m in iter_matchings(
        key.vectors,
        image.vectors,
        key.q,
        key.n,
        node_budget=node_budget,
        enumerate_completions=False,
        colours=colours,
    ):
        if evaluate(key, m) == image:
            return m
    return None


def invert_exhaustive(key: OwfKey, image: OwfImage) -> Matrix | None:
    """Scan all of GL_n(F_q) for a preimage; None when the scan exhausts.

    Returns the first M in `enumerate_invertible` order with M*V = image.
    The scan reads field.gl_elements, built once per (n, q) for a small
    group, and each M*V off one row_image_table of the key.
    """
    # gl_elements holds only in-range invertible matrices, so evaluate's
    # shape, range and rank checks would be repeated work
    table = row_image_table(key.vectors, key.q)
    target = list(image.vectors)
    for m in gl_elements(key.n, key.q):
        if sorted(zip(*map(table.__getitem__, m))) == target:
            return m
    return None


def self_reduce(
    inverter: Inverter,
    key: OwfKey,
    image: OwfImage,
    trials: int,
    rng: Random,
) -> Matrix | None:
    """Invert an arbitrary image using an inverter that only works sometimes.

    Each trial maps the instance to a uniformly random one with the same key
    (left-multiplying the image by random A in GL_n), so an inverter that
    succeeds on any constant fraction of matrices succeeds here after a few
    trials.  Returns a verified preimage or None after `trials` failures.
    """
    q = key.q
    for _ in range(trials):
        a = random_invertible(key.n, q, rng)
        candidate = inverter(key, transform_image(a, image, q))
        if candidate is None:
            continue
        m = mat_mul(mat_inverse(a, q), candidate, q)
        if evaluate(key, m) == image:
            return m
    return None


def orbit_randomize(
    key: OwfKey, image: OwfImage, rng: Random
) -> tuple[OwfKey, OwfImage, Matrix]:
    """Re-randomize the key within its orbit: V' = B*V, image unchanged.

    A preimage M' of the image under the new key gives M = M'*B for the
    original one.  Returns (new key, image, B).
    """
    b = random_invertible(key.n, key.q, rng)
    vectors = tuple(mat_vecs(b, key.vectors, key.q))
    return OwfKey(q=key.q, n=key.n, vectors=vectors), image, b


@dataclass(frozen=True)
class InjectivityPoint:
    delta: int
    m: int
    trials: int
    injective: int

    @property
    def probability(self) -> float:
        return self.injective / self.trials

    @property
    def std_error(self) -> float:
        p = self.probability
        return math.sqrt(p * (1.0 - p) / self.trials)


def injectivity_experiment(
    q: int,
    n: int,
    deltas: Sequence[int],
    trials: int,
    seed: int,
) -> list[InjectivityPoint]:
    """Empirical injectivity probability per key-length surplus delta."""
    out = []
    for delta in deltas:
        hits = 0
        for t in range(trials):
            key = keygen(q, n, delta=delta, rng=spawn_rng(seed, "inj", delta, t))
            if is_injective(key):
                hits += 1
        out.append(InjectivityPoint(delta=delta, m=n + delta, trials=trials, injective=hits))
    return out
