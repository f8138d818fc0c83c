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
from typing import Callable, Iterator, NamedTuple, Sequence

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
    """Key-length surplus ceil(A ln^2 n) with A = 5 / ln^2 q.

    Raises ValueError unless q is a prime below 256, before ln q is taken.
    """
    validate_modulus(q)
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
# invertible M with M*src = dst as multisets.  The engine body (_matchings)
# reads one label per distinct value of each side and lets v map to w only
# when their labels are equal; it ends before its first node when src and
# dst differ in how many values carry some label, which the labelling
# reports by setting the dst labels to None.  Public iter_matchings labels
# each value by its multiplicity, or (multiplicity, colour) under an
# optional colouring (src_colour, dst_colour), as the bilinear reduction
# passes them.  Inversion, injectivity, the witness enumeration and the
# graph search pass instead the labels of the colour refinement below
# (_refined_colours), which the body reads as they are: a refined colour
# already implies the multiplicity, and the refinement compares the class
# counts itself.  They still call iter_matchings, so a tracer that rebinds
# that name sees every search.  Any M with M*src = dst maps every relation
# v = a + beta b among the values onto one with the same beta, so M keeps
# the refined colours, only branches without a matching go, and the yields
# and their order stay as they are; node counts fall, so a node_budget
# reaches further.  Distinct source values are assigned targets in first-appearance order,
# candidates in lexicographic order.  Assigning v -> w pushes the row
# (v | -M v), reduced, onto a field.Echelon whose pivots lie in the v-part;
# a second Echelon over the images of the pivots rejects an assignment that
# would make M singular.  Each source value not yet assigned keeps a
# residual, (v | 0) reduced against the pivots; a push reduces every
# residual against the new pivot only.  A residual with a zero v-part is
# (0 | M v): the value lies in the assigned span and its image is forced.
# So the lookahead scans the residuals and prunes the branch when a forced
# image is missing from dst or has the wrong label.  A forced image cannot
# collide with an assigned or another forced one: the pivots' images are
# independent, so M is injective on the assigned span.  Packed rows are
# hashable, and a zero-v-part residual is the key of its image.  When the
# source values do not span, the unit vectors off the pivot columns
# complete them, each pushed with an image that keeps M invertible: the
# first such image only (one witness per leaf) or every one.  At a leaf the
# pivots span the v-part, so (e_j | 0) reduces to (0 | M e_j), column j of
# M.  stats["nodes"] receives the nodes charged, however the search ends.


class _Labels(NamedTuple):
    """The engine's labels: each distinct value of a side -> its label.

    src lists the source values in first-appearance order, the order the
    engine assigns them in.  dst is None when the two sides differ in how
    many values carry some label, so that nothing matches.
    """

    src: dict
    dst: dict | None


def iter_matchings(
    src: Sequence[Vector],
    dst: Sequence[Vector],
    q: int,
    n: int,
    node_budget: int | None = None,
    enumerate_completions: bool = True,
    colours: tuple[Callable[[Vector], object], Callable[[Vector], object]] | _Labels | None = None,
    stats: dict | None = None,
) -> Iterator[Matrix]:
    """Every invertible M with M*src = dst as multisets (see above).

    colours is (src_colour, dst_colour), or the labels _refined_colours
    returned for this src and dst.
    """
    if not isinstance(colours, _Labels):
        src_label, dst_label = Counter(src), Counter(dst)  # no colouring: the multiplicity
        if colours is not None:
            src_colour, dst_colour = colours
            src_label = {v: (c, src_colour(v)) for v, c in src_label.items()}
            dst_label = {w: (c, dst_colour(w)) for w, c in dst_label.items()}
        if Counter(src_label.values()) != Counter(dst_label.values()):
            dst_label = None
        colours = _Labels(src_label, dst_label)
    yield from _matchings(colours, q, n, node_budget, enumerate_completions, stats)


def _matchings(
    labels: _Labels,
    q: int,
    n: int,
    node_budget: int | None,
    enumerate_completions: bool,
    stats: dict | None,
) -> Iterator[Matrix]:
    if labels.dst is None:
        if stats is not None:
            stats["nodes"] = 0
        return
    src_vals = list(labels.src)  # first-appearance order
    src_labels = list(labels.src.values())
    rows = Echelon(q, n, n)
    images = Echelon(q, n)
    bound = rows.bound
    zeros = (0,) * n
    units = identity(n)
    label_of = {rows.pack(zeros + w): label for w, label in labels.dst.items()}
    by_label: dict = {}  # label -> keys (0 | w), lex order of w
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
            label_of.get(r) == label for r, label in zip(residuals, src_labels[idx:]) if r < bound
        )

    def extend(idx: int, residuals: list) -> Iterator[Matrix]:
        # residuals[i] belongs to src_vals[idx + i]
        if idx == len(src_vals):
            # unit vectors off the pivot columns extend the source span to F_q^n
            taken = set(rows.columns())
            yield from complete([e for j, e in enumerate(units) if j not in taken], 0)
            return
        label = src_labels[idx]
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
# the engine's labels, it removes only branches that hold no matching, and
# each candidate list stays a lex-ordered subsequence, so the yields and
# their order are unchanged and only the node count falls.  At q = 2 the
# relations are the zero-sum triples {a, b, a XOR b} of distinct values,
# each pair {a, b} unordered.  At q > 2 they are every (a, b, beta) with
# v = a + beta b, a and b ordered and beta in 1..q-1: listing each pair of
# values once, in the order the values come, would tie the relations to an
# order that M does not keep.  One lane-packed difference per unordered
# pair {v, a} finds them: v - a = beta b gives v the relation (a, b, beta)
# and a the relation (v, b, q - beta), and a zero value z gives each v the
# relations (v, z, beta) once.  A relation enters a round's signature as one
# int at every q.  A value alone in its class keeps it, so a round only
# sorts the relations of the values that share one.  Cost (process_time on
# 2 vCPUs, Python 3.11): at q = 3, n = 3 (m = 8) the relations take about
# 16 us a side and a two-sided refinement about 73 us, nearly half of an
# inversion call; the rounds, not the relations, are most of it.


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
    # Vectors packed into lanes of w bits: a lane then holds any sum up to
    # 2q - 1 without carrying into the next, and adding 2^(w-1) - q to every
    # lane sets its top bit exactly where its sum reaches q, so a lane-wise
    # reduction mod q costs a few int operations whatever n is.
    w = q.bit_length() + 1
    weights = [1 << (w * t) for t in range(len(values[0]))]
    ones = sum(weights)
    bias, tops, top = ((1 << (w - 1)) - q) * ones, ones << (w - 1), w - 1
    codes = [sum(map(mul, v, weights)) for v in values]
    multiples: dict[int, list[tuple[int, int]]] = {}  # beta v_l -> (l, beta)
    for l, b in enumerate(codes):
        x = b
        for beta in range(1, q):
            multiples.setdefault(x, []).append((l, beta))
            x += b
            x -= (((x + bias) & tops) >> top) * q
    for l, beta in multiples.get(0, ()):  # v_i = v_i + beta * 0
        for i, rels in enumerate(out):
            rels.append((i, l, beta))
    get = multiples.get
    qs = q * ones  # q in every lane
    for i, a in enumerate(codes):
        rels = out[i]
        a += qs
        for j in range(i + 1, len(codes)):
            d = a - codes[j]  # v_i - v_j, lanes in [1, 2q - 1] before the reduction
            hits = get(d - (((d + bias) & tops) >> top) * q)
            if hits:
                for l, beta in hits:
                    rels.append((j, l, beta))
                    out[j].append((i, l, q - beta))
    return out


def _refined_colours(src: Sequence[Vector], dst: Sequence[Vector], q: int) -> _Labels:
    """The joint invariant colouring above, as the engine's labels.

    The labels' dst is None when src and dst differ in their multiplicities
    or, after some round, in how many values carry some colour: then no M
    maps src onto dst.  Refinement stops there, when the number of classes
    stops growing, or when every value has a class of its own.
    """
    counts = [Counter(src)]
    if dst is not src:
        dst_count = Counter(dst)
        if dst_count != counts[0]:
            if sorted(dst_count.values()) != sorted(counts[0].values()):
                return _Labels(counts[0], None)
            counts.append(dst_count)  # refine both, naming from one table
    colours = [list(c.values()) for c in counts]
    sizes = Counter(colours[0])
    relations = [_relations(list(c), q) for c in counts] if len(sizes) < len(colours[0]) else []
    span = len(src) + len(dst) + 1  # above every multiplicity and every name
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
            else:  # (a * span + b) * q + beta names (a, b, beta)
                high = [c * span * q for c in col]
                low = [c * q for c in col]
                sigs = [
                    [high[j] + low[l] + beta for j, l, beta in r] if sizes[c] > 1 else ()
                    for c, r in zip(col, rels)
                ]
            refined.append([names.setdefault((c, *sorted(s)), len(names)) for c, s in zip(col, sigs)])
        colours = refined
        if len(names) == len(sizes):
            break  # each old class kept one name, so the counts still agree
        if len(refined) > 1 and sorted(refined[0]) != sorted(refined[1]):
            return _Labels(counts[0], None)
        sizes = Counter(refined[0])
    labels = [dict(zip(c, col)) for c, col in zip(counts, colours)]
    return _Labels(labels[0], labels[-1])


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
    when the node budget runs out first, and ValueError when an image vector
    has the wrong length or an entry outside [0, q).  Every returned matrix
    is verified through evaluate.
    """
    if set(map(len, image.vectors)) - {key.n}:
        raise ValueError("image vector of wrong length")
    check_entries(image.vectors, key.q, "image vector")
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
