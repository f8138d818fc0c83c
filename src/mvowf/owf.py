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
from random import Random
from typing import Callable, Iterator, Sequence

from .field import (
    Echelon,
    Matrix,
    SingularMatrixError,
    Vector,
    check_entries,
    enumerate_invertible,
    enumerate_vectors,
    identity,
    mat_inverse,
    mat_mul,
    mat_vecs,
    rank,
    random_invertible,
    random_vector,
    solve_linear,
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
# Core engine shared by witness enumeration, injectivity, inversion and the
# graph-isomorphism search: yield every invertible M with M*src = dst as
# multisets.  Distinct source values are assigned targets in first-appearance
# order, candidates in lexicographic order.  Assigning v -> w pushes the row
# (v | -M v), reduced, onto a field.Echelon whose pivots lie in the v-part; a
# second Echelon over the images of the pivots rejects an assignment that
# would make M singular.  Each source value not yet assigned keeps a
# residual, (v | 0) reduced against the pivots; a push reduces every residual
# against the new pivot only.  A residual with a zero v-part is (0 | M v):
# the value lies in the assigned span and its image is forced.  So the
# lookahead scans the residuals and prunes the branch when a forced image is
# missing from dst or has the wrong multiplicity.  A forced image cannot
# collide with an assigned or another forced one: the pivots' images are
# independent, so M is injective on the assigned span.  Packed rows are
# hashable, and a zero-v-part residual is the key of its image.  When the
# source values do not span, the remaining degrees of freedom are either
# completed greedily (one witness per leaf) or enumerated.


def iter_matchings(
    src: Sequence[Vector],
    dst: Sequence[Vector],
    q: int,
    n: int,
    node_budget: int | None = None,
    enumerate_completions: bool = True,
) -> Iterator[Matrix]:
    src_count = Counter(src)
    dst_count = Counter(dst)
    if sum(src_count.values()) != sum(dst_count.values()):
        return
    src_vals = list(dict.fromkeys(src))
    mults = [src_count[v] for v in src_vals]
    rows = Echelon(q, n, n)
    images = Echelon(q, n)
    bound = rows.bound
    zeros = (0,) * n
    target = {rows.pack(zeros + w): w for w in sorted(dst_count)}  # key (0 | w) -> w
    count = {k: dst_count[w] for k, w in target.items()}
    by_mult: dict[int, list[tuple[Vector, object]]] = {}
    for k, w in target.items():
        by_mult.setdefault(count[k], []).append((w, k))

    nodes = 0
    used: set = set()  # keys of the assigned images
    pairs: list[tuple[Vector, Vector]] = []

    def charge() -> None:
        nonlocal nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetExceededError(f"matching search exceeded {node_budget} nodes")

    def solve_from_pairs(extra: list[tuple[Vector, Vector]]) -> Matrix:
        vs = [p[0] for p in pairs] + [p[0] for p in extra]
        ws = [p[1] for p in pairs] + [p[1] for p in extra]
        return solve_linear(vs, ws, q)

    def complete(free_sources: list[Vector]) -> Iterator[Matrix]:
        # assign images to basis vectors outside span(src); any choice keeping
        # the image side independent yields a valid M
        if not free_sources:
            yield solve_from_pairs([])
            return

        # when one completion is wanted, the lex-first image outside the span
        # is the highest-index unit vector outside it (see
        # field.solve_linear_invertible), so only unit vectors are tried
        units = identity(n)[::-1]

        def choose(idx: int, extra: list[tuple[Vector, Vector]]) -> Iterator[Matrix]:
            if idx == len(free_sources):
                yield solve_from_pairs(extra)
                return
            for y in enumerate_vectors(n, q) if enumerate_completions else units:
                if not images.push(images.pack(y)):
                    continue
                charge()
                yield from choose(idx + 1, extra + [(free_sources[idx], y)])
                images.pop()
                if not enumerate_completions:
                    return

        yield from choose(0, [])

    def free_basis() -> list[Vector]:
        # unit vectors off the pivot columns extend the source span to F_q^n
        taken = set(rows.columns())
        return [
            tuple(1 if i == j else 0 for i in range(n))
            for j in range(n)
            if j not in taken
        ]

    def forced_images_available(idx: int, residuals: list) -> bool:
        return all(count.get(r) == mult for r, mult in zip(residuals, mults[idx:]) if r < bound)

    def extend(idx: int, residuals: list) -> Iterator[Matrix]:
        # residuals[i] belongs to src_vals[idx + i]
        if idx == len(src_vals):
            yield from complete(free_basis())
            return
        v = src_vals[idx]
        mult = mults[idx]
        r = residuals[0]
        rest = residuals[1:]
        if r < bound:
            if count.get(r) == mult:
                charge()
                used.add(r)
                pairs.append((v, target[r]))
                yield from extend(idx + 1, rest)
                pairs.pop()
                used.remove(r)
            return
        for w, k in by_mult.get(mult, []):
            if k in used:
                continue
            charge()
            row = rows.sub(r, k)  # (v' | -M v') for the part v' of v outside the span
            if not images.push(rows.tail(row)):
                continue
            rows.push(row)
            used.add(k)
            pairs.append((v, w))
            reduced = rows.eliminate(rest)
            if forced_images_available(idx + 1, reduced):
                yield from extend(idx + 1, reduced)
            pairs.pop()
            used.remove(k)
            rows.pop()
            images.pop()

    yield from extend(0, [rows.pack(v + zeros) for v in src_vals])


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
            key.vectors, key.vectors, key.q, key.n, node_budget=node_budget
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
    for k in iter_matchings(key.vectors, key.vectors, key.q, key.n, node_budget=node_budget):
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
    for m in iter_matchings(
        key.vectors,
        image.vectors,
        key.q,
        key.n,
        node_budget=node_budget,
        enumerate_completions=False,
    ):
        if evaluate(key, m) == image:
            return m
    return None


def invert_exhaustive(key: OwfKey, image: OwfImage) -> Matrix | None:
    """Scan all of GL_n(F_q) for a preimage; None when the scan exhausts."""
    # enumerate_invertible yields only in-range invertible matrices, so
    # evaluate's shape, range and rank checks would be repeated work
    for m in enumerate_invertible(key.n, key.q):
        if tuple(sorted(mat_vecs(m, key.vectors, key.q))) == image.vectors:
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
