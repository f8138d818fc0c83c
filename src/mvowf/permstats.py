"""Permutation statistics by minimum transposition count.

The polynomial sum_{pi in S_k} z^(transpositions of pi) factors exactly as
prod_{j=0}^{k-1} (1 + j z); enumeration and product form are both provided,
plus the analytic upper bound with an explicit constant and the experiment
measuring how many permutations of a random vector multiset preserve all
inner products against a small projection family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .field import Vector, mat_vecs, random_invertible, random_vector, rank, validate_modulus
from .rng import spawn_rng

Poly = tuple[Fraction, ...]


def cycle_count(p: Sequence[int]) -> int:
    seen = [False] * len(p)
    cycles = 0
    for i in range(len(p)):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
    return cycles


def transposition_count(p: Sequence[int]) -> int:
    """Minimum transpositions writing p: k minus the number of cycles."""
    if sorted(p) != list(range(len(p))):
        raise ValueError("not a permutation of 0..k-1")
    return len(p) - cycle_count(p)


def transposition_poly_enumerated(k: int) -> Poly:
    """Coefficient c_t = number of permutations of S_k needing t transpositions."""
    if k > 9:
        raise ValueError("enumeration capped at k = 9")
    coeffs = [0] * k
    import itertools

    for p in itertools.permutations(range(k)):
        coeffs[k - cycle_count(p)] += 1
    return tuple(Fraction(c) for c in coeffs)


def transposition_poly_product(k: int) -> Poly:
    """The same polynomial as the exact product prod_{j=0}^{k-1} (1 + j z)."""
    coeffs = [Fraction(1)]
    for j in range(1, k):
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d] += c
            nxt[d + 1] += c * j
        coeffs = nxt
    return tuple(coeffs)


def poly_eval(coeffs: Poly, z: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


@dataclass(frozen=True)
class BoundCheck:
    k: int
    z: float
    lhs: float
    rhs: float

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs


def transposition_poly_bound(k: int, z: float) -> BoundCheck:
    """Check the analytic bound e sqrt(k) e^-k (1 - zk)^(-1/z) on the polynomial.

    Valid for 0 < z < 1/k; the constant e comes from k! <= e sqrt(k) (k/e)^k,
    so the inequality is exact, not asymptotic.
    """
    if not 0 < z < 1 / k:
        raise ValueError(f"need 0 < z < 1/{k}")
    lhs = float(poly_eval(transposition_poly_product(k), Fraction(z)))
    rhs = math.e * math.sqrt(k) * math.exp(-k) * (1.0 - z * k) ** (-1.0 / z)
    return BoundCheck(k=k, z=z, lhs=lhs, rhs=rhs)


def signature_table(
    ws: Sequence[Vector], gs: Sequence[Vector], q: int
) -> dict[tuple[int, ...], int]:
    """Class sizes of the multiset under the projection w -> (<g, w>)_g."""
    classes: dict[tuple[int, ...], int] = {}
    # an empty family (m = 1) gives every w the empty signature
    for sig in mat_vecs(gs, ws, q):
        classes[sig] = classes.get(sig, 0) + 1
    return classes


def count_signature_preserving(ws: Sequence[Vector], gs: Sequence[Vector], q: int) -> int:
    """Number of permutations of ws whose signatures all match: prod class!."""
    out = 1
    for size in signature_table(ws, gs, q).values():
        out *= math.factorial(size)
    return out


@dataclass(frozen=True)
class SignatureAmbiguity:
    n: int
    m: int
    q: int
    trials: int
    mean: float
    max: int

    @property
    def mean_over_sqrt_m(self) -> float:
        return self.mean / math.sqrt(self.m)


def projection_family_size(m: int) -> int:
    return 2 * math.ceil(math.log2(m))


def sample_projection_family(n: int, q: int, size: int, rng) -> list[Vector]:
    """Independent uniform vectors, redrawn until linearly independent."""
    if size > n:
        raise ValueError(f"cannot fit {size} independent vectors in dimension {n}")
    while True:
        gs = [random_vector(n, q, rng) for _ in range(size)]
        if rank(tuple(gs), q) == size:
            return gs


def signature_ambiguity_experiment(
    n: int, m: int, q: int, trials: int, seed: int
) -> SignatureAmbiguity:
    """Sample (V, M, G); measure how many shuffles of M*V preserve signatures."""
    validate_modulus(q)
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n = {n}, m = {m}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    size = projection_family_size(m)
    total = 0
    worst = 0
    for t in range(trials):
        rng = spawn_rng(seed, "sig", t)
        vs = [random_vector(n, q, rng) for _ in range(m)]
        mat = random_invertible(n, q, rng)
        ws = mat_vecs(mat, vs, q)
        gs = sample_projection_family(n, q, size, rng)
        count = count_signature_preserving(ws, gs, q)
        total += count
        worst = max(worst, count)
    return SignatureAmbiguity(
        n=n, m=m, q=q, trials=trials, mean=total / trials, max=worst
    )
