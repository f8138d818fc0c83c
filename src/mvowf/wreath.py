"""Hidden shift and hidden subgroup instances over GL_n and its wreath square.

Inverting the sorted-multiset function is a hidden shift problem: f1(N) is
the image of N under the key, f2(N) the image of N times the secret matrix.
The standard wreath-product construction turns that into a hidden subgroup
instance.  Multiplication of (g1, g2, swap) triples is defined as the
pullback of 2n x 2n block-matrix multiplication, which makes associativity
and the embedding homomorphism hold by construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .field import (
    TABLE_BOUND,
    Matrix,
    SingularMatrixError,
    enumeration_cap,
    gl_elements,
    gl_order,
    identity,
    is_invertible_cached,
    mat_inverse,
    mat_mul,
    transpose,
)
from .owf import OwfImage, OwfKey, evaluate, is_injective, row_image_table


@dataclass(frozen=True, slots=True)
class WreathElement:
    """Pair of invertible blocks plus a swap bit."""

    g1: Matrix
    g2: Matrix
    swap: int

    def __post_init__(self) -> None:
        if self.swap not in (0, 1):
            raise ValueError("swap must be 0 or 1")
        if len(self.g1) != len(self.g2):
            raise ValueError("blocks must have equal dimension")


def wreath_identity(n: int) -> WreathElement:
    return WreathElement(identity(n), identity(n), 0)


def wreath_mul(x: WreathElement, y: WreathElement, q: int) -> WreathElement:
    """Product matching embed(x) * embed(y); x.swap = 1 crosses y's blocks."""
    if len(x.g1) != len(y.g1):
        raise ValueError("dimension mismatch")
    if x.swap == 0:
        return WreathElement(mat_mul(x.g1, y.g1, q), mat_mul(x.g2, y.g2, q), y.swap)
    return WreathElement(mat_mul(x.g1, y.g2, q), mat_mul(x.g2, y.g1, q), 1 ^ y.swap)


def wreath_inverse(x: WreathElement, q: int) -> WreathElement:
    inv1, inv2 = mat_inverse(x.g1, q), mat_inverse(x.g2, q)
    if x.swap == 0:
        return WreathElement(inv1, inv2, 0)
    return WreathElement(inv2, inv1, 1)


def embed_gl2n(x: WreathElement) -> Matrix:
    """Block-diagonal for swap = 0, block-anti-diagonal for swap = 1."""
    n = len(x.g1)
    zero = (0,) * n
    if x.swap == 0:
        top = [row + zero for row in x.g1]
        bottom = [zero + row for row in x.g2]
    else:
        top = [zero + row for row in x.g1]
        bottom = [row + zero for row in x.g2]
    return tuple(top + bottom)


def enumerate_wreath(n: int, q: int) -> Iterator[WreathElement]:
    """All 2 * |GL_n|^2 elements, g1 slowest and the swap bit fastest.

    When there are at most field.TABLE_BOUND of them they are built once per
    process and kept as a tuple; otherwise they are built as they are read.
    """
    gl = gl_elements(n, q)  # checks the enumeration cap on every call
    if 2 * gl_order(n, q) ** 2 <= TABLE_BOUND:
        yield from _wreath_table(n, q)
    else:
        yield from _wreath_product(tuple(gl))


@lru_cache(maxsize=None)
def _wreath_table(n: int, q: int) -> tuple[WreathElement, ...]:
    return tuple(_wreath_product(gl_elements(n, q)))


def _wreath_product(gl: Sequence[Matrix]) -> Iterator[WreathElement]:
    for g1 in gl:
        for g2 in gl:
            for swap in (0, 1):
                yield WreathElement(g1, g2, swap)


@dataclass(frozen=True)
class HiddenShiftInstance:
    """f1, f2 on GL_n with f2(N) = f1(N * shift); shift kept for verification."""

    f1: Callable[[Matrix], OwfImage]
    f2: Callable[[Matrix], OwfImage]
    shift: Matrix


def _memoised_evaluate(key: OwfKey) -> Callable[[Matrix], OwfImage]:
    """evaluate(key, .) remembering each image; errors are raised, not stored.

    A block is looked up as given first; only a miss, or a block that cannot
    be hashed (rows given as lists), builds the tuple-of-tuples key.  A new
    block is checked as evaluate checks it, for its shape and then through
    is_invertible_cached, which rejects an entry outside [0, q) with
    ValueError; its image is read off one row_image_table of the key.
    """
    n, q = key.n, key.q
    rows = row_image_table(key.vectors, q).__getitem__
    memo: dict[Matrix, OwfImage] = {}

    def f(n_mat: Matrix) -> OwfImage:
        try:
            return memo[n_mat]
        except (KeyError, TypeError):
            index = tuple(map(tuple, n_mat))
        if index not in memo:
            if len(index) != n or any(len(row) != n for row in index):
                raise ValueError("matrix has wrong shape for this key")
            if not is_invertible_cached(index, q):
                raise SingularMatrixError("evaluation domain is GL_n; matrix is singular")
            memo[index] = OwfImage(tuple(sorted(zip(*map(rows, index)))))
        return memo[index]

    return f


def make_hidden_shift(key: OwfKey, m: Matrix) -> HiddenShiftInstance:
    """Hidden shift pair: f1 from the key alone, f2 through the secret M.

    Each function computes the image of a given block once per instance: a
    scan of the 2 |GL_n|^2 wreath elements reads only 2 |GL_n| distinct
    values, each off a row table of its key (f2's key is the image of M).
    """
    image = evaluate(key, m)  # also rejects singular M
    shifted_key = OwfKey(q=key.q, n=key.n, vectors=image.vectors)
    return HiddenShiftInstance(
        f1=_memoised_evaluate(key), f2=_memoised_evaluate(shifted_key), shift=m
    )


_NEW = object()


@dataclass(frozen=True)
class HspInstance:
    """Oracle constant exactly on right cosets of the order-2 subgroup."""

    f: Callable[[WreathElement], tuple[OwfImage, OwfImage]]
    subgroup: tuple[WreathElement, WreathElement]


def make_hsp_oracle(key: OwfKey, m: Matrix) -> HspInstance:
    """Wreath-product oracle hiding {identity, (M^-1, M, 1)}.

    The hidden coset structure is exact only for injective keys; otherwise
    extra collisions appear and the instance only promises one direction.
    """
    if not is_injective(key):
        warnings.warn("key is not injective: hidden subgroup promise is one-sided")
    shift = make_hidden_shift(key, m)
    alpha = WreathElement(mat_inverse(m, key.q), m, 1)

    def f(x: WreathElement) -> tuple[OwfImage, OwfImage]:
        if x.swap == 0:
            return shift.f1(x.g1), shift.f2(x.g2)
        return shift.f2(x.g1), shift.f1(x.g2)

    return HspInstance(f=f, subgroup=(wreath_identity(key.n), alpha))


def verify_hsp_promise(inst: HspInstance, n: int, q: int) -> bool:
    """Exhaustively check f(x) = f(y) iff x^-1 y is in the subgroup.

    Equivalent to the all-pairs comparison: grouping elements by value, the
    promise holds exactly when every value class is one right coset {x, x*a}.
    A class is keyed by the plain vector tuples of its two images and keeps
    only its first member x: the second is checked against x*a when it
    arrives, a third fails at once, and a class left with one member fails
    at the end.  Each block of x*a is g*a1 or g*a2 for a block g of GL_n;
    row i of g*a is (row i of g)*a, read off one row_image_table of the
    columns of a per block of a.
    """
    order = 2 * gl_order(n, q) ** 2
    if order > enumeration_cap():
        raise ValueError(f"group order {order} too large for exhaustive check")
    _, alpha = inst.subgroup
    # times[i][r] = r * (block i of alpha), for every row r of F_q^n
    times = [row_image_table(transpose(a), q).__getitem__ for a in (alpha.g1, alpha.g2)]
    first: dict = {}  # value -> the class's first member, or None once it has two
    for y in enumerate_wreath(n, q):
        f1, f2 = inst.f(y)
        value = (f1.vectors, f2.vectors)
        x = first.get(value, _NEW)
        if x is _NEW:
            first[value] = y
            continue
        # x*a as in wreath_mul: x.swap = 1 crosses a's blocks
        if (
            x is None
            or y.swap != x.swap ^ alpha.swap
            or y.g1 != tuple(map(times[x.swap], x.g1))
            or y.g2 != tuple(map(times[1 ^ x.swap], x.g2))
        ):
            return False
        first[value] = None
    return all(x is None for x in first.values())
