"""Exact dense linear algebra over a prime field F_q.

Vectors are tuples of ints in [0, q), matrices are tuples of row tuples.
Everything is immutable and hashable; tuple comparison gives the
lexicographic order (index 0 most significant) used for canonical images.

Matrix-vector products have one kernel, `mat_vecs`, which does the
per-matrix work once for a whole batch of vectors.  For q = 2 each row of M
is an int whose bit j is column j, and coordinate i of M v is the parity of
popcount(row_i & v).  For q > 2 column j of M is one int holding M[i][j] in
lane i, each lane w = (n (q-1)^2).bit_length() bits wide for an M with n
columns; M v is the sum of v_j times column j, and since no lane can exceed
n (q-1)^2 no lane carries into the next, so coordinate i is lane i mod q.
`rank` and `mat_inverse` use the same int-packed rows at q = 2 (XOR row
ops).

`Echelon` is the one incremental elimination: `push` reduces a row against
the pivots so far and records it as a new pivot unless it is dependent, and
`pop` undoes the latest push.  It runs under the matching search
(`owf.iter_matchings`), `enumerate_invertible` and `solve_linear_invertible`.
A row may carry `extra` coordinates after its n head coordinates, the right
hand side of an augmented system: pivots lie in the head only, and a row
counts as dependent when its head reduces to zero.  At q = 2 a row is one
int with coordinate 0 at the top bit, so XOR is the row operation and a
pivot's top bit is its column; at q > 2 a row is a tuple, and each pivot is
normalised to 1 at its column.  Either way packed rows compare like the
vectors they pack (index 0 most significant), so a row's head is zero
exactly when the row lies below `Echelon.bound`.

Every routine that reads entries (`rank`, `mat_inverse`, `solve_linear`,
`Echelon.pack`, `check_entries`) rejects one outside [0, q) with
ValueError, at the step that already visits it.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import chain
from operator import mul
from random import Random
from typing import Iterator, Sequence

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

DEFAULT_ENUM_CAP = 2**24


class SingularMatrixError(ValueError):
    """Matrix expected to be invertible has rank < n."""


class NoSolutionError(ValueError):
    """Linear constraints are inconsistent."""


class UnderdeterminedError(ValueError):
    """Linear constraints do not pin down a unique solution."""


class EnumerationCapError(ValueError):
    """Requested exhaustive enumeration exceeds the configured cap."""


def enumeration_cap() -> int:
    """Exhaustive-enumeration size limit; override via MVOWF_ENUM_CAP."""
    raw = os.environ.get("MVOWF_ENUM_CAP")
    return int(raw) if raw else DEFAULT_ENUM_CAP


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def validate_modulus(q: int) -> None:
    """Require a small prime modulus (byte-sized scalars)."""
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")
    if q >= 256:
        raise ValueError(f"modulus {q} too large (need q < 256)")


@lru_cache(maxsize=None)
def _inverse_table(q: int) -> tuple[int, ...]:
    # index 0 unused; pow(a, -1, q) is exact for prime q
    return (0,) + tuple(pow(a, -1, q) for a in range(1, q))


@lru_cache(maxsize=None)
def _digits(q: int) -> dict[int, int]:
    # the entries of F_q; a lookup fails exactly on an entry outside [0, q)
    return {a: a for a in range(q)}


def check_entries(rows: Sequence[Vector], q: int, what: str) -> None:
    """Raise ValueError unless every entry of rows lies in [0, q)."""
    if not all(map(_digits(q).__contains__, chain.from_iterable(rows))):
        raise ValueError(f"{what} entry out of range for q = {q}")


def _rows_in_range(rows: Sequence[Vector], q: int) -> list[list[int]]:
    """Rows copied to lists; ValueError when an entry lies outside [0, q)."""
    get = _digits(q).__getitem__
    try:
        return [list(map(get, row)) for row in rows]
    except KeyError as e:
        raise ValueError(f"entry {e.args[0]!r} out of range for q = {q}") from None


def scalar_inv(a: int, q: int) -> int:
    if a % q == 0:
        raise ZeroDivisionError("no inverse of 0")
    return _inverse_table(q)[a % q]


def inner_product(a: Vector, b: Vector, q: int) -> int:
    """Sum of a_i * b_i mod q."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if q == 2:
        return (_pack(a) & _pack(b)).bit_count() & 1
    return sum(x * y for x, y in zip(a, b)) % q


def is_zero_vector(a: Vector) -> bool:
    return not any(a)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def mat_vecs(m: Matrix, vs: Sequence[Vector], q: int) -> list[Vector]:
    """M v for every v in vs, in order; entries of m and vs lie in [0, q)."""
    n = len(m[0])
    if set(map(len, vs)) - {n}:
        raise ValueError("dimension mismatch")
    if q == 2:
        rows = _pack_rows(m)
        weights = [1 << j for j in range(n)]
        return [
            tuple([(row & x).bit_count() & 1 for row in rows])
            for x in (sum(map(mul, v, weights)) for v in vs)
        ]
    width = (n * (q - 1) ** 2).bit_length()
    mask = (1 << width) - 1
    shifts = range(0, width * len(m), width)
    cols = [sum(e << s for e, s in zip(col, shifts)) for col in zip(*m)]
    out = []
    for v in vs:
        acc = 0
        for col, x in zip(cols, v):
            if x:
                acc += col * x
        out.append(tuple([(acc >> s & mask) % q for s in shifts]))
    return out


def mat_vec(m: Matrix, v: Vector, q: int) -> Vector:
    return mat_vecs(m, (v,), q)[0]


def mat_mul(a: Matrix, b: Matrix, q: int) -> Matrix:
    return tuple(zip(*mat_vecs(a, tuple(zip(*b)), q)))


# -- int-packed GF(2) rows: bit j of the int is column j --------------------


def _pack(v: Vector) -> int:
    x = 0
    for j, e in enumerate(v):
        if e:
            if e != 1:
                raise ValueError(f"entry {e!r} out of range for q = 2")
            x |= 1 << j
    return x


def _unpack(x: int, n: int) -> Vector:
    return tuple((x >> j) & 1 for j in range(n))


def _pack_rows(m: Matrix) -> list[int]:
    return [_pack(row) for row in m]


def _rank_f2(rows: list[int]) -> int:
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
    return len(pivots)


def rank(m: Matrix, q: int) -> int:
    """Row rank by Gaussian elimination."""
    if q == 2:
        return _rank_f2(_pack_rows(m))
    work = _rows_in_range(m, q)
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


def is_invertible(m: Matrix, q: int) -> bool:
    return len(m) == len(m[0]) and rank(m, q) == len(m)


def mat_inverse(m: Matrix, q: int) -> Matrix:
    """Inverse by Gauss-Jordan; raises SingularMatrixError when rank < n."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if q == 2:
        # augmented rows packed as one int: low n bits matrix, high n bits identity
        work = [_pack(row) | (1 << (n + i)) for i, row in enumerate(m)]
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
        return tuple(_unpack(work[i] >> n, n) for i in range(n))
    work = [
        row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(_rows_in_range(m, q))
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


def solve_linear(vs: Sequence[Vector], ws: Sequence[Vector], q: int) -> Matrix:
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
    work = [v + w for v, w in zip(_rows_in_range(vs, q), _rows_in_range(ws, q))]
    pivot_col: list[int] = []
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


# -- incremental echelon -----------------------------------------------------


class Echelon:
    """Row echelon form over F_q built one row at a time, with an undo stack.

    Rows have n head coordinates followed by `extra` carried ones and are
    packed by `pack` (module docstring).  A pivot's column is its
    lowest-index nonzero head coordinate, and every pivot is zero at the
    columns of the pivots pushed before it.
    """

    def __new__(cls, q: int, n: int, extra: int = 0):
        if cls is Echelon and q == 2:
            cls = _PackedEchelon
        return super().__new__(cls)

    def __init__(self, q: int, n: int, extra: int = 0) -> None:
        self.q = q
        self.n = n
        self.pivots: list[tuple[int, tuple[int, ...]]] = []  # (column, row)
        self.bound = (0,) * (n - 1) + (1,)  # least row with a nonzero head
        self.zero = (0,) * (n + extra)

    def __len__(self) -> int:
        return len(self.pivots)

    def pack(self, v: Vector):
        return tuple(_rows_in_range((v,), self.q)[0])

    def reduce(self, row):
        """row minus the multiples of the pivots that clear their columns."""
        q = self.q
        for c, p in self.pivots:
            f = row[c]
            if f:
                row = tuple([(a - f * b) % q for a, b in zip(row, p)])
        return row

    def push(self, row) -> bool:
        """Reduce row and record it as a pivot; False, and no change, if its head reduces to 0."""
        row = self.reduce(row)
        if row < self.bound:
            return False
        for c, lead in enumerate(row):
            if lead:
                break
        if lead != 1:
            q = self.q
            inv = _inverse_table(q)[lead]
            row = tuple([(a * inv) % q for a in row])
        self.pivots.append((c, row))
        return True

    def pop(self) -> None:
        """Undo the latest successful push."""
        self.pivots.pop()

    def eliminate(self, rows: list) -> list:
        """Each row reduced against the latest pivot only."""
        q = self.q
        c, p = self.pivots[-1]
        out = []
        for row in rows:
            f = row[c]
            if f:
                row = tuple([(a - f * b) % q for a, b in zip(row, p)])
            out.append(row)
        return out

    def sub(self, a, b):
        """Packed a - b."""
        return tuple([(x - y) % self.q for x, y in zip(a, b)])

    def tail(self, row):
        """The carried coordinates, packed as a row of an Echelon(q, extra)."""
        return row[self.n :]

    def columns(self) -> list[int]:
        """Pivot columns, in push order."""
        return [c for c, _ in self.pivots]


class _PackedEchelon(Echelon):
    """Echelon at q = 2: a row of width w is an int, coordinate j at bit w - 1 - j."""

    def __init__(self, q: int, n: int, extra: int = 0) -> None:
        self.q = q
        self.n = n
        self.width = n + extra
        self.pivots: list[tuple[int, int]] = []  # (row, its top bit)
        self.bound = 1 << extra
        self.zero = 0

    def pack(self, v: Vector) -> int:
        x = 0
        for e in v:
            if e != 0 and e != 1:
                raise ValueError(f"entry {e!r} out of range for q = 2")
            x = x << 1 | e
        return x

    def reduce(self, row: int) -> int:
        for p, top in self.pivots:
            if row & top:
                row ^= p
        return row

    def push(self, row: int) -> bool:
        row = self.reduce(row)
        if row < self.bound:
            return False
        self.pivots.append((row, 1 << (row.bit_length() - 1)))
        return True

    def eliminate(self, rows: list[int]) -> list[int]:
        p, top = self.pivots[-1]
        return [row ^ p if row & top else row for row in rows]

    def sub(self, a: int, b: int) -> int:
        return a ^ b

    def tail(self, row: int) -> int:
        return row & (self.bound - 1)

    def columns(self) -> list[int]:
        return [self.width - top.bit_length() for _, top in self.pivots]


# -- sampling and enumeration ------------------------------------------------


def solve_linear_invertible(vs: Sequence[Vector], ws: Sequence[Vector], q: int) -> Matrix:
    """Some invertible X with X v_i = w_i; completes freely when vs do not span.

    Raises NoSolutionError when the constraints are inconsistent or force a
    singular map (independent v_i with dependent images).
    """
    try:
        unique = solve_linear(vs, ws, q)
    except UnderdeterminedError:
        pass
    else:
        if rank(unique, q) != len(unique):
            raise NoSolutionError("constraints force a singular map")
        return unique
    n = len(vs[0])
    rows = Echelon(q, n, n)  # [v | w]
    images = Echelon(q, n)  # the w-parts of the pivots: dependence means X singular
    for v, w in zip(vs, ws):
        row = rows.reduce(rows.pack((*v, *w)))
        if row < rows.bound:
            if row != rows.zero:
                raise NoSolutionError("inconsistent constraints")
            continue
        if not images.push(rows.tail(row)):
            raise NoSolutionError("constraints force a singular map")
        rows.push(row)
    # unit vectors off the pivot columns complete the v_i to a basis; give
    # each the lexicographically first image that keeps X invertible
    extra: list[tuple[Vector, Vector]] = []
    taken = set(rows.columns())
    for j in range(n):
        if j in taken:
            continue
        for y in enumerate_vectors(n, q):
            if images.push(images.pack(y)):
                extra.append((tuple(1 if i == j else 0 for i in range(n)), y))
                break
    return solve_linear(list(vs) + [p[0] for p in extra], list(ws) + [p[1] for p in extra], q)


def random_vector(n: int, q: int, rng: Random) -> Vector:
    return tuple(rng.randrange(q) for _ in range(n))


def random_matrix(n: int, q: int, rng: Random) -> Matrix:
    return tuple(random_vector(n, q, rng) for _ in range(n))


def random_invertible(n: int, q: int, rng: Random) -> Matrix:
    """Uniform element of GL_n(F_q) by rejection sampling.

    Acceptance probability is prod_{j=1..n}(1 - q^-j), at least 0.288 for q = 2.
    """
    while True:
        m = random_matrix(n, q, rng)
        if rank(m, q) == n:
            return m


def complete_basis(vectors: Sequence[Vector], n: int, q: int) -> Matrix:
    """Extend independent vectors to a basis; returns the matrix with those columns."""
    basis: list[Vector] = list(vectors)
    if basis and rank(tuple(basis), q) != len(basis):
        raise ValueError("input vectors are dependent")
    for j in range(n):
        if len(basis) == n:
            break
        e = tuple(1 if i == j else 0 for i in range(n))
        if rank(tuple(basis) + (e,), q) > len(basis):
            basis.append(e)
    return tuple(tuple(basis[j][i] for j in range(len(basis))) for i in range(n))


def random_invertible_mapping(u: Vector, w: Vector, q: int, rng: Random) -> Matrix:
    """Uniform invertible A with A u = w, for nonzero u and w.

    Any fixed A0 with A0 u = w composed with a uniform stabilizer element
    {S : S u = u} gives the uniform distribution on the coset.
    """
    if is_zero_vector(u) or is_zero_vector(w):
        raise ValueError("u and w must be nonzero")
    n = len(u)
    p_u = complete_basis([u], n, q)
    p_w = complete_basis([w], n, q)
    p_u_inv = mat_inverse(p_u, q)
    a0 = mat_mul(p_w, p_u_inv, q)
    # stabilizer of e1 (first column fixed), conjugated back through p_u
    while True:
        cols = [tuple(1 if i == 0 else 0 for i in range(n))]
        cols += [random_vector(n, q, rng) for _ in range(n - 1)]
        t = tuple(tuple(col[i] for col in cols) for i in range(n))
        if rank(t, q) == n:
            break
    s = mat_mul(mat_mul(p_u, t, q), p_u_inv, q)
    return mat_mul(a0, s, q)


def enumerate_vectors(n: int, q: int) -> Iterator[Vector]:
    """All q^n vectors in lexicographic order."""
    v = [0] * n
    while True:
        yield tuple(v)
        i = n - 1
        while i >= 0 and v[i] == q - 1:
            v[i] = 0
            i -= 1
        if i < 0:
            return
        v[i] += 1


def enumerate_invertible(n: int, q: int) -> Iterator[Matrix]:
    """Every element of GL_n(F_q) exactly once, rows chosen lexicographically."""
    if q ** (n * n) > enumeration_cap():
        raise EnumerationCapError(
            f"q^(n^2) = {q ** (n * n)} exceeds enumeration cap {enumeration_cap()}"
        )
    all_rows = list(enumerate_vectors(n, q))
    echelon = Echelon(q, n)
    packed = [echelon.pack(row) for row in all_rows]
    prefix: list[Vector] = []

    def build() -> Iterator[Matrix]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for row, x in zip(all_rows, packed):
            if echelon.push(x):
                prefix.append(row)
                yield from build()
                prefix.pop()
                echelon.pop()

    yield from build()


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = prod_{i=0}^{n-1} (q^n - q^i)."""
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def invertibility_probability(n: int, q: int) -> float:
    """Probability a uniform n x n matrix over F_q is invertible."""
    out = 1.0
    for j in range(1, n + 1):
        out *= 1.0 - float(q) ** -j
    return out


def invertibility_probability_limit(q: int) -> float:
    """Limit prod_{j>=1}(1 - q^-j) of the invertibility probability as n grows.

    For q = 2 this is 0.2887880950866...  Truncating at j < 200 changes
    nothing in double precision: for every q >= 2 and j >= 54, q^-j <= 2^-54
    is at most half an ulp below 1.0, so 1.0 - q^-j rounds to exactly 1.0
    and every factor past j = 53 leaves the product as it is.
    """
    out = 1.0
    for j in range(1, 200):
        out *= 1.0 - float(q) ** -j
    return out
