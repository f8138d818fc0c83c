"""Exact dense linear algebra over a prime field F_q.

Vectors are tuples of ints in [0, q), matrices are tuples of row tuples.
Everything is immutable and hashable; tuple comparison gives the
lexicographic order (index 0 most significant) used for canonical images.

Matrix-vector products have one kernel, `mat_vecs`, which does the
per-matrix work once for a whole batch of vectors; `_times` packs M and
returns the product, and `row_image_table` tabulates it for every vector
of F_q^n.  The coset sampler keeps one of the two per basis: the table
when F_q^n has at most _ROW_TABLE_BOUND vectors, else the packed product.
For q = 2 each row of M and each v is an int in the row format of
`Echelon` below (the rows of M packed and range-checked by `_pack_bits`),
and coordinate i of M v is the parity of popcount(row_i & v).  For q > 2
column j of M is one int holding M[i][j] in lane i, each lane
w = (n (q-1)^2).bit_length() bits wide for an M with n columns; M v is the
sum of v_j times column j, and since no lane can exceed n (q-1)^2 no lane
carries into the next, so coordinate i is lane i mod q.

`Echelon` is the one elimination: `push` reduces a row against the pivots so
far and records it as a new pivot unless it is dependent, and `pop` undoes
the latest push.  It runs under every routine that eliminates: `rank`,
`solve_linear` (and `mat_inverse`, which solves for the unit vectors),
`_solve_vector`, `solve_linear_invertible`, `complete_basis`,
`enumerate_invertible` and the matching search (`owf.iter_matchings`).
Every solve reads its answer off the pivots by one back substitution,
`Echelon.back_substitute`.  A row may carry `extra` coordinates after its n
head coordinates, the right hand side of an augmented system: pivots lie in
the head only, and a row counts as dependent when its head reduces to zero.
At q = 2 a row is one int with coordinate 0 at the top bit (`_pack_bits`),
so XOR is the row operation and a pivot's top bit is its column; at q > 2
a row is a tuple, and each pivot is normalised to 1 at its column.  Either
way packed rows compare like the vectors they pack (index 0 most
significant), so a row's head is zero exactly when the row lies below
`Echelon.bound`.

Every routine that reads entries (`Echelon.pack`, and so `rank`,
`mat_inverse` and `solve_linear`, and `check_entries`) rejects one outside
[0, q) with ValueError, at the step that already visits it.

Every F_q draw in mvowf goes through `random_below`, which makes the
`getrandbits` calls `Random.randrange` makes, so its values and the rng
state after are those of randrange: `random_vector`, `random_matrix`,
`random_invertible` and `random_invertible_mapping` here, and through them
key generation, the projection families and the sampled decoder points;
and the single draws of the hard-core reductions.  Most draws are of
single entries; `random_invertible_mapping` instead draws its stabilizer
element as one index into (first row, GL_{n-1} table) pairs whenever that
table has at most TABLE_BOUND elements, with no rejection of singular
matrices.
"""

from __future__ import annotations

import os
from functools import lru_cache, partial
from itertools import chain, product
from operator import mul
from random import Random
from typing import Callable, Iterable, Iterator, Sequence

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

DEFAULT_ENUM_CAP = 2**24
# GL_n(F_q), and the wreath square GL_n wr Z_2, are kept as a tuple, built
# once per process, when they have at most this many elements
TABLE_BOUND = 2**16
# the products of the coset sampler by a basis and by its inverse transpose
# are dict lookups when F_q^n has at most this many vectors.  The bound is
# set by memory: in bilinear_invert at q = 2 (CPython 3.11 on a shared
# 2-vCPU virtual machine) the tables cut the cost per query by 25-30% at
# n = 4 and 5 and 15% at n = 6 (+1.5 MB peak RSS); a bound of 2^7 made
# n = 7 about 16% faster with 6 MB more (43 against 37 MB), and one of 2^12
# made n = 8 about 12% faster with 30 MB more (75 against 45 MB).  At 2^6
# the tables of one (n, q) hold at most 63 bases x 2 x 64 rows
_ROW_TABLE_BOUND = 2**6


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
    """Raise ValueError unless every entry of rows lies in [0, q).

    One set of the entries against the digits' keys: cheaper than a dict
    lookup per entry, since a row's entries repeat few values.
    """
    if not _digits(q).keys() >= set(chain.from_iterable(rows)):
        raise ValueError(f"{what} entry out of range for q = {q}")


def scalar_inv(a: int, q: int) -> int:
    if a % q == 0:
        raise ZeroDivisionError("no inverse of 0")
    return _inverse_table(q)[a % q]


def inner_product(a: Vector, b: Vector, q: int) -> int:
    """Sum of a_i * b_i mod q."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b)) % q


@lru_cache(maxsize=None)
def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def mat_vecs(m: Matrix, vs: Sequence[Vector], q: int) -> list[Vector]:
    """M v for every v in vs, in order; entries of m and vs lie in [0, q).
    A matrix with no rows maps every vector to ()."""
    if not m:
        return [()] * len(vs)
    if set(map(len, vs)) - {len(m[0])}:
        raise ValueError("dimension mismatch")
    return _times(m, q)(vs)


def _times(m: Matrix, q: int) -> Callable[[Sequence[Vector]], list[Vector]]:
    """vs -> [M v for v in vs], with M packed once (module docstring).

    The lengths of the vs are not checked: a caller that keeps the product
    for vectors it built itself pays the packing of M once.
    """
    n = len(m[0])
    if q == 2:
        rows = list(map(_pack_bits, m))
        weights = [1 << j for j in reversed(range(n))]

        def times(vs: Sequence[Vector]) -> list[Vector]:
            return [
                tuple([(row & x).bit_count() & 1 for row in rows])
                for x in (sum(map(mul, v, weights)) for v in vs)
            ]

        return times
    width = (n * (q - 1) ** 2).bit_length()
    mask = (1 << width) - 1
    shifts = range(0, width * len(m), width)
    cols = [sum(e << s for e, s in zip(col, shifts)) for col in zip(*m)]

    def times(vs: Sequence[Vector]) -> list[Vector]:
        out = []
        for v in vs:
            acc = 0
            for col, x in zip(cols, v):
                if x:
                    acc += col * x
            out.append(tuple([(acc >> s & mask) % q for s in shifts]))
        return out

    return times


def row_image_table(vectors: Sequence[Vector], q: int) -> dict[Vector, Vector]:
    """Every row r of F_q^n -> (<r, w> for w in vectors), from one mat_vecs.

    Coordinate i of A w is <row i of A, w>, so for an A over F_q with n
    columns tuple(zip(*map(table.__getitem__, A))) is the A w in the order
    of the vectors, and sorted it is owf.transform_image(A, W, q).vectors;
    with the rows of a matrix P as the vectors, table[v] is P v.  The table
    holds q^n rows; a row outside F_q^n is not among its keys.
    """
    rows = list(enumerate_vectors(len(vectors[0]), q))
    return dict(zip(rows, zip(*mat_vecs(rows, vectors, q))))


def mat_vec(m: Matrix, v: Vector, q: int) -> Vector:
    return mat_vecs(m, (v,), q)[0]


def mat_mul(a: Matrix, b: Matrix, q: int) -> Matrix:
    return tuple(zip(*mat_vecs(a, tuple(zip(*b)), q)))


def _pack_bits(v: Vector) -> int:
    """v over F_2 as an int, coordinate 0 at the top bit; ValueError on an entry outside {0, 1}."""
    x = 0
    for e in v:
        if e != 0 and e != 1:
            raise ValueError(f"entry {e!r} out of range for q = 2")
        x = x << 1 | e
    return x


# -- rank, inverse and linear systems, each one Echelon ----------------------


def rank(m: Matrix, q: int) -> int:
    """Row rank: the rows pushed onto one Echelon, stopping at full rank."""
    if not m:
        return 0
    echelon = Echelon(q, len(m[0]))
    rows = [echelon.pack(row) for row in m]  # range-checks every entry
    for row in rows:
        if echelon.push(row) and len(echelon) == echelon.n:
            break
    return len(echelon)


def is_invertible(m: Matrix, q: int) -> bool:
    return len(m) == len(m[0]) and rank(m, q) == len(m)


@lru_cache(maxsize=1 << 12)
def is_invertible_cached(m: Matrix, q: int) -> bool:
    """Whether the square matrix m, a tuple of row tuples, is invertible
    over F_q, memoised per (m, q); the 0 x 0 matrix is.

    The reductions test the same few small matrices thousands of times.
    The 4096 entries hold every 2 x 2 matrix over F_q for q <= 7 and every
    3 x 3 one over F_2.  An entry outside [0, q) raises ValueError (from
    rank), and nothing is cached for it.
    """
    return rank(m, q) == len(m)


def mat_inverse(m: Matrix, q: int) -> Matrix:
    """The X with X (column j of M) = e_j; raises SingularMatrixError when rank < n."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    try:
        return solve_linear(transpose(m), identity(n), q)
    except (NoSolutionError, UnderdeterminedError):
        raise SingularMatrixError(f"matrix is singular over F_{q}") from None


def solve_linear(vs: Sequence[Vector], ws: Sequence[Vector], q: int) -> Matrix:
    """Return the unique n x n matrix X with X v_i = w_i for all i.

    Raises NoSolutionError when the constraints are inconsistent and
    UnderdeterminedError when the v_i do not span F_q^n (no unique X).
    """
    if not vs and not ws:
        raise UnderdeterminedError("no constraints")
    rows, packed = _constraint_rows(vs, ws, q)
    for row in packed:
        if not rows.push(row) and rows.reduce(row) != rows.zero:
            raise NoSolutionError("inconsistent constraints")
    if len(rows) < rows.n:
        raise UnderdeterminedError(f"constraints span only {len(rows)} of {rows.n} dimensions")
    return rows.back_substitute()


def _constraint_rows(vs: Sequence[Vector], ws: Sequence[Vector], q: int) -> tuple[Echelon, list]:
    """An empty Echelon(q, n, n) and the rows (v_i | w_i) packed for it.

    Every row is packed, so range-checked, before any can prove the system
    inconsistent.
    """
    if len(vs) != len(ws):
        raise ValueError("need equally many constraint and target vectors")
    n = len(vs[0])
    if any(len(x) != n for x in chain(vs, ws)):
        raise ValueError("constraint and target vectors differ in length")
    rows = Echelon(q, n, n)
    return rows, [rows.pack((*v, *w)) for v, w in zip(vs, ws)]


def _solve_vector(m: Matrix, b: Vector, q: int) -> Vector:
    """The x with M x = b, for a square M; SingularMatrixError when rank M < n.

    Row i of M and b_i make one row (row i | b_i) of an Echelon(q, n, 1),
    solved by Echelon.back_substitute: one right hand side instead of
    mat_inverse's n, and no product after.
    """
    rows = Echelon(q, len(m), 1)
    packed = [rows.pack((*row, e)) for row, e in zip(m, b)]  # range-checks every entry
    if not all(map(rows.push, packed)):
        raise SingularMatrixError(f"matrix is singular over F_{q}")
    return rows.back_substitute()[0]


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
        try:
            return tuple(map(_digits(self.q).__getitem__, v))
        except KeyError as e:
            raise ValueError(f"entry {e.args[0]!r} out of range for q = {self.q}") from None

    def unpack(self, row) -> Vector:
        """The vector that pack(vector) == row."""
        return row

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

    def back_substitute(self) -> Matrix:
        """With n pivots and k extra coordinates: the k x n X with X v = w for every row (v | w).

        Row i of X is the x with <v, x> = w_i.  A pivot is 1 at its column
        and 0 at the columns of the pivots pushed before it, so in reverse
        push order each pivot's head meets only the coordinates of x already
        found, and gives the one at its column.
        """
        n, q = self.n, self.q
        out = []
        for i in range(n, len(self.zero)):
            x = [0] * n
            for c, row in reversed(self.pivots):
                x[c] = (row[i] - sum(map(mul, row, x))) % q
            out.append(tuple(x))
        return tuple(out)


_BITS = bytes.maketrans(b"01", b"\x00\x01")  # the ASCII digits "0" and "1" to the bytes 0 and 1


class _PackedEchelon(Echelon):
    """Echelon at q = 2: a row of width w is an int, coordinate j at bit w - 1 - j."""

    def __init__(self, q: int, n: int, extra: int = 0) -> None:
        self.q = q
        self.n = n
        self.width = n + extra
        self.pivots: list[tuple[int, int]] = []  # (row, its top bit)
        self.bound = 1 << extra
        self.zero = 0

    pack = staticmethod(_pack_bits)

    def unpack(self, row: int) -> Vector:
        return tuple(format(row, f"0{self.width}b").encode().translate(_BITS))

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

    def back_substitute(self) -> Matrix:
        # each row x of X packed like a row, its tail bits 0: a pivot's head
        # meets x in the parity of p & x, and w_i is bit s = k - 1 - i of p
        n = self.n
        out = []
        for s in range(self.width - n - 1, -1, -1):
            x = 0
            for p, top in reversed(self.pivots):
                if ((p & x).bit_count() ^ p >> s) & 1:
                    x |= top
            out.append(self.unpack(x)[:n])
        return tuple(out)


# -- sampling and enumeration ------------------------------------------------


def solve_linear_invertible(vs: Sequence[Vector], ws: Sequence[Vector], q: int) -> Matrix:
    """Some invertible X with X v_i = w_i; completes freely when vs do not span.

    Raises NoSolutionError when the constraints are inconsistent or force a
    singular map (independent v_i with dependent images).
    """
    rows, packed = _constraint_rows(vs, ws, q)
    n = rows.n
    images = Echelon(q, n)  # the w-parts of the pivots: dependence means X singular
    for row in packed:
        row = rows.reduce(row)
        if row < rows.bound:
            if row != rows.zero:
                raise NoSolutionError("inconsistent constraints")
            continue
        if not images.push(rows.tail(row)):
            raise NoSolutionError("constraints force a singular map")
        rows.push(row)
    # unit vectors off the pivot columns complete the v_i to a basis; give
    # each the lexicographically first image that keeps X invertible: the
    # highest-index unit vector e_i outside the span of the images so far,
    # since every vector before e_i in lex order lies in the span of the
    # later unit vectors, which the images already span
    units = identity(n)
    taken = set(rows.columns())
    for j in range(n):
        if j in taken:
            continue
        for y in reversed(units):
            if images.push(images.pack(y)):
                rows.push(rows.pack(units[j] + y))
                break
    return rows.back_substitute()


def random_below(bound: int, count: int, rng: Random) -> tuple[int, ...]:
    """count draws of rng.randrange(bound), in a tuple, by the getrandbits calls it makes.

    For bound >= 1, Random.randrange(bound) calls getrandbits(k), k =
    bound.bit_length(), until a draw falls below bound (so randrange(1)
    still uses words, and at q = 2 a draw is rejected half the time).  This
    makes the same calls without randrange's three Python frames around
    each, so the values and the rng state afterwards are those of count
    randrange calls.  Every mvowf rng is a random.Random (rng.make_rng,
    rng.spawn_rng), whose randrange works this way in CPython 3.10-3.13; a
    subclass that overrides random() and not getrandbits would draw
    differently, and there is no path for it.  A bound below 1 raises
    ValueError, as randrange does, unless count is 0.
    """
    if bound < 1 and count > 0:
        raise ValueError("empty range for randrange()")
    k = bound.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= bound:
            r = getrandbits(k)
        out.append(r)
    return tuple(out)


def random_vector(n: int, q: int, rng: Random) -> Vector:
    return random_below(q, n, rng)


def random_matrix(n: int, q: int, rng: Random) -> Matrix:
    """Uniform n x n matrix, drawn row by row as n random_vector calls would."""
    entries = random_below(q, n * n, rng)
    return tuple(entries[i : i + n] for i in range(0, n * n, n))


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
    echelon = Echelon(q, n)
    rows = [echelon.pack(v) for v in vectors]  # range-checks every entry
    if not all(map(echelon.push, rows)):
        raise ValueError("input vectors are dependent")
    basis = list(vectors)
    for e in identity(n):
        if len(basis) == n:
            break
        if echelon.push(echelon.pack(e)):
            basis.append(e)
    return transpose(basis)


@lru_cache(maxsize=1024)
def _basis_with_inverse_transpose(u: Vector, q: int) -> tuple[Callable, Callable]:
    """The products by P = complete_basis([u]) (its first column is u) and
    by the transpose of P^-1, each vs -> the products in order.

    When q^n <= _ROW_TABLE_BOUND each product is a lookup into the
    row_image_table of the matrix's rows (every vector v of F_q^n -> P v),
    else the matrix is packed once (_times).
    """
    p = complete_basis([u], len(u), q)
    p_inv_t = transpose(mat_inverse(p, q))
    if q ** len(u) > _ROW_TABLE_BOUND:
        return _times(p, q), _times(p_inv_t, q)
    return tuple(partial(map, row_image_table(m, q).__getitem__) for m in (p, p_inv_t))


def random_invertible_mapping(u: Vector, w: Vector, q: int, rng: Random) -> Matrix:
    """Uniform invertible A with A u = w, for nonzero u and w.

    With P_u, P_w bases whose first columns are u and w, A = P_w T P_u^-1
    for a uniform invertible T with first column e_1: that is the fixed map
    P_w P_u^-1 composed with the uniform stabilizer element P_u T P_u^-1 of
    u, so A is uniform on the coset.  The products by P and by (P^-1)^T are
    cached per (u, q) (1024 entries), as lookups into row-image tables when
    q^n <= _ROW_TABLE_BOUND and with their matrices packed above it, and A
    costs two of them: one for the columns of P_w T, one for the rows of A.
    A u and w of different lengths, or an entry outside [0, q), raise
    ValueError before any draw.

    T is invertible exactly when its lower-right (n-1) x (n-1) block is, and
    its first row is free.  When GL_{n-1}(F_q) has at most TABLE_BOUND
    elements (and n >= 2), T is one random_below(q^(n-1) |GL_{n-1}|) draw:
    divmod by |GL_{n-1}| splits it into the index of T's first row after
    e_1's entry 1, among the q^(n-1) vectors in lexicographic order, and the
    index of an element of _gl_table(n - 1, q) whose rows are the block's
    columns.  Transposing permutes GL_{n-1}, so every index gives a
    different T and the draw is exactly uniform.  Otherwise (a larger group,
    or n = 1, which draws nothing) each attempt draws the n (n - 1) entries
    of T's columns 2..n in one random_below call, in the order n - 1
    random_vector calls would, and is tested through the rank of the block.
    Those blocks rarely repeat, so the test goes to rank directly rather
    than through is_invertible_cached, whose entries it would only evict.
    """
    if len(u) != len(w):
        raise ValueError(f"length mismatch: {len(u)} vs {len(w)}")
    if not any(u) or not any(w):
        raise ValueError("u and w must be nonzero")
    n = len(u)
    _, p_u_inv_t = _basis_with_inverse_transpose(tuple(u), q)
    p_w, _ = _basis_with_inverse_transpose(tuple(w), q)
    tables = _stabilizer_tables(n, q)
    if tables is not None:
        rows, blocks = tables
        first, block = divmod(random_below(len(rows) * len(blocks), 1, rng)[0], len(blocks))
        drawn = [(x, *col) for x, col in zip(rows[first], blocks[block])]
    else:
        size = n * (n - 1)
        while True:
            entries = random_below(q, size, rng)  # columns 2..n of T, one after another
            # the entries after the first of each column are the block's
            # columns, and a matrix is invertible with its transpose
            if rank([entries[i + 1 : i + n] for i in range(0, size, n)], q) == n - 1:
                break
        drawn = [entries[i : i + n] for i in range(0, size, n)]
    # P_w T has columns P_w e_1 = w and the P_w d for the drawn columns d of
    # T, so its rows are those columns zipped; row i of A is (P_u^-1)^T (row
    # i of P_w T)
    return tuple(p_u_inv_t(list(zip(w, *p_w(drawn)))))


@lru_cache(maxsize=None)
def _stabilizer_tables(n: int, q: int) -> tuple[tuple[Vector, ...], tuple[Matrix, ...]] | None:
    """The q^(n-1) vectors of F_q^(n-1) in lexicographic order and
    _gl_table(n - 1, q), or None when n < 2 or GL_{n-1}(F_q) has more than
    TABLE_BOUND elements.

    The table is read directly, not through gl_elements, so the draws of
    random_invertible_mapping do not depend on MVOWF_ENUM_CAP.
    """
    if n < 2 or gl_order(n - 1, q) > TABLE_BOUND:
        return None
    return tuple(enumerate_vectors(n - 1, q)), _gl_table(n - 1, q)


def enumerate_vectors(n: int, q: int) -> Iterator[Vector]:
    """All q^n vectors in lexicographic order."""
    return product(range(q), repeat=n)


def enumerate_invertible(n: int, q: int) -> Iterator[Matrix]:
    """Every element of GL_n(F_q) exactly once, rows chosen lexicographically.

    The elements of gl_elements(n, q), so EnumerationCapError is raised at
    the first next().
    """
    yield from gl_elements(n, q)


def gl_elements(n: int, q: int) -> Iterable[Matrix]:
    """GL_n(F_q) in enumerate_invertible order, after the enumeration cap check.

    A group of at most TABLE_BOUND elements is built once per process and
    returned as that tuple; a larger one is streamed afresh on every call.
    The cap (MVOWF_ENUM_CAP) is read on every call, so lowering it after a
    table is built still raises EnumerationCapError.
    """
    if q ** (n * n) > enumeration_cap():
        raise EnumerationCapError(
            f"q^(n^2) = {q ** (n * n)} exceeds enumeration cap {enumeration_cap()}"
        )
    if gl_order(n, q) <= TABLE_BOUND:
        return _gl_table(n, q)
    return _stream_invertible(n, q)


@lru_cache(maxsize=None)
def _gl_table(n: int, q: int) -> tuple[Matrix, ...]:
    return tuple(_stream_invertible(n, q))


def _stream_invertible(n: int, q: int) -> Iterator[Matrix]:
    """GL_n(F_q) in enumerate_invertible order, built as it is read.

    The first n - 1 rows are pushed onto one Echelon as the prefix grows and
    popped on the way back; a last row is only reduced against them and
    kept when its reduction is nonzero.  GL_0(F_q) is the trivial group,
    whose one element is the empty matrix ().
    """
    if n == 0:
        yield ()
        return
    all_rows = list(enumerate_vectors(n, q))
    echelon = Echelon(q, n)
    packed = [echelon.pack(row) for row in all_rows]
    prefix: list[Vector] = []

    def build() -> Iterator[Matrix]:
        if len(prefix) == n - 1:
            # the last row only needs testing: no push, pop or deeper level
            reduce, bound = echelon.reduce, echelon.bound
            for row, x in zip(all_rows, packed):
                if reduce(x) >= bound:
                    yield (*prefix, row)
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
    return invertibility_probability(199, q)
