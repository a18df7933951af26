"""Exact linear algebra over GF(p), plus integer Smith normal form.

Matrices over GF(p) are numpy int64 arrays holding canonical residues in
[0, p).  All reductions produce fully reduced row echelon forms, so equal
row spaces give byte-identical bases and every caller sees deterministic
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

import numpy as np


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# largest prime below 2**16: products of residues stay below 2**32, so int64
# sums of up to 2**31 of them are exact
MAX_PRIME = 65521

# a search over the p**n coefficient vectors of GF(p)^n is exhaustive when
# p**n is at most this, and sampled otherwise
EXHAUSTIVE_CAP = 4096


def is_exhaustive(f: FieldSpec, n: int) -> bool:
    """Whether a search over f^n tests every vector: p**n <= EXHAUSTIVE_CAP
    for f = GF(p).  The one cap test of every coefficient search."""
    return f.char**n <= EXHAUSTIVE_CAP


def coeff_vectors(f: FieldSpec, n: int, *, seed=0, tries=0):
    """(vectors, exhaustive): the coefficient vectors a search over f^n tests.

    Exhaustive (`is_exhaustive`): an int64 array with one vector per line
    of GF(p)^n as a row, the one whose last nonzero entry is 1, in
    increasing base-p order (entry i is digit i), so a search for a
    property that nonzero scalars preserve finds the same first hit as
    among all vectors.  For n = 0 there are no lines.  For n = 1 it is the
    unit vector [[1]], the one line, at every prime.

    Otherwise sampled: `sampled_coeff_vectors(f, n, seed, tries)`.
    """
    if n == 1:
        return np.ones((1, 1), dtype=np.int64), True
    if not is_exhaustive(f, n):
        return sampled_coeff_vectors(f, n, seed, tries), False
    # last nonzero entry 1 at position k: the numbers p**k .. 2 * p**k - 1
    # (none when n = 0)
    places = f.char ** np.arange(n, dtype=np.int64)
    x = np.concatenate([np.arange(s, 2 * s) for s in places] or [places])
    # row x holds the base-p digits of x, least significant first
    return x[:, None] // places % f.char, True


def sampled_coeff_vectors(f: FieldSpec, n: int, seed: int, tries: int):
    """The n unit vectors, then `tries` draws of f.random_scalar from
    Random(seed) with the zero draws dropped, as lists, lazily.

    The sampled branch of `coeff_vectors`; `rep.decompose` takes it
    directly for its first, sampled split search, which every size runs
    before the End(m) / rad certificate.
    """
    for i in range(n):
        yield [int(i == j) for j in range(n)]
    rng = Random(seed)
    for _ in range(tries):
        vec = [f.random_scalar(rng) for _ in range(n)]
        if any(vec):
            yield vec


# bytes one temporary of a chunked stack computation may take
STACK_BYTES = 1 << 20


class CertificateError(RuntimeError):
    """A computed result failed the check that certifies it.

    Raised explicitly rather than asserted, so certificates also run under
    `python -O`.
    """


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field GF(char) for a prime char <= MAX_PRIME."""

    char: int

    def __post_init__(self):
        if self.char > MAX_PRIME:
            raise ValueError(
                f"field characteristic {self.char} is above {MAX_PRIME}, the "
                "largest prime whose int64 arithmetic is exact"
            )
        if not _is_prime(self.char):
            raise ValueError(
                f"field characteristic must be a prime, got {self.char}: gpk "
                "computes over a finite prime field GF(p)"
            )

    @property
    def label(self) -> str:
        return f"GF({self.char})"

    # scalar helpers --------------------------------------------------

    def canon(self, x):
        return int(x) % self.char

    def inv_scalar(self, x):
        x = int(x) % self.char
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(x, self.char - 2, self.char)

    def elements(self):
        """Iterate all field elements."""
        return range(self.char)

    def random_scalar(self, rng):
        return rng.randrange(self.char)

    # matrix constructors ---------------------------------------------

    def array(self, rows) -> np.ndarray:
        a = np.asarray(rows, dtype=np.int64)  # the remainder makes the copy
        if a.ndim == 1:
            a = a.reshape(1, -1) if a.size else a.reshape(1, 0)
        return np.remainder(a, self.char, order="C")

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    # arithmetic -------------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a @ b) % self.char

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self.char

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a - b) % self.char

    def scale(self, c, a: np.ndarray) -> np.ndarray:
        return (a * (int(c) % self.char)) % self.char


GF = FieldSpec


@dataclass(frozen=True)
class MatZ:
    """An integer matrix, stored as a tuple of row tuples."""

    rows: tuple

    @classmethod
    def make(cls, rows) -> "MatZ":
        return cls(tuple(tuple(int(x) for x in r) for r in rows))

    @property
    def shape(self):
        nr = len(self.rows)
        return (nr, len(self.rows[0]) if nr else 0)

    def to_lists(self):
        return [list(r) for r in self.rows]


# ---------------------------------------------------------------------------
# row reduction


def rref(field: FieldSpec, a: np.ndarray):
    """Fully reduced row echelon form.

    Returns (rows, pivots): the nonzero rows of the canonical RREF and the
    list of pivot column indices.  Pivot entries are 1 and are the only
    nonzero entries in their columns.
    """
    if a.size == 0:
        return a.reshape(0, a.shape[1] if a.ndim == 2 else 0), []
    return _rref_fp(a, field.char)


def _rref_fp(a: np.ndarray, p: int):
    a = a.astype(np.int64) % p
    nrows, ncols = a.shape
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        piv = int(a[r, c])
        if piv != 1:
            a[r] = (a[r] * pow(piv, p - 2, p)) % p
        # eliminate only in the other rows that are nonzero in column c
        rows = np.flatnonzero(a[:, c])
        rows = rows[rows != r]
        if rows.size:
            a[rows] = (a[rows] - a[rows, c, None] * a[r]) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def rref_stack_fp(a: np.ndarray, p: int):
    """Canonical RREF of every matrix in an (N, r, c) stack over GF(p).

    Returns (red, ranks): red[k, :ranks[k]] equals rref(a[k])'s rows and
    the rows below are zero, so red[k].tobytes() is a canonical key of the
    row space among matrices of one shape.  One vectorized elimination
    step per column serves the whole stack.
    """
    a = a.astype(np.int64) % p
    n, nrows, ncols = a.shape
    ranks = np.zeros(n, dtype=np.int64)
    if not (n and nrows and ncols):
        return a, ranks
    row_ids = np.arange(nrows)
    for c in range(ncols):
        open_nz = (a[:, :, c] != 0) & (row_ids >= ranks[:, None])
        ks = np.nonzero(open_nz.any(axis=1))[0]
        if ks.size == 0:
            continue
        src = open_nz[ks].argmax(axis=1)
        dst = ranks[ks]
        pivot_rows = a[ks, src]
        a[ks, src] = a[ks, dst]
        pivot_rows = (pivot_rows * _inverses_fp(pivot_rows[:, c], p)[:, None]) % p
        a[ks, dst] = pivot_rows
        factors = a[ks, :, c]
        factors[np.arange(ks.size), dst] = 0
        a[ks] = (a[ks] - factors[:, :, None] * pivot_rows[:, None, :]) % p
        ranks[ks] += 1
    return a, ranks


def _inverses_fp(x: np.ndarray, p: int) -> np.ndarray:
    """Elementwise inverses of nonzero residues, x**(p-2) mod p by squaring."""
    out = np.ones_like(x)
    k = p - 2
    while k:
        if k & 1:
            out = (out * x) % p
        x = (x * x) % p
        k >>= 1
    return out


def rank_of(field: FieldSpec, a: np.ndarray) -> int:
    return len(rref(field, a)[1])


def rank_stack(field: FieldSpec, a: np.ndarray) -> np.ndarray:
    """Rank of every matrix in an (N, r, c) stack.

    A stack of more than one matrix takes one `rref_stack_fp`, which steps
    once per column for the whole stack, so the shorter side becomes the
    columns (transposing keeps ranks).  A single matrix takes `rank_of`,
    which passes non-pivot columns cheaply.
    """
    if len(a) > 1:
        return rref_stack_fp(a if a.shape[2] <= a.shape[1] else a.transpose(0, 2, 1), field.char)[1]
    return np.array([rank_of(field, m) for m in a], dtype=np.int64)


def kernel(field: FieldSpec, a: np.ndarray) -> np.ndarray:
    """Canonical basis of the right null space, one vector per row.

    The basis vector for free column f has entry 1 at f and -R[i, f] at
    each pivot column, so equal kernels give identical bases.
    """
    ncols = a.shape[1]
    red, pivots = rref(field, a)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    out = field.zeros((len(free), ncols))
    out[np.arange(len(free)), free] = field.canon(1)
    out[:, pivots] = -red[:, free].T % field.char
    return out


class LinearSolver:
    """Solve a x = b for many right-hand sides with one factorization.

    Reduces [a | I] once; each solve is then a single matrix-vector product
    plus consistency checks on the rows whose pivot lies in the identity
    block (those encode the conditions for b to be in the column space).
    """

    def __init__(self, field: FieldSpec, a: np.ndarray):
        n, k = a.shape
        aug = field.zeros((n, k + n))
        aug[:, :k] = a
        for j in range(n):
            aug[j, k + j] = field.canon(1)
        red, piv = rref(field, aug)
        self.field = field
        self.k = k
        self.transform = red[:, k:]
        self.pivots = piv
        # pivots ascend, so the rows pivoting in a come before those
        # pivoting in the identity block
        self._n_solved = sum(pc < k for pc in piv)
        self._solved_cols = np.array(piv[: self._n_solved], dtype=np.intp)

    def solve(self, b: np.ndarray):
        """One solution of a x = b (free variables 0), or None."""
        f = self.field
        tb = f.matmul(self.transform, b.reshape(-1, 1)).reshape(-1)
        if np.any(tb[self._n_solved:] != 0):
            return None
        x = f.zeros((self.k,))
        x[self._solved_cols] = tb[: self._n_solved]
        return x


def solve_matrix(field: FieldSpec, a: np.ndarray, b: np.ndarray):
    """Solve a X = b for a matrix right-hand side; None when inconsistent."""
    k = b.shape[1]
    aug = field.zeros((a.shape[0], a.shape[1] + k))
    aug[:, : a.shape[1]] = a
    aug[:, a.shape[1] :] = b
    red, pivots = rref(field, aug)
    if any(pc >= a.shape[1] for pc in pivots):
        return None
    x = field.zeros((a.shape[1], k))
    for i, pc in enumerate(pivots):
        x[pc, :] = red[i, a.shape[1] :]
    return x


def invert(field: FieldSpec, a: np.ndarray):
    """Inverse matrix, or None when singular."""
    n = a.shape[0]
    if a.shape[1] != n:
        return None
    x = solve_matrix(field, a, field.eye(n))
    return x


# ---------------------------------------------------------------------------
# Smith normal form


def _det_sign_unimodular(rows) -> int:
    """Determinant of an integer matrix via Bareiss; used to verify +-1."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            sw = None
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    sw = i
                    break
            if sw is None:
                return 0
            a[k], a[sw] = a[sw], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def smith_normal_form(m: MatZ):
    """Smith normal form with transforms: returns (u, s, v) with u m v = s.

    The diagonal of s is nonnegative and each entry divides the next.
    Pivot selection takes the smallest nonzero absolute value, row-major
    on ties, so the reduction path is deterministic.  u and v are
    verified unimodular and the product identity is asserted.
    """
    a = m.to_lists()
    nr, nc = m.shape
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_sub(i, j, q):
        # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, q):
        # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        # smallest |nonzero| pivot, row-major tie-break
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        while True:
            # clear column t below and above, then row t; a leftover
            # remainder is strictly smaller than the pivot, so this loop
            # terminates by descent on |a[t][t]|
            dirty = False
            for i in range(nr):
                if i != t and a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_sub(i, t, q)
                    if a[i][t] != 0:
                        row_swap(t, i)
                        dirty = True
            for j in range(nc):
                if j != t and a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_sub(j, t, q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
            if not dirty:
                break
        # divisibility: pivot must divide every remaining entry
        fixed = True
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t] != 0:
                    # fold that row in and redo the clearing at this t
                    row_sub(t, i, -1)
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if a[t][t] < 0:
            row_neg(t)
        t += 1

    um = MatZ.make(u)
    sm = MatZ.make(a)
    vm = MatZ.make(v)
    # verify the factorization and unimodularity
    prod = _matz_mul(_matz_mul(u, m.to_lists()), v)
    if prod != a:
        raise CertificateError("smith factorization mismatch")
    if abs(_det_sign_unimodular(u)) != 1:
        raise CertificateError("u not unimodular")
    if abs(_det_sign_unimodular(v)) != 1:
        raise CertificateError("v not unimodular")
    for k in range(min(nr, nc) - 1):
        d0, d1 = a[k][k], a[k + 1][k + 1]
        if d0 < 0 or d1 < 0:
            raise CertificateError("negative diagonal entry")
        if d1 != 0 and (d0 == 0 or d1 % d0 != 0):
            raise CertificateError("divisibility chain broken")
    return um, sm, vm


def _matz_mul(a, b):
    nr = len(a)
    inner = len(b)
    nc = len(b[0]) if inner else 0
    out = [[0] * nc for _ in range(nr)]
    for i in range(nr):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(nc):
                    oi[j] += x * bk[j]
    return out


# ---------------------------------------------------------------------------
# finitely presented abelian groups


@dataclass(frozen=True)
class AbelianGroupDescription:
    """Invariant-factor form of a finitely generated abelian group.

    invariant_factors is a chain (d_1 | d_2 | ...) with every d_i >= 2;
    generators echoes the presentation's generator labels.
    """

    free_rank: int
    invariant_factors: tuple
    generators: tuple

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def same_group(self, other: "AbelianGroupDescription") -> bool:
        return (
            self.free_rank == other.free_rank
            and self.invariant_factors == other.invariant_factors
        )

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " x ".join(parts) if parts else "0"


def group_from_presentation(generators, relations) -> AbelianGroupDescription:
    """Abelian group on the given generators modulo integer relation rows."""
    generators = tuple(str(g) for g in generators)
    n = len(generators)
    rows = [tuple(r) for r in relations]
    for r in rows:
        if len(r) != n:
            raise ValueError("relation length does not match generator count")
    # a zero row or a repeat spans nothing new, yet the Smith form builds and
    # certifies an nr x nr transform: keep the first copy of each nonzero row
    rows = [list(r) for r in dict.fromkeys(rows) if any(r)]
    if not rows or n == 0:
        return AbelianGroupDescription(n, (), generators)
    _, s, _ = smith_normal_form(MatZ.make(rows))
    diag = [s.rows[i][i] for i in range(min(s.shape))]
    nonzero = [d for d in diag if d != 0]
    factors = tuple(d for d in nonzero if d >= 2)
    free_rank = n - len(nonzero)
    return AbelianGroupDescription(free_rank, factors, generators)


# ---------------------------------------------------------------------------
# finite-dimensional algebras given by structure constants


class StructureAlgebra:
    """A finite-dimensional algebra with unit over a prime field.

    structure[i, j] holds the coordinates of b_i b_j on the basis
    b_0 .. b_(e-1).  Elements are coordinate vectors; every product method
    also takes stacks of them, row by row in the last axis.  Construction
    checks shapes only: certify() checks the unit and associativity.
    """

    def __init__(self, field: FieldSpec, structure, unit):
        self.field = field
        self.structure = field.array(structure)
        self.dim = self.structure.shape[0]
        self.unit = field.array(list(unit)).reshape(-1)
        if self.structure.shape != (self.dim,) * 3 or self.unit.shape != (self.dim,):
            raise ValueError("structure constants must be (e, e, e) with a unit of length e")

    def _canon(self, a: np.ndarray) -> np.ndarray:
        return a % self.field.char

    def _times_basis(self, x) -> np.ndarray:
        """[..., j, :] holds the coordinates of x b_j."""
        e = self.dim
        x = np.asarray(x)
        xt = self._canon(x @ self.structure.reshape(e, e * e))
        return xt.reshape(x.shape[:-1] + (e, e))

    def mult(self, x, y) -> np.ndarray:
        """The product x y: one contraction with the structure constants per
        factor, mod p."""
        y = np.asarray(y)
        return self._canon(y[..., None, :] @ self._times_basis(x))[..., 0, :]

    def left_mult(self, x) -> np.ndarray:
        """Matrix of y -> x y, acting on column vectors."""
        return np.swapaxes(self._times_basis(x), -1, -2)

    def power(self, x, k: int) -> np.ndarray:
        """x^k by repeated squaring."""
        x = np.asarray(x)
        out = np.broadcast_to(self.unit, x.shape).copy()
        while k:
            if k & 1:
                out = self.mult(out, x)
            x = self.mult(x, x)
            k >>= 1
        return out

    def zero(self) -> np.ndarray:
        return self.field.zeros((self.dim,))

    def is_commutative(self) -> bool:
        return bool((self.structure == self.structure.transpose(1, 0, 2)).all())

    def certify(self):
        """Raise CertificateError unless the unit is two-sided and
        (b_i b_j) b_k = b_i (b_j b_k) for every basis triple.

        The triples are checked in chunks of (i, j) pairs, so no temporary
        exceeds STACK_BYTES and no e^4 tensor is built.
        """
        e = self.dim
        eye = self.field.eye(e)
        if not (
            (self.mult(self.unit, eye) == eye).all()
            and (self.mult(eye, self.unit) == eye).all()
        ):
            raise CertificateError("unit law fails")
        t = self.structure
        pairs = t.reshape(e * e, e)  # row i*e + j: coordinates of b_i b_j
        chunk = max(1, STACK_BYTES // (8 * max(e, 1) ** 2))
        for start in range(0, e * e, chunk):
            ij = np.arange(start, min(start + chunk, e * e))
            # [n, k, :] of each side: (b_i b_j) b_k and b_i (b_j b_k)
            lhs = self._times_basis(pairs[ij])
            rhs = self._canon(t[ij % e] @ t[ij // e])
            if not (lhs == rhs).all():
                raise CertificateError("product is not associative")
        return self

    def frobenius(self) -> np.ndarray:
        """Matrix of x -> x^p, which is GF(p)-linear on a commutative algebra
        of characteristic p: column i holds b_i^p."""
        return self.power(self.field.eye(self.dim), self.field.char).T

    def radical(self) -> np.ndarray:
        """RREF basis of the Jacobson radical.

        Ronyai's chain (Cohen, Ivanyos and Wales, JPAA 117, 1997) in the left
        regular representation x -> L_x on e coordinates: with an integer
        lift of L_x, g_i(x) = (Tr(lift^(p^i)) mod p^(i+1)) / p^i.  Then
        I_(-1) = A, I_i = {x in I_(i-1) : g_i(x b_k) = 0 for every k}, and
        rad A = I_l with p^l <= e < p^(l+1).  Each g_i is GF(p)-linear on
        I_(i-1), so every step is one kernel.  g_0 is the trace form, which
        alone gives the radical when p > e.
        """
        f = self.field
        p = f.char
        e = self.dim
        space = f.eye(e)  # rows span I_(i-1)
        trace = np.trace(self.structure, axis1=1, axis2=2) % p  # Tr L_(b_k)
        pk = 1
        while space.shape[0] and pk <= e:
            prods = self._times_basis(space)  # [r, k, :] = v_r b_k
            if pk == 1:
                vals = (prods @ trace) % p
            else:
                vals = self._lifted_traces(prods.reshape(-1, e), pk).reshape(prods.shape[:2])
            combos = kernel(f, vals.T)
            space = rref(f, (combos @ space) % p)[0]
            pk *= p
        return space

    def _lifted_traces(self, xs: np.ndarray, pk: int) -> np.ndarray:
        """(Tr(lift^pk) mod p*pk) / pk for each row x of xs, where lift is L_x
        with its residues read as integers and pk = p^i.

        Entries stay below q = p*pk <= p*e <= e^2, so the int64 sums of e
        products stay exact while e^5 < 2^63.
        """
        p = self.field.char
        q = p * pk
        e = self.dim
        out = np.zeros(len(xs), dtype=np.int64)
        chunk = max(1, STACK_BYTES // (8 * e * e))
        for start in range(0, len(xs), chunk):
            base = self.left_mult(xs[start : start + chunk])
            acc = np.broadcast_to(np.eye(e, dtype=np.int64), base.shape).copy()
            k = pk
            while k:
                if k & 1:
                    acc = (acc @ base) % q
                base = (base @ base) % q
                k >>= 1
            traces = np.trace(acc, axis1=1, axis2=2) % q
            if (traces % pk).any():
                raise CertificateError(f"a lifted trace is not divisible by {pk}")
            out[start : start + chunk] = traces // pk
        return out

    def quotient(self, rows) -> "StructureAlgebra":
        """A / I for the two-sided ideal I spanned by rows.

        The basis of A / I is the image of the b_c whose column c is not a
        pivot of the RREF of I; the result keeps those columns as
        basis_cols, so placing coordinates there lifts an element to A.
        """
        f = self.field
        red, piv = rref(f, np.asarray(rows))
        free = [c for c in range(self.dim) if c not in set(piv)]

        def reduce(v):
            # subtracting the pivot rows leaves the representative supported on free
            return self._canon(v - v[..., piv] @ red)[..., free]

        out = StructureAlgebra(f, reduce(self.structure[np.ix_(free, free)]), reduce(self.unit))
        out.basis_cols = free
        return out
