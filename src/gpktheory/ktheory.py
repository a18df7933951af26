"""K-groups of the Gorenstein projective layer.

K0 is presented by the catalog's indecomposable non-projective classes
(projective classes are zero) modulo the rows [E] - [X] - [Z] that
gorenstein.gp_catalog records for the extensions it builds while closing
the catalog, reduced by Smith normal form.  Split sequences give zero rows
and every extension with a projective end splits, so these rows are all
the relations.  K1 is computed from the stable endomorphism algebra of the
catalog sum: for a commutative stable End, K1 equals its unit group, and
Whitehead reduction of invertible matrices over a commutative local ring
certifies the GL/E collapse to units.

FiniteCommutativeRing is the shared exactla.StructureAlgebra with a
commutativity certificate; a ring taken from a stable End reuses the unit
and associativity certificate the stable End already passed.  The unit
group is found by linear algebra, never by listing ring elements: x -> x^p
is GF(p)-linear on a commutative ring, and the ranks of its powers give
both the radical part 1 + J and the residue fields (see unit_group).
Locality is one such rank.  Certificates raise exactla.CertificateError, so
they also run under `python -O`.
"""

from dataclasses import dataclass
from math import gcd, prod

import numpy as np

from . import exactla
from .exactla import (
    AbelianGroupDescription,
    CertificateError,
    FieldSpec,
    MatZ,
    StructureAlgebra,
    group_from_presentation,
)
from .gorenstein import GPCatalog
from .presentation import FiniteDimAlgebra
from .rep import direct_sum
from .stable import StableEndAlgebra, stable_end_algebra


class CatalogUnknown(Exception):
    """The GP catalog's verdict is Unknown; K-groups are not computed."""


class NoncommutativeStableEnd(Exception):
    """K1 is implemented only for commutative stable endomorphism algebras."""


class NotInvertible(Exception):
    """Whitehead reduction requires an invertible matrix."""


class UnsupportedRing(Exception):
    """Whitehead reduction requires a field or a commutative local ring."""


# ---------------------------------------------------------------------------
# K0


@dataclass
class K0Input:
    catalog: GPCatalog
    generators: tuple  # labels, one per catalog item
    matrix: MatZ  # rows = the catalog's relations [E] - [X] - [Z]


def build_k0_input(a: FiniteDimAlgebra, catalog: GPCatalog) -> K0Input:
    """The K0 presentation: catalog items modulo the catalog's relations."""
    if catalog.verdict == "Unknown":
        raise CatalogUnknown("catalog verdict is Unknown")
    labels = tuple(f"G{i}" for i in range(len(catalog.items)))
    return K0Input(catalog, labels, MatZ.make(catalog.relations))


def k0_gorenstein(a: FiniteDimAlgebra, catalog: GPCatalog) -> AbelianGroupDescription:
    data = build_k0_input(a, catalog)
    return group_from_presentation(data.generators, data.matrix.rows)


# ---------------------------------------------------------------------------
# finite commutative rings and their unit groups


class FiniteCommutativeRing(StructureAlgebra):
    """A finite-dimensional commutative algebra over a prime field, given by
    structure constants on a basis.  Elements are coordinate vectors.

    Construction certifies commutativity, the unit and associativity.
    """

    def __init__(self, field: FieldSpec, structure, unit, name: str = ""):
        super().__init__(field, structure, unit)
        self.name = name or f"ring of dimension {self.dim}"
        if not self.is_commutative():
            raise CertificateError(f"{self.name} is not commutative")
        self.certify()

    @classmethod
    def from_field(cls, field: FieldSpec) -> "FiniteCommutativeRing":
        one = field.zeros((1, 1, 1))
        one[0][0][0] = field.canon(1)
        return cls(field, one, [1], name=f"GF({field.char})")

    @classmethod
    def dual_numbers(cls, field: FieldSpec) -> "FiniteCommutativeRing":
        """field[t] / (t^2), a commutative local non-field ring."""
        s = field.zeros((2, 2, 2))
        # 1 * 1 = 1 and 1 * t = t * 1 = t; t * t = 0
        s[0, 0, 0] = s[0, 1, 1] = s[1, 0, 1] = field.canon(1)
        return cls(field, s, [1, 0], name=f"GF({field.char})[t]/(t^2)")

    @classmethod
    def from_stable_end(cls, lam: StableEndAlgebra) -> "FiniteCommutativeRing":
        if not lam.is_commutative():
            raise NoncommutativeStableEnd(
                "stable endomorphism algebra is not commutative"
            )
        # lam certified its unit and associativity when it was built
        ring = cls.__new__(cls)
        StructureAlgebra.__init__(ring, lam.field, lam.structure, lam.unit)
        ring.name = "stable End"
        return ring

    def canon_el(self, x):
        arr = self.field.array(list(x)).reshape(-1)
        if arr.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coordinates, got shape {arr.shape}")
        return arr

    def is_unit(self, x) -> bool:
        return exactla.invert(self.field, self.left_mult(x)) is not None

    def inverse(self, x):
        inv = exactla.invert(self.field, self.left_mult(x))
        if inv is None:
            raise NotInvertible("ring element is not a unit")
        return self.field.matmul(inv, self.unit.reshape(-1, 1)).reshape(-1)

    def is_local(self) -> bool:
        """One residue field: dim ker(F - 1) counts the residue fields."""
        f = self.field
        fixed = self.dim - exactla.rank_of(f, f.sub(self.frobenius(), f.eye(self.dim)))
        return fixed == 1


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def unit_group(ring: FiniteCommutativeRing) -> AbelianGroupDescription:
    """Structure of the unit group, from ranks of powers of the Frobenius F.

    With J the radical, R^* = (1 + J) x (R/J)^*, the two orders being coprime.
    For x in J, (1 + x)^(p^j) = 1 + x^(p^j), so 1 + J has p^(a_j) elements
    of order dividing p^j, where a_j = dim ker F^j; hence a_j - a_(j-1)
    cyclic factors of order >= p^j, and J = ker F^j once a_j stops growing.
    R/J is a product of fields GF(p^(f_i)) with sum f_i = dim R/J, and
    g(j) = dim ker(F^j - 1) = sum_i gcd(f_i, j) = sum_(e | j) phi(e) H(e) with
    H(e) = #{i : e | f_i}, which recovers the f_i; (R/J)^* is the product of
    the cyclic groups Z/(p^(f_i) - 1).
    """
    f = ring.field
    p = f.char
    n = ring.dim
    frob = ring.frobenius()
    eye = f.eye(n)
    # 1 + J: a_j = dim ker F^j until it stops growing; powers[j] = F^j
    kernel_dims = [0]
    powers = [eye]
    while True:
        powers.append(f.matmul(powers[-1], frob))
        kernel_dims.append(n - exactla.rank_of(f, powers[-1]))
        if kernel_dims[-1] == kernel_dims[-2]:
            break
    at_least = [b - a for a, b in zip(kernel_dims, kernel_dims[1:])]
    orders = [p ** sum(1 for c in at_least if c > i) for i in range(at_least[0])]
    # residue fields: H(j) from g(j), then the number of f_i equal to each d
    s = n - kernel_dims[-1]
    while len(powers) <= s:
        powers.append(f.matmul(powers[-1], frob))
    h = {}
    for j in range(1, s + 1):
        g = n - exactla.rank_of(f, f.sub(powers[j], eye))
        h[j] = (g - sum(_phi(e) * h[e] for e in h if j % e == 0)) // _phi(j)
    degree_counts = {}
    for d in range(s, 0, -1):
        degree_counts[d] = h[d] - sum(degree_counts[m] for m in range(2 * d, s + 1, d))
    if sum(d * c for d, c in degree_counts.items()) != s:
        raise CertificateError("residue degrees do not add up to dim R/J")
    orders += [p**d - 1 for d, c in degree_counts.items() for _ in range(c)]
    labels = [f"c{i}" for i in range(len(orders))]
    rows = [[o if i == k else 0 for k in range(len(orders))] for i, o in enumerate(orders)]
    factors = group_from_presentation(labels, rows).invariant_factors
    if prod(factors) != prod(orders) or any(
        b % a for a, b in zip(factors, factors[1:])
    ):
        raise CertificateError("invariant factors do not form a chain of the unit order")
    return AbelianGroupDescription(0, factors, ("u",))


# ---------------------------------------------------------------------------
# K1


@dataclass(frozen=True)
class K1Class:
    ring: FiniteCommutativeRing
    value: tuple  # coordinates of the representing unit

    def mul(self, other: "K1Class") -> "K1Class":
        if self.ring is not other.ring:
            raise ValueError("K1 classes of different rings")
        prod = self.ring.mult(self.ring.canon_el(self.value), self.ring.canon_el(other.value))
        return K1Class(self.ring, tuple(int(c) for c in prod))

    def __eq__(self, other):
        if not isinstance(other, K1Class):
            return NotImplemented
        return self.ring is other.ring and self.value == other.value

    def __hash__(self):
        return hash(self.value)


def whitehead_reduce(mat, ring: FiniteCommutativeRing) -> K1Class:
    """Reduce an invertible matrix over a commutative local ring to a unit.

    Only elementary row/column operations are used; the result is the class
    of the product of the final unit diagonal.  Invertibility is certified
    by assembling an explicit two-sided inverse from the recorded steps.
    """
    if not ring.is_local():
        raise UnsupportedRing(f"{ring.name} is not local")
    n = len(mat)
    f = ring.field
    work = [[ring.canon_el(x) for x in row] for row in mat]
    if any(len(row) != n for row in work):
        raise ValueError("matrix is not square")
    left = [[ring.unit.copy() if i == j else ring.zero() for j in range(n)] for i in range(n)]
    right = [[ring.unit.copy() if i == j else ring.zero() for j in range(n)] for i in range(n)]

    def row_op(target, i, j, c):
        # r_i += c * r_j
        for col in range(n):
            target[i][col] = f.add(target[i][col], ring.mult(c, target[j][col]))

    def col_op(target, j, i, c):
        # c_j += c_i * c
        for row in range(n):
            target[row][j] = f.add(target[row][j], ring.mult(target[row][i], c))

    for k in range(n):
        if not ring.is_unit(work[k][k]):
            for i in range(k + 1, n):
                if ring.is_unit(work[i][k]):
                    row_op(work, k, i, ring.unit)
                    row_op(left, k, i, ring.unit)
                    break
            else:
                raise NotInvertible(
                    f"no unit available as pivot in column {k}; "
                    "matrix not invertible over a local ring"
                )
        pinv = ring.inverse(work[k][k])
        for i in range(n):
            if i == k or not np.any(work[i][k] != 0):
                continue
            c = f.scale(f.canon(-1), ring.mult(work[i][k], pinv))
            row_op(work, i, k, c)
            row_op(left, i, k, c)
        for j in range(n):
            if j == k or not np.any(work[k][j] != 0):
                continue
            c = f.scale(f.canon(-1), ring.mult(pinv, work[k][j]))
            col_op(work, j, k, c)
            col_op(right, j, k, c)
    diag = [work[i][i] for i in range(n)]
    u = ring.unit.copy()
    for d in diag:
        if not ring.is_unit(d):
            raise CertificateError("reduced diagonal entry is not a unit")
        u = ring.mult(u, d)
    # certify: left * mat * right = diag, so inv = right * diag^{-1} * left
    def ring_matmul(a, b):
        out = [[ring.zero() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = ring.zero()
                for t in range(n):
                    acc = f.add(acc, ring.mult(a[i][t], b[t][j]))
                out[i][j] = acc
        return out

    dinv = [
        [ring.inverse(diag[i]) if i == j else ring.zero() for j in range(n)]
        for i in range(n)
    ]
    original = [[ring.canon_el(x) for x in row] for row in mat]
    inv = ring_matmul(ring_matmul(right, dinv), left)
    for check in (ring_matmul(original, inv), ring_matmul(inv, original)):
        for i in range(n):
            for j in range(n):
                expect = ring.unit if i == j else ring.zero()
                if (check[i][j] != expect).any():
                    raise CertificateError("certified inverse failed")
    return K1Class(ring, tuple(int(c) for c in u))


@dataclass
class K1Result:
    group: AbelianGroupDescription
    description: str
    lambda_dim: int


def k1_gorenstein(a: FiniteDimAlgebra, catalog: GPCatalog) -> K1Result:
    """K1 of the stable endomorphism algebra of the catalog sum."""
    if catalog.verdict == "Unknown":
        raise CatalogUnknown("catalog verdict is Unknown")
    if catalog.verdict == "CMFree":
        return K1Result(
            AbelianGroupDescription(0, (), ()),
            "trivial: no non-projective Gorenstein projectives",
            0,
        )
    big = direct_sum(list(catalog.items))[0]
    lam = stable_end_algebra(big)
    ring = FiniteCommutativeRing.from_stable_end(lam)
    group = unit_group(ring)
    p = ring.field.char
    order = prod(group.invariant_factors)
    # |(R/J)^*| is prime to p, so the p-part of the order is |1 + J|
    radical = gcd(order, p ** order.bit_length())
    description = (
        f"unit group of the stable endomorphism algebra "
        f"(dimension {lam.dim} over GF({p})): order {order}, {group}; "
        f"1 + radical has order {radical}"
    )
    return K1Result(group, description, lam.dim)
