"""The structure-constant algebra: its product against the double loops it
replaced, its radical against a brute-force radical, and the decompose
certificate that rests on that radical."""

from random import Random

import numpy as np
import pytest

from gpktheory import exactla, rep
from gpktheory.exactla import CertificateError, FieldSpec, StructureAlgebra
from gpktheory.presentation import Quiver, build_algebra
from gpktheory.rep import (
    cyclic_module,
    decompose,
    direct_sum,
    hom_basis,
    projective,
    regular,
    simple,
)
from gpktheory.stable import stable_end_algebra

from builders import alg61a, alg61b, loop_square_zero
from test_ktheory import REFERENCE_RINGS

# ---------------------------------------------------------------------------
# the product


def _ref_mult(f, structure, x, y):
    """The double loop over basis pairs that each algebra class carried."""
    dim = len(structure)
    out = f.zeros((dim,))
    for i in range(dim):
        if x[i] == 0:
            continue
        for j in range(dim):
            if y[j] == 0:
                continue
            out = f.add(out, f.scale(f.canon(x[i] * y[j]), structure[i][j]))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_product_matches_double_loop_on_random_tables(p):
    f = FieldSpec(p)
    rng = Random(p)
    for dim in (1, 2, 3, 5, 8):
        table = np.array(
            [[[rng.randrange(p) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        )
        alg = StructureAlgebra(f, table, [1] + [0] * (dim - 1))
        xs = np.array([[rng.randrange(p) for _ in range(dim)] for _ in range(6)])
        ys = np.array([[rng.randrange(p) for _ in range(dim)] for _ in range(6)])
        ref = np.stack([_ref_mult(f, table, x, y) for x, y in zip(xs, ys)])
        assert (alg.mult(xs, ys) == ref).all()  # a stack, row by row
        for x, y, r in zip(xs, ys, ref):
            assert (alg.mult(x, y) == r).all()
            assert (f.matmul(alg.left_mult(x), y) == r).all()


def test_product_matches_double_loop_on_a_rational_stable_end():
    f = FieldSpec(3)
    a = alg61a(f)
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    lam = stable_end_algebra(direct_sum([g, g])[0])  # M_2(GF(3))
    assert lam.dim == 4 and not lam.is_commutative()
    rng = Random(5)
    for _ in range(6):
        x = np.array([f.random_scalar(rng) for _ in range(4)])
        y = np.array([f.random_scalar(rng) for _ in range(4)])
        got = lam.mult(x, y)
        assert got.dtype == np.int64
        assert list(got) == list(_ref_mult(f, lam.structure, x, y))


def test_certify_raises_on_a_broken_table(monkeypatch):
    # GF(3)[s, t]/(s, t)^2, then s t := s: the unit law still holds, but
    # (s t) t = s while s (t t) = 0
    f = FieldSpec(3)
    table = f.zeros((3, 3, 3))
    table[0, 0, 0] = table[0, 1, 1] = table[1, 0, 1] = table[0, 2, 2] = table[2, 0, 2] = 1
    StructureAlgebra(f, table, [1, 0, 0]).certify()
    table[1, 2, 1] = 1
    monkeypatch.setattr(exactla, "STACK_BYTES", 64)  # one (i, j) pair per chunk
    with pytest.raises(CertificateError, match="associative"):
        StructureAlgebra(f, table, [1, 0, 0]).certify()
    with pytest.raises(CertificateError, match="unit"):
        StructureAlgebra(f, table, [0, 1, 0]).certify()
    with pytest.raises(ValueError):
        StructureAlgebra(f, table, [1, 0])


# ---------------------------------------------------------------------------
# the radical against x in J <=> 1 - y x is a unit for every y


def _all_elements(p, e):
    place = p ** np.arange(e, dtype=np.int64)
    return (np.arange(p**e, dtype=np.int64)[:, None] // place) % p, place


def _brute_radical(alg):
    """Every x with 1 - y x a unit for all y, as a set of coordinate tuples."""
    p, e = alg.field.char, alg.dim
    elems, place = _all_elements(p, e)
    _, ranks = exactla.rref_stack_fp(alg.left_mult(elems), p)
    is_unit = ranks == e
    # y b_j for every y and j, so that y x = sum_j x_j (y b_j)
    y_times = alg._times_basis(elems).astype(np.float64)  # exact: sums stay below 2**53
    out = set()
    chunk = max(1, (1 << 20) // (len(elems) * e))
    for start in range(0, len(elems), chunk):
        xs = elems[start : start + chunk]
        yx = np.tensordot(xs.astype(np.float64), y_times, axes=([1], [1])).astype(np.int64) % p
        codes = ((alg.unit - yx) % p) @ place
        for x, ok in zip(xs, is_unit[codes].all(axis=1)):
            if ok:
                out.add(tuple(int(c) for c in x))
    return out


def _span(p, rows):
    coeffs, _ = _all_elements(p, rows.shape[0])
    return {tuple(int(c) for c in v) for v in (coeffs @ rows) % p}


def _check_radical(alg):
    rad = alg.radical()
    assert rad.shape[1] == alg.dim
    assert (exactla.rref(alg.field, rad)[0] == rad).all()  # returned in RREF
    if alg.field.char**alg.dim <= exactla.EXHAUSTIVE_CAP:
        assert _span(alg.field.char, rad) == _brute_radical(alg)
    return rad


@pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=lambda r: r.name)
def test_radical_of_reference_rings_matches_brute_force(ring):
    rad = _check_radical(ring)
    # for a commutative ring J is the kernel of a high enough Frobenius power
    frob = ring.frobenius()
    power = ring.field.eye(ring.dim)
    for _ in range(ring.dim):
        power = ring.field.matmul(power, frob)
    assert rad.shape[0] == ring.dim - exactla.rank_of(ring.field, power)


def _a2(f):
    """The path algebra of 1 -> 2."""
    return build_algebra(Quiver.make(["1", "2"], [("a", "1", "2")]), [], f)


def _end(m):
    return rep._end_algebra(hom_basis(m, m))


def _path_algebra_end_rings():
    out = []
    for p in (2, 3):
        f = FieldSpec(p)
        kx2, a2 = loop_square_zero(f), _a2(f)
        s1, p1, p2 = simple(a2, "1"), projective(a2, "1"), projective(a2, "2")
        out += [
            pytest.param(direct_sum([regular(kx2), simple(kx2, "1")])[0], 3, id=f"kx2+S/GF({p})"),
            pytest.param(direct_sum([p1, s1])[0], 1, id=f"P1+S1 of 1->2/GF({p})"),
            pytest.param(direct_sum([p1, p2])[0], 1, id=f"P1+P2 of 1->2/GF({p})"),
        ]
    f = FieldSpec(2)
    kx2 = loop_square_zero(f)
    out.append(pytest.param(direct_sum([regular(kx2)] * 2)[0], 4, id="kx2^2/GF(2)"))
    out.append(pytest.param(regular(alg61b(f)), None, id="61B regular/GF(2)"))
    return out


@pytest.mark.parametrize("m,rad_dim", _path_algebra_end_rings())
def test_radical_of_path_algebra_end_rings_matches_brute_force(m, rad_dim):
    alg = _end(m)
    alg.certify()
    rad = _check_radical(alg)
    assert rad.shape[0] > 0  # none of these is semisimple
    if rad_dim is not None:
        assert rad.shape[0] == rad_dim


@pytest.mark.parametrize("p,k", [(2, 2), (3, 3), (5, 5)])
def test_semisimple_end_rings_have_zero_radical(p, k):
    # End(S1^k + S2) of 1 -> 2 is M_k(GF(p)) x GF(p); the trace form vanishes
    # on the M_p block, so only the lifted traces see that it is semisimple
    a = _a2(FieldSpec(p))
    m = direct_sum([simple(a, "1")] * k + [simple(a, "2")])[0]
    alg = _end(m)
    assert alg.dim == k * k + 1
    assert _check_radical(alg).shape == (0, alg.dim)
    top = alg.quotient(alg.radical())
    assert top.dim == alg.dim and not top.is_commutative()


def _matrix_subalgebra(p, gens):
    """The unital subalgebra of M_n(GF(p)) generated by gens, on the RREF
    basis of its flattened matrices (so coordinates sit at the pivots)."""
    f = FieldSpec(p)
    n = gens[0].shape[0]
    basis = np.eye(n, dtype=np.int64).reshape(1, -1)
    while True:
        prods = [((b.reshape(n, n) @ g) % p).reshape(-1) for b in basis for g in gens]
        grown = exactla.rref(f, np.concatenate([basis, prods]))[0]
        if len(grown) == len(basis):
            break
        basis = grown
    _, piv = exactla.rref(f, basis)
    mats = basis.reshape(-1, n, n)
    table = ((mats[:, None] @ mats[None, :]) % p).reshape(len(mats), len(mats), n * n)
    unit = np.eye(n, dtype=np.int64).reshape(-1)
    return StructureAlgebra(f, table[:, :, piv], unit[piv])


def test_radical_needs_the_lifted_powers():
    # reducing the powers of L_x mod p instead of mod p^(i+1) before the
    # trace gives a radical of dim 3 here
    gens = [
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 1]],
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    ]
    alg = _matrix_subalgebra(2, [np.array(g) for g in gens])
    alg.certify()
    assert _check_radical(alg).shape == (4, 7)


def test_radical_chunks_agree(monkeypatch):
    a = _a2(FieldSpec(2))
    m = direct_sum([simple(a, "1")] * 2 + [projective(a, "1")])[0]
    alg = _end(m)
    whole = alg.radical()
    monkeypatch.setattr(exactla, "STACK_BYTES", 64)
    assert (alg.radical() == whole).all()


def test_quotient_by_the_radical_is_the_residue_ring():
    ring = next(r for r in REFERENCE_RINGS if r.name == "GF(2)[t]/(t^8)")
    top = ring.quotient(ring.radical())
    assert top.dim == 1 and list(top.unit) == [1] and top.basis_cols == [0]
    top.certify()
    assert top.quotient(top.radical()).dim == 1


# ---------------------------------------------------------------------------
# decompose certifies through the radical


@pytest.mark.parametrize("p,k", [(3, 3), (5, 5)])
def test_decompose_without_a_first_fitting_split(monkeypatch, p, k):
    """The first Fitting search of each _decompose_rec call finds nothing,
    so S1^k + S2 reaches the radical certificate, whose End/rad is
    M_k(GF(p)) x GF(p): decomposable, so the retry search must split it."""
    real = rep._first_fitting_split
    seen = []

    def first_search_fails(m, cands, lambdas):
        if not any(m is x for x in seen):
            seen.append(m)
            return None
        return real(m, cands, lambdas)

    monkeypatch.setattr(rep, "_first_fitting_split", first_search_fails)
    a = _a2(FieldSpec(p))
    m = direct_sum([simple(a, "1")] * k + [simple(a, "2")])[0]
    assert p ** hom_basis(m, m).dim > exactla.EXHAUSTIVE_CAP
    parts = sorted((piece.dim_vector, mult) for piece, mult in decompose(m))
    assert parts == [((0, 1), 1), ((1, 0), k)]
