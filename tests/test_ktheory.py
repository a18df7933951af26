"""K0 presentations, unit groups, and Whitehead reduction."""

import itertools
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import numpy as np
import pytest

from gpktheory import gorenstein
from gpktheory.exactla import (
    AbelianGroupDescription,
    CertificateError,
    FieldSpec,
)
from gpktheory.gorenstein import gp_catalog
from gpktheory.ktheory import (
    CatalogUnknown,
    FiniteCommutativeRing,
    K1Class,
    NotInvertible,
    UnsupportedRing,
    build_k0_input,
    k0_gorenstein,
    k1_gorenstein,
    unit_group,
    whitehead_reduce,
)

from builders import (
    alg61a,
    alg61b,
    alg62a,
    alg62b,
    every_coeff_vector,
    loop_square_zero,
    nakayama,
    reference_k0_harvest,
    semisimple_two,
    truncated_polynomials,
)

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)
GF7 = FieldSpec(7)


def test_k0_square_zero_loop_is_order_two():
    a = loop_square_zero()
    cat = gp_catalog(a)
    g = k0_gorenstein(a, cat)
    assert g.free_rank == 0
    assert g.invariant_factors == (2,)


def test_k0_two_cycle_catalog_presentation():
    # one generator; the nonsplit self-extensions force index-two torsion
    a = alg61a(GF5)
    cat = gp_catalog(a)
    data = build_k0_input(a, cat)
    assert data.generators == ("G0",)
    assert cat.notes == []
    # one class per line of a 1-dim ext space, and no split rows
    assert data.matrix.rows == tuple(cat.relations) == ((-2,),)
    g = k0_gorenstein(a, cat)
    assert g.invariant_factors == (2,) and g.free_rank == 0


K0_HARVEST_CASES = [
    pytest.param(lambda: loop_square_zero(GF2), id="kx2/GF(2)"),
    *[
        pytest.param(lambda f=f: truncated_polynomials(f, 3), id=f"k[x]/(x^3)/{f.label}")
        for f in (GF2, GF3, GF5)
    ],
    pytest.param(lambda: alg61a(GF5), id="61A/GF(5)"),
    pytest.param(lambda: alg61b(GF3), id="61B/GF(3)"),
    pytest.param(lambda: alg62a(GF3), id="62A/GF(3)"),
    pytest.param(lambda: alg62b(GF3), id="62B/GF(3)"),
]


@pytest.mark.parametrize("make", K0_HARVEST_CASES)
def test_k0_harvest_by_lines_matches_every_class(monkeypatch, make):
    """One extension class per line gives the items, rows and group that
    the enumeration of every nonzero class gives."""
    a = make()
    cat = gp_catalog(a)
    with monkeypatch.context() as mp:
        mp.setattr(gorenstein, "coeff_vectors", every_coeff_vector)
        ref = gp_catalog(a)
    assert [item.key() for item in cat.items] == [item.key() for item in ref.items]
    assert set(cat.relations) == set(ref.relations)
    assert (cat.verdict, cat.notes) == (ref.verdict, ref.notes)
    assert k0_gorenstein(a, cat) == k0_gorenstein(a, ref)


@pytest.mark.parametrize("make", K0_HARVEST_CASES)
def test_catalog_relations_match_reference_harvest(make):
    """The separate harvest over catalog items and projectives found only
    zero split rows, no extension from an item to a projective, and the
    extension rows the catalog records."""
    a = make()
    cat = gp_catalog(a)
    split, extension, item_to_projective = reference_k0_harvest(a, cat)
    assert not any(any(r) for r in split)
    assert item_to_projective == 0
    assert set(extension) == set(cat.relations)


def test_k0_loop_algebra_matches_two_cycle():
    b = alg61b(GF3)
    cat = gp_catalog(b)
    g = k0_gorenstein(b, cat)
    assert g.free_rank == 0
    assert g.invariant_factors == (2,)


def test_k0_cm_free_trivial():
    for make in (alg62a, alg62b):
        a = make(GF3)
        cat = gp_catalog(a)
        g = k0_gorenstein(a, cat)
        assert g.is_trivial
    s = semisimple_two()
    assert k0_gorenstein(s, gp_catalog(s)).is_trivial


def test_k0_rejects_unknown_catalog():
    a = alg61a()
    cat = gp_catalog(a, dim_cap=1)
    with pytest.raises(CatalogUnknown):
        k0_gorenstein(a, cat)
    with pytest.raises(CatalogUnknown):
        k1_gorenstein(a, cat)


def test_k0_order_invariance():
    # same group regardless of the catalog's seed
    a = alg61a(GF3)
    g1 = k0_gorenstein(a, gp_catalog(a, seed=0))
    g2 = k0_gorenstein(a, gp_catalog(a, seed=99))
    assert g1.same_group(g2)


def test_k1_orders_follow_field():
    for field, order in ((GF3, 2), (GF5, 4), (GF7, 6)):
        a = alg61a(field)
        res = k1_gorenstein(a, gp_catalog(a))
        assert res.lambda_dim == 1
        if order > 1:
            assert res.group.invariant_factors == (order,)
        assert res.group.free_rank == 0


def test_k1_loop_algebra():
    b = alg61b(GF3)
    res = k1_gorenstein(b, gp_catalog(b))
    assert res.lambda_dim == 1
    assert res.group.invariant_factors == (2,)


def test_k1_cm_free_and_gf2_trivial():
    a = alg62a(GF3)
    assert k1_gorenstein(a, gp_catalog(a)).group.is_trivial
    # over GF(2) the unit group of k is trivial
    c = loop_square_zero(GF2)
    assert k1_gorenstein(c, gp_catalog(c)).group.is_trivial


def test_k1_description_states_the_unit_order():
    # Nakayama(3, 2): the stable End is GF(7)^3, with no radical
    a = nakayama(GF7, 3, 2)
    res = k1_gorenstein(a, gp_catalog(a))
    assert res.group.invariant_factors == (6, 6, 6)
    assert "order 216" in res.description
    assert "1 + radical has order 1" in res.description
    b = loop_square_zero(GF3)
    res = k1_gorenstein(b, gp_catalog(b))
    assert "order 2" in res.description and "1 + radical has order 1" in res.description


def test_unit_group_structures():
    assert unit_group(FiniteCommutativeRing.from_field(GF5)).invariant_factors == (4,)
    assert unit_group(FiniteCommutativeRing.from_field(GF7)).invariant_factors == (6,)
    dual = FiniteCommutativeRing.dual_numbers(GF3)
    assert unit_group(dual).invariant_factors == (6,)
    dual2 = FiniteCommutativeRing.dual_numbers(GF2)
    assert unit_group(dual2).invariant_factors == (2,)


def test_whitehead_diagonal_and_elementary():
    ring = FiniteCommutativeRing.from_field(GF5)
    two, one, zero = (2,), (1,), (0,)
    cls = whitehead_reduce([[two, zero], [zero, one]], ring)
    assert cls == K1Class(ring, two)
    # elementary matrix reduces to the trivial class
    e = [[one, (3,)], [zero, one]]
    assert whitehead_reduce(e, ring) == K1Class(ring, one)
    # diag(u, v) -> class uv
    cls2 = whitehead_reduce([[two, zero], [zero, (3,)]], ring)
    assert cls2 == K1Class(ring, (1,))  # 2*3 = 6 = 1 mod 5


def test_whitehead_rejects_singular():
    ring = FiniteCommutativeRing.from_field(GF5)
    with pytest.raises(NotInvertible):
        whitehead_reduce([[(1,), (2,)], [(2,), (4,)]], ring)
    dual = FiniteCommutativeRing.dual_numbers(GF3)
    with pytest.raises(NotInvertible):
        whitehead_reduce([[(0, 1)]], dual)  # t is not a unit


def test_whitehead_rejects_nonlocal_ring():
    # GF(3) x GF(3) with componentwise product is not local
    f = GF3
    s = f.zeros((2, 2, 2))
    s[0][0] = f.array([1, 0])
    s[1][1] = f.array([0, 1])
    ring = FiniteCommutativeRing(f, s, f.array([1, 1]), name="GF(3) x GF(3)")
    with pytest.raises(UnsupportedRing):
        whitehead_reduce([[(1, 1)]], ring)


def _random_invertible(ring, n, rng):
    while True:
        mat = [
            [tuple(int(ring.field.random_scalar(rng)) for _ in range(ring.dim)) for _ in range(n)]
            for _ in range(n)
        ]
        try:
            cls = whitehead_reduce(mat, ring)
            return mat, cls
        except NotInvertible:
            continue


def _ring_matmul(ring, a, b):
    n = len(a)
    f = ring.field
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ring.zero()
            for t in range(n):
                acc = f.add(acc, ring.mult(ring.canon_el(a[i][t]), ring.canon_el(b[t][j])))
            row.append(tuple(int(c) for c in acc))
        out.append(row)
    return out


def test_whitehead_multiplicative_over_field_and_local_ring():
    for ring in (FiniteCommutativeRing.from_field(GF5), FiniteCommutativeRing.dual_numbers(GF3)):
        rng = Random(11)
        for _ in range(15):
            m1, c1 = _random_invertible(ring, 3, rng)
            m2, c2 = _random_invertible(ring, 3, rng)
            prod = _ring_matmul(ring, m1, m2)
            assert whitehead_reduce(prod, ring) == c1.mul(c2)


def test_whitehead_elementary_invariance():
    ring = FiniteCommutativeRing.dual_numbers(GF3)
    rng = Random(5)
    m, cls = _random_invertible(ring, 3, rng)
    # multiply by a random elementary matrix on each side
    lam = tuple(int(ring.field.random_scalar(rng)) for _ in range(ring.dim))
    e = [[(1, 0) if i == j else ((0, 0) if (i, j) != (0, 2) else lam) for j in range(3)] for i in range(3)]
    assert whitehead_reduce(_ring_matmul(ring, e, m), ring) == cls
    assert whitehead_reduce(_ring_matmul(ring, m, e), ring) == cls


# ---------------------------------------------------------------------------
# unit groups against a reference that lists every ring element


def _ref_elements(ring):
    p = ring.field.char
    for v in itertools.product(range(p), repeat=ring.dim):
        yield ring.canon_el(v)


def _ref_units(ring):
    return [x for x in _ref_elements(ring) if ring.is_unit(x)]


def _ref_is_local(ring):
    """Nonunits closed under addition (equivalent to locality here)."""
    units = {tuple(u) for u in _ref_units(ring)}
    nonunits = [x for x in _ref_elements(ring) if tuple(x) not in units]
    f = ring.field
    return not any(tuple(f.add(x, y)) in units for x in nonunits for y in nonunits)


def _ref_batch_power(ring, xs, k):
    """Row-wise k-th powers of the ring elements in the rows of xs."""
    p = ring.field.char
    s = np.asarray(ring.structure, dtype=np.int64)
    result = np.tile(ring.unit, (len(xs), 1))
    base = xs
    while k:
        if k & 1:
            result = np.einsum("ni,nj,ijk->nk", result, base, s) % p
        base = np.einsum("ni,nj,ijk->nk", base, base, s) % p
        k >>= 1
    return result


def _ref_prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _ref_unit_group(ring):
    """Invariant factors from counts of solutions of u^(ell^j) = 1 among the units."""
    units = np.array(_ref_units(ring))
    n = len(units)
    primary = {}
    for ell in _ref_prime_factors(n):
        logs = [0]
        j = 1
        while True:
            cnt = int((_ref_batch_power(ring, units, ell**j) == ring.unit).all(axis=1).sum())
            a_j = 0
            while cnt > ell**a_j:
                a_j += 1
            assert ell**a_j == cnt
            logs.append(a_j)
            if a_j == logs[-2]:
                break
            j += 1
        exps = []
        for j in range(1, len(logs)):
            count_ge_j = logs[j] - logs[j - 1]
            exps += [0] * (count_ge_j - len(exps))
            for i in range(count_ge_j):
                exps[i] = j
        primary[ell] = exps
    k = max((len(v) for v in primary.values()), default=0)
    factors = []
    for i in range(k):
        d = 1
        for ell, exps in primary.items():
            if i < len(exps):
                d *= ell ** exps[i]
        factors.append(d)
    return tuple(sorted(d for d in factors if d > 1))


def _poly_ring(name, p, *factors):
    """GF(p)[t]/(m) with m the product of the given monic polynomials, each
    a coefficient list from the constant term up to the leading 1."""
    f = FieldSpec(p)
    m = [1]
    for g in factors:
        m = [
            sum(m[i] * g[k - i] for i in range(len(m)) if 0 <= k - i < len(g)) % p
            for k in range(len(m) + len(g) - 1)
        ]
    k = len(m) - 1
    reduced = [f.zeros((k,))]  # t^e mod m, for e = 0 .. 2k - 2
    reduced[0][0] = 1
    for _ in range(2 * k - 2):
        top = reduced[-1][-1]
        nxt = np.concatenate([[0], reduced[-1][:-1]])
        reduced.append((nxt - top * np.array(m[:-1])) % p)
    s = f.zeros((k, k, k))
    for i in range(k):
        for j in range(k):
            s[i][j] = reduced[i + j]
    return FiniteCommutativeRing(f, s, reduced[0], name=name)


def _tensor(r1, r2):
    f = r1.field
    n1, n2 = r1.dim, r2.dim
    s = f.zeros((n1 * n2, n1 * n2, n1 * n2))
    for i, k, j, l in itertools.product(range(n1), range(n2), range(n1), range(n2)):
        s[i * n2 + k][j * n2 + l] = np.kron(r1.structure[i][j], r2.structure[k][l]) % f.char
    unit = np.kron(r1.unit, r2.unit) % f.char
    return FiniteCommutativeRing(f, s, unit, name=f"{r1.name} (x) {r2.name}")


def _product(*rings):
    f = rings[0].field
    n = sum(r.dim for r in rings)
    s = f.zeros((n, n, n))
    at = 0
    for r in rings:
        span = slice(at, at + r.dim)
        for i in range(r.dim):
            for j in range(r.dim):
                s[at + i][at + j][span] = r.structure[i][j]
        at += r.dim
    unit = np.concatenate([r.unit for r in rings])
    return FiniteCommutativeRing(f, s, unit, name=" x ".join(r.name for r in rings))


def _truncated(p, k):
    return _poly_ring(f"GF({p})[t]/(t^{k})", p, [0] * k + [1])


GF4 = _poly_ring("GF(4)", 2, [1, 1, 1])
GF8 = _poly_ring("GF(8)", 2, [1, 1, 0, 1])
GF9 = _poly_ring("GF(9)", 3, [1, 0, 1])
GF16 = _poly_ring("GF(16)", 2, [1, 1, 0, 0, 1])
GF25 = _poly_ring("GF(25)", 5, [2, 0, 1])
GF49 = _poly_ring("GF(49)", 7, [1, 0, 1])

REFERENCE_RINGS = (
    [_truncated(p, k) for p in (2, 3, 5, 7) for k in (1, 2, 3, 4)]
    + [GF4, GF8, GF9, GF16, GF25]
    + [
        _tensor(GF4, _truncated(2, 2)),  # GF(4)[s]/(s^2)
        _tensor(_truncated(3, 2), _truncated(3, 2)),  # GF(3)[s,t]/(s^2,t^2)
        _truncated(2, 8),  # 1 + J = Z/2 x Z/2 x Z/4 x Z/8
        _product(GF9, _truncated(3, 2)),
        _product(GF4, _truncated(2, 3), GF8),
        _product(*[_truncated(7, 1)] * 3),  # GF(7)^3: no radical
        _product(GF49, _truncated(7, 2)),
        _product(_truncated(2, 1), GF16, _truncated(2, 3)),
        # GF(9) x GF(3)[u]/(u^2) in a basis that mixes the two factors
        _poly_ring("GF(3)[t]/((t^2+1)(t+1)^2)", 3, [1, 0, 1], [1, 2, 1]),
        # GF(4) x GF(8) x GF(2)[u]/(u^2), likewise
        _poly_ring("GF(2)[t]/((t^2+t+1)(t^3+t+1)t^2)", 2, [1, 1, 1], [1, 1, 0, 1], [0, 0, 1]),
    ]
)


@pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=lambda r: r.name)
def test_unit_group_matches_enumeration(ring):
    assert ring.field.char**ring.dim <= 65536
    got = unit_group(ring)
    assert got.free_rank == 0
    assert got.invariant_factors == _ref_unit_group(ring)


@pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=lambda r: r.name)
def test_is_local_matches_pairwise_test(ring):
    assert ring.is_local() == _ref_is_local(ring)


def test_reference_rings_cover_residue_degrees_and_deep_p_parts():
    groups = {r.name: unit_group(r).invariant_factors for r in REFERENCE_RINGS}
    assert groups[GF16.name] == (15,)
    assert groups[_truncated(2, 8).name] == (2, 2, 4, 8)
    assert groups[_truncated(3, 4).name] == (3, 18)  # Z/9 x Z/3 x Z/2
    assert groups[_product(*[_truncated(7, 1)] * 3).name] == (6, 6, 6)


def test_frobenius_ranks_on_a_large_product():
    # GF(7)^6 has 7^6 elements; the unit group is read from ranks alone
    ring = _product(*[_truncated(7, 1)] * 6)
    assert unit_group(ring).invariant_factors == (6,) * 6
    assert not ring.is_local()


# ---------------------------------------------------------------------------
# certificates raise, also under python -O


def test_ring_certificates_raise():
    f = GF3
    s = f.zeros((2, 2, 2))
    s[0][0] = f.array([1, 0])
    s[0][1] = f.array([0, 1])
    s[1][0] = f.array([0, 0])  # b_0 b_1 != b_1 b_0
    with pytest.raises(CertificateError):
        FiniteCommutativeRing(f, s, [1, 0])
    dual = FiniteCommutativeRing.dual_numbers(f)
    with pytest.raises(CertificateError):
        FiniteCommutativeRing(f, dual.structure, [0, 1])  # t is not the unit


def test_shape_checks_raise_value_error():
    ring = FiniteCommutativeRing.dual_numbers(GF3)
    with pytest.raises(ValueError):
        ring.canon_el((1, 0, 0))
    with pytest.raises(ValueError):
        whitehead_reduce([[(1, 0), (0, 0)]], ring)
    other = FiniteCommutativeRing.dual_numbers(GF3)
    with pytest.raises(ValueError):
        K1Class(ring, (1, 0)).mul(K1Class(other, (1, 0)))


def test_ktheory_tests_pass_under_python_O():
    """The certificates of ktheory, gorenstein, stable, rep, presentation,
    morita and exactla (with the shared algebra) and waldhausen's certificate
    tests raise rather than assert, so their tests also pass with asserts
    stripped.  The rest of test_waldhausen.py is left out: under -O it takes
    about a minute, mostly in three oracle tests."""
    root = Path(__file__).resolve().parent.parent
    paths = [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    here = Path(__file__).parent
    files = [
        str(here / name)
        for name in ("test_ktheory.py", "test_stable.py", "test_radical.py", "test_rep.py",
                     "test_decompose_fast.py", "test_exactla.py", "test_presentation.py",
                     "test_gorenstein.py", "test_morita.py")
    ] + [
        str(here / "test_waldhausen.py") + "::" + name
        for name in ("test_verify_exact_rejects_non_exact_pairs",
                     "test_stacked_exactness_certificate_rejects_broken_members",
                     "test_summand_missing_from_the_catalog_is_a_certificate_error",
                     "test_unknown_catalog_rejected")
    ]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *files, "-k", "not python_O"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
