"""Bimodules, balanced tensor products, and Morita-type certification."""

import gc
import hashlib
import weakref
from random import Random

import numpy as np
import pytest

from gpktheory import morita
from gpktheory.exactla import CertificateError, FieldSpec
from gpktheory.morita import (
    AlgebraMismatch,
    Bimodule,
    adjunction_data,
    bimodule_from_module,
    check_frobenius_bimodule,
    check_semt,
    check_unit_counit_pd,
    compare_invariants,
    left_dual,
    left_module_of,
    module_from_bimodule,
    point_algebra,
    regular_bimodule,
    right_dual,
    right_module_of,
    tensor,
    tensor_algebra,
    tensor_bimodules,
    transpose,
)
from gpktheory.presentation import Quiver, RelationElem, build_algebra, opposite
from gpktheory.rep import (
    Representation,
    direct_sum,
    is_isomorphic,
    is_projective,
    projective,
    regular,
    simple,
    zero_rep,
)

from builders import (
    alg61a,
    alg61b,
    alg62a,
    alg62b,
    loop_square_zero,
    reference_right_dual,
    reference_right_module_of,
    semisimple_two,
)

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def arrow_algebra(field=GF2):
    q = Quiver.make(["1", "2"], [("a", "1", "2")])
    return build_algebra(q, [], field)


def one_dim_bimodule(a, t):
    """The simple bimodule of a local algebra: all arrows act by zero."""
    return Bimodule(a, a, Representation(t, {"1.1": 1}, {}, check=True))


def test_tensor_algebra_shapes():
    a = loop_square_zero(GF2)
    t = tensor_algebra(a, a)
    assert t.dim == 4
    assert t.quiver.vertices == ("1.1",)
    assert sorted(ar.label for ar in t.quiver.arrows) == ["1~x", "x@1"]

    b = arrow_algebra()
    tb = tensor_algebra(b, b)
    assert tb.dim == 9
    assert len(tb.quiver.vertices) == 4
    # cached per operand pair
    assert tensor_algebra(b, b) is tb
    assert tensor_algebra(b, a).dim == b.dim * a.dim


def test_tensor_cache_does_not_keep_its_factors_alive():
    b = arrow_algebra()
    a = loop_square_zero(GF2)
    t = tensor_algebra(b, a)
    assert tensor_algebra(b, a) is t
    tt = tensor_algebra(a, a)
    refs = [weakref.ref(x) for x in (a, b, t, tt)]
    del a, b, t, tt
    gc.collect()
    assert [r() for r in refs] == [None] * 4


def test_tensor_algebra_field_mismatch():
    with pytest.raises(AlgebraMismatch):
        tensor_algebra(loop_square_zero(GF2), loop_square_zero(GF3))


@pytest.mark.parametrize(
    "left,right,field",
    [
        (alg62b, alg62b, GF3),  # a binomial relation in the right factor
        (alg62a, alg62b, GF3),
        (alg61b, alg61b, GF3),
        (loop_square_zero, alg61b, GF2),
        (semisimple_two, semisimple_two, GF2),  # nilpotency 2 with no arrows
        (arrow_algebra, point_algebra, GF2),
        (loop_square_zero, alg62b, FieldSpec(5)),
    ],
    ids=["62Bx62B-GF3", "62Ax62B-GF3", "61Bx61B-GF3", "kx2x61B-GF2",
         "semisimple2xsemisimple2-GF2", "A2xpoint-GF2", "kx2x62B-GF5"],
)
def test_tensor_algebra_equals_its_saturation(left, right, field):
    """The table built from the factors is the saturation of the tensor
    presentation: same quiver, basis paths in order, table and flags."""
    t = tensor_algebra(left(field), right(field))
    s = build_algebra(t.quiver, t.relations, t.field, max_len=t.max_len)
    assert t.quiver == s.quiver and t.basis == s.basis
    assert t.structure.dtype == s.structure.dtype and (t.structure == s.structure).all()
    assert (t.loewy_length, t.is_monomial, t.max_len) == (
        s.loewy_length, s.is_monomial, s.max_len)


def test_tensor_algebra_certifies_its_presentation(monkeypatch):
    """A relation list the table does not satisfy raises, also under -O: here
    one commutation square with its sign flipped."""
    build = morita._tensor_presentation

    def flipped(b, op):
        qt, rels = build(b, op)
        (c, p), (_, q) = rels[-1].terms
        return qt, rels[:-1] + [RelationElem(((c, p), (c, q)))]

    monkeypatch.setattr(morita, "_tensor_presentation", flipped)
    with pytest.raises(CertificateError, match="does not vanish"):
        tensor_algebra(arrow_algebra(GF3), arrow_algebra(GF3))


def test_regular_bimodule_components():
    a = loop_square_zero(GF2)
    assert regular_bimodule(a).component_dims() == {("1", "1"): 2}
    b = arrow_algebra()
    comps = regular_bimodule(b).component_dims()
    assert comps == {("1", "1"): 1, ("1", "2"): 0, ("2", "1"): 1, ("2", "2"): 1}


def test_bimodule_requires_tensor_presentation():
    a = loop_square_zero(GF2)
    with pytest.raises(AlgebraMismatch):
        Bimodule(a, a, regular(a))


def test_module_wrap_round_trip():
    a = arrow_algebra()
    x = direct_sum([projective(a, "1"), simple(a, "2")])[0]
    back = module_from_bimodule(bimodule_from_module(x))
    assert back.key() == x.key()


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_kron_matches_numpy_kron(p):
    """`morita._kron` equals np.kron(x, y) % p byte for byte, on seeded
    shapes with zero rows or columns and on identity factors."""
    f = FieldSpec(p)
    rng = np.random.default_rng(p)
    shapes = [(0, 0), (0, 2), (3, 0), (1, 1), (2, 3), (3, 2), (4, 4)]
    factors = [rng.integers(0, p, size=s, dtype=np.int64) for s in shapes]
    factors += [f.eye(n) for n in (0, 1, 3)]
    for x in factors:
        for y in factors:
            got = morita._kron(f, x, y)
            want = np.kron(x, y) % p
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _tensor_digest(a):
    """sha256 over the keys of reg (x) reg, of reg (x) x for every simple and
    projective x, and of both complements check_semt(reg, reg) returns."""
    reg = regular_bimodule(a)
    xs = [simple(a, v) for v in a.quiver.vertices] + [projective(a, v) for v in a.quiver.vertices]
    report = check_semt(reg, reg)
    h = hashlib.sha256()
    for r in [tensor_bimodules(reg, reg).rep, *(tensor(reg, x) for x in xs),
              report.p.rep, report.q.rep]:
        h.update(r.key() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize(
    "build,field,digest",
    [
        (loop_square_zero, GF2, "fb0350236cc9c8fd50bf6f9188a5896d14a43281f52ce21992b6cd38990b2c51"),
        (arrow_algebra, GF3, "3a7188fbf05177026124781255061b5762d951e86c18491f81e30cd3b3eeaec4"),
        (alg61b, GF3, "50a3f908699962dd6b00d708e93a2fb1bfa23afba1aef9b5ed82bd71559629d1"),
    ],
    ids=["kx2-GF2", "A2-GF3", "61B-GF3"],
)
def test_tensor_products_are_pinned_byte_for_byte(build, field, digest):
    """The balanced tensor products and SEMT complements of the regular
    bimodule keep the bytes they had when built with np.kron."""
    assert _tensor_digest(build(field)) == digest


def test_tensor_identity_on_bimodules():
    for a in (loop_square_zero(GF2), arrow_algebra()):
        reg = regular_bimodule(a)
        prod = tensor_bimodules(reg, reg)
        ok, _ = is_isomorphic(prod.rep, reg.rep)
        assert ok


def test_tensor_identity_on_modules():
    for a in (loop_square_zero(GF2), arrow_algebra(), alg61a(GF3)):
        reg = regular_bimodule(a)
        pool = [simple(a, v) for v in a.quiver.vertices]
        pool += [projective(a, v) for v in a.quiver.vertices]
        rng = Random(5)
        for _ in range(6):
            x = direct_sum([pool[rng.randrange(len(pool))] for _ in range(2)])[0]
            tx = tensor(reg, x)
            assert tx.dim_vector == x.dim_vector
            ok, _ = is_isomorphic(tx, x)
            assert ok


def test_tensor_associativity_on_samples():
    a = loop_square_zero(GF2)
    t = tensor_algebra(a, a)
    reg = regular_bimodule(a)
    m = Bimodule(a, a, direct_sum([reg.rep, one_dim_bimodule(a, t).rep])[0])
    mm = tensor_bimodules(m, m)
    left = tensor_bimodules(mm, m)
    right = tensor_bimodules(m, mm)
    ok, _ = is_isomorphic(left.rep, right.rep)
    assert ok
    pool = [simple(a, "1"), projective(a, "1")]
    rng = Random(9)
    for _ in range(4):
        x = direct_sum([pool[rng.randrange(2)] for _ in range(2)])[0]
        ok, _ = is_isomorphic(tensor(mm, x), tensor(m, tensor(m, x)))
        assert ok


def test_tensor_kills_nothing_on_samples():
    for a in (loop_square_zero(GF2), arrow_algebra()):
        reg = regular_bimodule(a)
        pool = [simple(a, v) for v in a.quiver.vertices]
        rng = Random(3)
        for _ in range(6):
            x = direct_sum([pool[rng.randrange(len(pool))] for _ in range(2)])[0]
            assert not x.is_zero
            assert not tensor(reg, x).is_zero


def test_one_dim_square_is_itself():
    a = loop_square_zero(GF2)
    s = one_dim_bimodule(a, tensor_algebra(a, a))
    ss = tensor_bimodules(s, s)
    assert ss.dim == 1
    ok, _ = is_isomorphic(ss.rep, s.rep)
    assert ok


def test_tensor_mismatch_raises():
    a = loop_square_zero(GF2)
    b = arrow_algebra()
    with pytest.raises(AlgebraMismatch):
        tensor(regular_bimodule(a), simple(b, "1"))
    with pytest.raises(AlgebraMismatch):
        tensor_bimodules(regular_bimodule(a), regular_bimodule(b))


def one_sided_bimodule(b):
    """Free as a left module, a sum of non-projective simples on the right."""
    t = tensor_algebra(b, b)
    return Bimodule(b, b, Representation(t, {"1.2": 1, "2.2": 2}, {"a@2": [[0], [1]]}))


def test_left_right_module_views():
    b = arrow_algebra()
    m = one_sided_bimodule(b)
    lm = left_module_of(m)
    rm = right_module_of(m)
    assert lm.dim_vector == (1, 2)
    assert is_projective(lm)
    assert rm.dim_vector == (0, 3)
    assert not is_projective(rm)
    # the two views of the regular bimodule are the two regular modules
    reg = regular_bimodule(b)
    ok, _ = is_isomorphic(left_module_of(reg), regular(b))
    assert ok
    assert right_module_of(reg).total_dim == b.dim


def transpose_cases():
    """(name, bimodule): the regular and doubled regular bimodules of six
    algebras over GF(2), GF(3) and GF(5), the (A, point) bimodule of each of
    their projectives, the one-sided bimodule and its square, and free
    bimodules over kx2 and 61B in both orders."""
    algebras = {"61A": alg61a, "61B": alg61b, "62A": alg62a, "62B": alg62b,
                "kx2": loop_square_zero, "semisimple2": semisimple_two}
    for p in (2, 3, 5):
        for name, make in algebras.items():
            a = make(FieldSpec(p))
            reg = regular_bimodule(a)
            yield f"{name}/GF({p}) regular", reg
            yield f"{name}/GF({p}) doubled", Bimodule(a, a, direct_sum([reg.rep, reg.rep])[0])
            for v in a.quiver.vertices:
                yield f"{name}/GF({p}) P({v}) over point", bimodule_from_module(projective(a, v))
    m = one_sided_bimodule(arrow_algebra())
    yield "one-sided", m
    yield "one-sided squared", tensor_bimodules(m, m)
    for p in (2, 3):
        k, c = loop_square_zero(FieldSpec(p)), alg61b(FieldSpec(p))
        yield f"free kx2-61B/GF({p})", Bimodule(k, c, regular(tensor_algebra(k, c)))
        yield f"free 61B-kx2/GF({p})", Bimodule(c, k, regular(tensor_algebra(c, k)))


def test_transpose_renames_components_and_actions():
    b = arrow_algebra()
    m = one_sided_bimodule(b)
    t = transpose(m)
    assert t.left is opposite(b) and t.right is opposite(b)
    assert t.component_dims() == {(v, u): d for (u, v), d in m.component_dims().items()}
    assert (t.rep.maps["2~a"] == m.rep.maps["a@2"]).all()


def test_right_views_through_the_transpose_match_the_written_out_references():
    """right_dual and right_module_of, each one call through transpose, give
    the bytes and the algebra of their written-out references in builders,
    and transposing twice gives the bimodule back."""
    for name, m in transpose_cases():
        back = transpose(transpose(m))
        assert back.left is m.left and back.right is m.right, name
        assert back.rep.algebra is m.rep.algebra and back.rep.key() == m.rep.key(), name
        got, want = right_dual(m), reference_right_dual(m)
        assert got.rep.algebra is want.rep.algebra, name
        assert got.rep.key() == want.rep.key(), name
        got, want = right_module_of(m), reference_right_module_of(m)
        assert got.algebra is want.algebra and got.key() == want.key(), name


def test_duals_of_regular_are_regular():
    for a in (loop_square_zero(GF2), arrow_algebra()):
        reg = regular_bimodule(a)
        for dual in (left_dual(reg), right_dual(reg)):
            ok, _ = is_isomorphic(dual.rep, reg.rep)
            assert ok


def test_frobenius_regular_and_free_pass():
    a = loop_square_zero(GF2)
    assert check_frobenius_bimodule(regular_bimodule(a)).passed
    assert check_frobenius_bimodule(regular_bimodule(arrow_algebra())).passed
    free = Bimodule(a, a, regular(tensor_algebra(a, a)))
    assert check_frobenius_bimodule(free).passed


def test_frobenius_one_sided_fails():
    rep = check_frobenius_bimodule(one_sided_bimodule(arrow_algebra()))
    assert not rep.passed
    assert rep.left_projective
    assert not rep.right_projective
    assert rep.reason == "not projective as a right module"


def test_frobenius_zero_bimodule_fails():
    a = loop_square_zero(GF2)
    z = Bimodule(a, a, zero_rep(tensor_algebra(a, a)))
    rep = check_frobenius_bimodule(z)
    assert not rep.passed
    assert rep.dimension == 0
    assert rep.reason == "zero bimodule"


def test_frobenius_non_projective_sum_fails():
    a = loop_square_zero(GF2)
    t = tensor_algebra(a, a)
    m = Bimodule(
        a, a, direct_sum([regular_bimodule(a).rep, one_dim_bimodule(a, t).rep])[0]
    )
    rep = check_frobenius_bimodule(m)
    assert not rep.passed
    assert rep.reason == "not projective as a left module"


def test_semt_regular_identity_pairs():
    for a in (arrow_algebra(), loop_square_zero(GF2)):
        reg = regular_bimodule(a)
        rep = check_semt(reg, reg)
        assert rep.passed
        assert rep.p.dim == 0
        assert rep.q.dim == 0
        assert "complements of dimension 0 and 0" in rep.describe()


def test_semt_broken_pair_fails_with_witness():
    a = loop_square_zero(GF2)
    t = tensor_algebra(a, a)
    m = Bimodule(
        a, a, direct_sum([regular_bimodule(a).rep, one_dim_bimodule(a, t).rep])[0]
    )
    rep = check_semt(m, m)
    assert not rep.passed
    assert rep.p is None
    assert "dims (1,)" in rep.reason
    assert "not projective" in rep.reason
    # the product really is the regular bimodule plus three one-dim pieces
    assert rep.product_nm.dim == 5


def test_semt_free_pair_has_no_regular_summand():
    a = loop_square_zero(GF2)
    free = Bimodule(a, a, regular(tensor_algebra(a, a)))
    rep = check_semt(free, free)
    assert not rep.passed
    assert "no regular-bimodule summand" in rep.reason


def test_semt_mismatch_raises():
    with pytest.raises(AlgebraMismatch):
        check_semt(
            regular_bimodule(loop_square_zero(GF2)),
            regular_bimodule(arrow_algebra()),
        )


def test_unit_counit_regular_pairs():
    for a in (arrow_algebra(), loop_square_zero(GF2)):
        reg = regular_bimodule(a)
        samples = [simple(a, v) for v in a.quiver.vertices]
        samples += [projective(a, v) for v in a.quiver.vertices]
        rep = check_unit_counit_pd(reg, reg, samples)
        assert rep.passed
        # identity pair: both sides run per sample and every defect is zero
        assert len(rep.entries) == 2 * len(samples)
        assert all(sum(e["defect_dims"]) == 0 for e in rep.entries)
        assert all(e["defect_projective"] for e in rep.entries)


def test_unit_counit_broken_pair_raises():
    a = loop_square_zero(GF2)
    t = tensor_algebra(a, a)
    m = Bimodule(
        a, a, direct_sum([regular_bimodule(a).rep, one_dim_bimodule(a, t).rep])[0]
    )
    with pytest.raises(ValueError, match="not a stable equivalence"):
        check_unit_counit_pd(m, m, [simple(a, "1")])


def test_unit_counit_foreign_sample_raises():
    a = loop_square_zero(GF2)
    reg = regular_bimodule(a)
    with pytest.raises(AlgebraMismatch):
        check_unit_counit_pd(reg, reg, [simple(arrow_algebra(), "1")])


def test_adjunction_data_defects_vanish_for_identity():
    a = arrow_algebra()
    reg = regular_bimodule(a)
    data = adjunction_data(reg, reg)
    assert data.unit_defect(simple(a, "1")).is_zero
    assert data.counit_defect(projective(a, "2")).is_zero


def test_compare_invariants_self_inj_pair():
    cmp = compare_invariants(alg61a(GF3), alg61b(GF3))
    assert cmp.k0[0].invariant_factors == (2,)
    assert cmp.k0[1].invariant_factors == (2,)
    assert cmp.k1[0].group.invariant_factors == (2,)
    assert cmp.cm == ("CMFinite", "CMFinite")
    assert cmp.gorenstein == (("yes", 2), ("yes", 2))
    assert cmp.k0_equal and cmp.k1_equal and cmp.cm_equal
    assert cmp.gorenstein_equal
    assert cmp.all_predicted_equal
    assert "K0 (stable)" in cmp.describe()


def test_compare_invariants_finite_gldim_pair():
    cmp = compare_invariants(alg62a(GF3), alg62b(GF3))
    assert cmp.k0[0].is_trivial and cmp.k0[1].is_trivial
    assert cmp.k1[0].group.is_trivial and cmp.k1[1].group.is_trivial
    assert cmp.cm == ("CMFree", "CMFree")
    assert cmp.gorenstein == (("yes", 4), ("yes", 4))
    assert cmp.all_predicted_equal


def test_compare_invariants_self_is_equal():
    cmp = compare_invariants(alg61a(GF3), alg61a(GF3))
    assert cmp.all_predicted_equal


def test_compare_invariants_propagates_unsettled():
    cmp = compare_invariants(alg61a(GF3), alg61b(GF3), dim_cap=1)
    assert cmp.cm == ("Unknown", "Unknown")
    assert cmp.k0 == (None, None)
    assert cmp.k0_equal is None
    assert cmp.cm_equal is None
    assert not cmp.all_predicted_equal
    assert any("unsettled" in n for n in cmp.notes)
    assert "unsettled" in cmp.describe()
