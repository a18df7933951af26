"""Waldhausen-style brute-force K0 oracle: object/cofibration enumeration,
agreement with the catalog's relation rows, gluing, and face identities."""

from dataclasses import replace
from random import Random

import numpy as np
import pytest

from builders import (
    GF2,
    alg61a,
    alg61b,
    alg62a,
    alg62b,
    all_coeff_vectors,
    cached_wdata,
    loop_square_zero,
    random_matrix,
    reference_find_isomorphism,
    reference_is_stable_iso,
    semisimple_two,
)
from gpktheory import exactla, stable, waldhausen
from gpktheory.exactla import CertificateError, FieldSpec
from gpktheory.gorenstein import gp_catalog
from gpktheory.ktheory import CatalogUnknown, k0_gorenstein
from gpktheory.rep import (
    Morphism,
    Representation,
    cokernel,
    direct_sum,
    hom_basis,
    identity_morphism,
    is_isomorphic,
    pushout,
    regular,
    zero_morphism,
)
from gpktheory.waldhausen import (
    build_wdata,
    gluing_check,
    k0_oracle,
    s3_face_identities,
    sample_s3_flags,
)


def test_kx2_objects_and_classes():
    data = cached_wdata("kx2_gf2")
    # item multiplicity <= 4 and regular-module multiplicity <= 2: 15 objects
    assert len(data.objects) == 15
    mult_pairs = {(o.item_mults, o.proj_mults) for o in data.objects}
    assert ((0,), (0,)) in mult_pairs  # zero object
    assert ((1,), (0,)) in mult_pairs  # k
    assert ((2,), (0,)) in mult_pairs  # k + k
    assert ((0,), (1,)) in mult_pairs  # regular
    assert ((1,), (1,)) in mult_pairs  # k + regular
    # object-level weak classes are exactly the k-multiplicities 0..4
    obj_classes = {data.classes[o.weak_class] for o in data.objects}
    assert obj_classes == {(m,) for m in range(5)}
    assert data.objects[data.zero_index].rep.is_zero


def test_kx2_oracle_is_z2_and_agrees():
    data = cached_wdata("kx2_gf2")
    group = k0_oracle(data)
    assert group.free_rank == 0
    assert group.invariant_factors == (2,)
    a = data.algebra
    other = k0_gorenstein(a, data.catalog)
    assert group.same_group(other)


def test_semisimple_all_objects_weakly_zero():
    data = cached_wdata("semisimple2_gf2")
    assert len(data.classes) == 1
    assert all(o.weak_class == 0 for o in data.objects)
    group = k0_oracle(data)
    assert group.is_trivial
    assert group.same_group(k0_gorenstein(data.algebra, data.catalog))


def test_61a_weak_classes_and_oracle_agreement():
    data = cached_wdata("61a_gf5")
    # object classes are the multiplicities 0..4 of the single catalog item
    obj_classes = {data.classes[o.weak_class] for o in data.objects}
    assert obj_classes == {(m,) for m in range(5)}
    group = k0_oracle(data)
    other = k0_gorenstein(data.algebra, data.catalog)
    assert group.same_group(other)
    # both routes collapse 2[G] = 0 via the non-split G >-> P(1) ->> G
    assert group.free_rank == 0
    assert group.invariant_factors == (2,)


def test_61b_oracle_agreement():
    data = cached_wdata("61b_gf3_d1")
    group = k0_oracle(data)
    assert group.same_group(k0_gorenstein(data.algebra, data.catalog))


def test_62a_cmfree_oracle_trivial():
    data = cached_wdata("62a_gf3")
    assert len(data.classes) == 1  # everything is weakly zero
    group = k0_oracle(data)
    assert group.is_trivial
    assert group.same_group(k0_gorenstein(data.algebra, data.catalog))


def test_s2_faces_are_exact_triples():
    data = cached_wdata("kx2_gf2")
    triples = [
        (data.objects[c.src].rep, data.objects[c.dst].rep, c.coker)
        for c in data.cofibrations
    ]
    assert len(triples) == len(data.cofibrations)
    for x, y, z in triples:
        assert x.total_dim + z.total_dim == y.total_dim
    # zero-source simplices give (0, Y, Y)
    zero_triples = [t for t in triples if t[0].is_zero]
    assert zero_triples
    for _, y, z in zero_triples:
        assert y.dim_vector == z.dim_vector


def test_split_cofibrations_present():
    data = cached_wdata("kx2_gf2")
    # every X summand-dominated by Y contributes at least one split mono
    splits = [c for c in data.cofibrations if c.split]
    assert splits
    # and the non-split socle embedding k >-> regular is found too
    nonsplit = [
        c
        for c in data.cofibrations
        if data.objects[c.src].item_mults == (1,)
        and data.objects[c.src].proj_mults == (0,)
        and data.objects[c.dst].item_mults == (0,)
        and data.objects[c.dst].proj_mults == (1,)
    ]
    assert nonsplit
    for c in nonsplit:
        assert not c.split
        assert data.classes[c.coker_class] == (1,)


def test_cokernel_choice_is_irrelevant():
    data = cached_wdata("kx2_gf2")
    a = data.algebra
    f = a.field
    rng = Random(7)
    checked = 0
    for c in data.cofibrations:
        if c.coker.is_zero:
            continue
        # a different concrete choice of subquotient: transport the cokernel
        # structure along random invertible change-of-basis maps per vertex
        basis = {}
        for v in a.quiver.vertices:
            d = c.coker.dims[v]
            while True:
                t = random_matrix(f, rng, (d, d))
                if exactla.invert(f, t) is not None:
                    basis[v] = t
                    break
        maps = {}
        for arw in a.quiver.arrows:
            inv = exactla.invert(f, basis[arw.source])
            maps[arw.label] = f.matmul(
                basis[arw.target], f.matmul(c.coker.maps[arw.label], inv)
            )
        twisted = Representation(a, dict(c.coker.dims), maps)
        assert waldhausen._weak_class(data, twisted) == c.coker_class
        checked += 1
        if checked == 10:
            break
    assert checked == 10


def test_pushout_along_isomorphism():
    data = cached_wdata("kx2_gf2")
    a = data.algebra
    soc = [
        c
        for c in data.cofibrations
        if not c.split
        and data.objects[c.src].item_mults == (1,)
        and data.objects[c.src].proj_mults == (0,)
        and data.objects[c.dst].item_mults == (0,)
        and data.objects[c.dst].proj_mults == (1,)
    ][0]
    x = data.objects[soc.src].rep
    q = pushout(soc.mono, identity_morphism(x))
    p, y = q.codomain, soc.mono.codomain
    from_y = Morphism(y, p, {v: b[:, : y.dims[v]] for v, b in q.blocks.items()})
    assert p.dim_vector == regular(a).dim_vector
    assert from_y.is_iso()
    ok, _ = is_isomorphic(p, regular(a))
    assert ok


def test_gluing_check_small_run():
    data = cached_wdata("kx2_gf2")
    report = gluing_check(data, trials=30, seed=11)
    assert report.trials == 30
    assert report.ok
    assert report.counterexamples == []


def test_gluing_check_counts_only_non_gp_pushouts(monkeypatch):
    # a pushout with a non-GP summand is a counterexample; a failed
    # certificate inside the classification raises instead
    data = cached_wdata("kx2_gf2")
    with monkeypatch.context() as m:
        m.setattr(waldhausen, "_weak_class", lambda data, rep: None)
        report = gluing_check(data, trials=3, seed=11)
    assert not report.ok
    assert [c["reason"] for c in report.counterexamples] == [
        "pushout left the closure: non-GP summand"
    ] * 3

    def broken(data, rep):
        raise CertificateError("GP summand missing from the catalog; closure violated")

    with monkeypatch.context() as m:
        m.setattr(waldhausen, "_weak_class", broken)
        with pytest.raises(CertificateError, match="missing from the catalog"):
            gluing_check(data, trials=3, seed=11)


@pytest.mark.parametrize("name", ["kx2_gf2_d1", "61b_gf3_d1"])
def test_gluing_ladders_are_certified_without_a_solve(monkeypatch, name):
    """Every ladder's induced map is a mono with a projective cokernel, so
    `stable.is_stable_iso` never falls back to its linear solve, and the
    reports equal those of the solve-only decision."""
    data = cached_wdata(name)
    solves = []
    solve = stable._solve_stable_inverse
    with monkeypatch.context() as m:
        m.setattr(stable, "_solve_stable_inverse", lambda *args: solves.append(args) or solve(*args))
        got = [gluing_check(data, trials=12, seed=s) for s in (3, 4)]
    assert solves == []
    with monkeypatch.context() as m:
        m.setattr(waldhausen, "is_stable_iso", reference_is_stable_iso)
        want = [gluing_check(data, trials=12, seed=s) for s in (3, 4)]
    assert [(r.trials, r.counterexamples, r.notes) for r in got] == [
        (r.trials, r.counterexamples, r.notes) for r in want
    ]
    assert all(r.ok for r in got)


def test_s3_face_identities_hold():
    for name in ("kx2_gf2", "61a_gf5"):
        data = cached_wdata(name)
        flags = sample_s3_flags(data, count=16, seed=3)
        assert flags
        for flag in flags:
            assert s3_face_identities(flag) == []


def test_unknown_catalog_rejected():
    a = alg61a(FieldSpec(5))
    stunted = gp_catalog(a, dim_cap=1)
    assert stunted.verdict == "Unknown"
    try:
        build_wdata(stunted, depth=1)
    except CatalogUnknown:
        pass
    else:
        raise AssertionError("Unknown catalog must be rejected")


@pytest.mark.parametrize("depth", [0, -1])
def test_depth_below_one_raises(depth):
    """At depth 0 the universe holds no projective, and the oracle K0 of
    k[x]/(x^2) came out Z against the catalog's Z/2: bad input, not a
    verdict."""
    with pytest.raises(ValueError, match="depth must be at least 1"):
        build_wdata(gp_catalog(loop_square_zero()), depth=depth)


def test_summand_missing_from_the_catalog_is_a_certificate_error():
    # a GP summand outside the catalog means the catalog is not closed
    a = loop_square_zero(GF2)
    cat = gp_catalog(a)
    data = build_wdata(replace(cat, items=[], certificates=[], relations=[]), depth=1)
    with pytest.raises(CertificateError, match="missing from the catalog"):
        waldhausen._weak_class(data, cat.items[0])


def test_notes_report_bounds():
    data = cached_wdata("61a_gf5")
    assert any("item multiplicity <= 4" in n for n in data.notes)
    assert any("exhaustive mono bound" in n for n in data.notes)


def _reference_cofibrations(data, x, y, h):
    """The per-candidate mono search: every coefficient vector in base-p
    order, one rank test and one row-space key per vertex and candidate."""
    f = data.algebra.field
    verts = data.algebra.quiver.vertices
    hs = hom_basis(x.rep, y.rep)
    seen = set()
    for coeffs in all_coeff_vectors(f.char, h):
        cand = hs.element(coeffs) if h else zero_morphism(x.rep, y.rep)
        if any(exactla.rank_of(f, cand.blocks[v]) != x.rep.dims[v] for v in verts):
            continue
        key = []
        for v in verts:
            red, pivots = exactla.rref(f, cand.blocks[v].T)
            key.append(red.tobytes() + bytes(str(pivots), "ascii"))
        key = tuple(key)
        if key in seen:
            continue
        seen.add(key)
        coker, q = cokernel(cand)
        cls = waldhausen._weak_class(data, coker)
        if cls is None:
            continue
        data.cofibrations.append(
            waldhausen.Cofibration(
                x.index, y.index, cand, coker, q, cls,
                split=waldhausen._is_split(data, x, y, cls),
            )
        )


def _cofibration_rows(data):
    verts = data.algebra.quiver.vertices
    return [
        (
            c.src,
            c.dst,
            tuple(c.mono.blocks[v].tobytes() for v in verts),
            tuple(c.quotient.blocks[v].tobytes() for v in verts),
            c.coker.key(),
            data.classes[c.coker_class],
            c.split,
        )
        for c in data.cofibrations
    ]


def _reference_split_inclusion(data, x, y):
    """The split inclusion composed from the abstract sums' structure maps:
    the k-th copy of each part in x goes to the k-th copy in y."""
    x_parts = [p for m, p in zip(x.all_mults, data.parts_pool) for _ in range(m)]
    y_parts = [p for m, p in zip(y.all_mults, data.parts_pool) for _ in range(m)]
    if not x_parts:
        return zero_morphism(x.rep, y.rep)
    xsum, _, xprj = direct_sum(x_parts)
    ysum, yinj, _ = direct_sum(y_parts)
    assert (xsum.key(), ysum.key()) == (x.rep.key(), y.rep.key())
    ystart = np.cumsum((0,) + y.all_mults)
    legs = [
        yinj[ystart[kind] + k]
        for kind, m in enumerate(x.all_mults)
        for k in range(m)
    ]
    mono = legs[0].compose(xprj[0])
    for leg, prj in zip(legs[1:], xprj[1:]):
        mono = mono.add(leg.compose(prj))
    return mono


@pytest.mark.parametrize("name", ["kx2_gf2", "61b_gf3_d1"])
def test_split_inclusion_matches_the_composed_structure_maps(name):
    data = cached_wdata(name)
    verts = data.algebra.quiver.vertices
    pairs = 0
    for x in data.objects:
        for y in data.objects:
            got = waldhausen._split_inclusion(data, x, y)
            if got is None:
                assert any(xm > ym for xm, ym in zip(x.all_mults, y.all_mults))
                continue
            want = _reference_split_inclusion(data, x, y)
            assert got.domain is x.rep and got.codomain is y.rep
            for v in verts:
                assert got.blocks[v].dtype == want.blocks[v].dtype
                assert np.array_equal(got.blocks[v], want.blocks[v])
            pairs += 1
    assert pairs > len(data.objects)


def test_line_search_matches_full_enumeration(monkeypatch):
    cases = [
        (loop_square_zero, 2), (loop_square_zero, 3), (loop_square_zero, 5),
        (alg62b, 3), (semisimple_two, 2), (alg62a, 3),
    ]
    for make, p in cases:
        catalog = gp_catalog(make(FieldSpec(p)))
        fast = build_wdata(catalog, depth=1)
        with monkeypatch.context() as m:
            m.setattr(waldhausen, "_exhaustive_cofibrations", _reference_cofibrations)
            ref = build_wdata(catalog, depth=1)
        assert _cofibration_rows(fast) == _cofibration_rows(ref)
        assert fast.notes == ref.notes


def test_batched_isomorphism_search_keeps_the_cofibrations(monkeypatch):
    """The oracle on 62A over GF(3) at depth 1 lists the same cofibrations,
    classes and notes with the per-candidate isomorphism search in place of
    the batched one; fresh algebras keep the memos apart."""
    fast = build_wdata(gp_catalog(alg62a(FieldSpec(3))), depth=1)
    monkeypatch.setattr(
        waldhausen, "_find_isomorphism", lambda m, n: reference_find_isomorphism(m, n)[1]
    )
    ref = build_wdata(gp_catalog(alg62a(FieldSpec(3))), depth=1)
    assert _cofibration_rows(fast) == _cofibration_rows(ref)
    assert fast.classes == ref.classes and fast.notes == ref.notes


def test_verify_exact_rejects_non_exact_pairs():
    data = cached_wdata("kx2_gf2")
    c = next(c for c in data.cofibrations if not data.objects[c.src].is_zero and not c.coker.is_zero)
    x, y = c.mono.domain, c.mono.codomain
    waldhausen._verify_exact(c.mono, c.quotient)
    with pytest.raises(CertificateError, match="not a monomorphism"):
        waldhausen._verify_exact(zero_morphism(x, y), c.quotient)
    with pytest.raises(CertificateError, match="not an epimorphism"):
        waldhausen._verify_exact(c.mono, zero_morphism(y, c.coker))
    with pytest.raises(CertificateError, match="does not vanish"):
        waldhausen._verify_exact(c.mono, identity_morphism(y))


def test_stacked_exactness_certificate_rejects_broken_members():
    # one object pair's cofibrations stacked: the certificate passes them
    # all, and names the fault when one member is broken
    data = cached_wdata("kx2_gf2")
    groups = {}
    for c in data.cofibrations:
        if not data.objects[c.src].is_zero and not c.coker.is_zero:
            groups.setdefault((c.src, c.dst), []).append(c)
    cofs = max(groups.values(), key=len)
    assert len(cofs) >= 3
    f = data.algebra.field
    verts = data.algebra.quiver.vertices

    def stacks():
        return ({v: np.stack([c.mono.blocks[v] for c in cofs]) for v in verts},
                {v: np.stack([c.quotient.blocks[v] for c in cofs]) for v in verts})

    waldhausen._verify_exact_stack(f, *stacks())
    v = verts[0]
    monos, quots = stacks()
    monos[v][1] = 0
    with pytest.raises(CertificateError, match="not a monomorphism"):
        waldhausen._verify_exact_stack(f, monos, quots)
    monos, quots = stacks()
    quots[v][1] = 0
    with pytest.raises(CertificateError, match="not an epimorphism"):
        waldhausen._verify_exact_stack(f, monos, quots)
    # q = id needs a stack of one (test_verify_exact_rejects_non_exact_pairs);
    # in a stack, an epi that keeps another image: member 1's q is member 2's
    monos, quots = stacks()
    quots[v][1] = quots[v][2]
    with pytest.raises(CertificateError, match="does not vanish"):
        waldhausen._verify_exact_stack(f, monos, quots)
    # every q one row short: still onto and vanishing, but Z is too small
    monos, quots = stacks()
    quots[v] = quots[v][:, 1:]
    with pytest.raises(CertificateError, match="do not add up"):
        waldhausen._verify_exact_stack(f, monos, quots)
