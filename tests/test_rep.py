"""Representations: homs, covers, syzygies, ext, duality, decomposition."""

from random import Random

import numpy as np
import pytest

from gpktheory import exactla, rep, waldhausen
from gpktheory.exactla import CertificateError, FieldSpec, is_exhaustive
from gpktheory.gorenstein import gp_catalog
from gpktheory.morita import tensor_algebra
from gpktheory.presentation import Quiver, build_algebra, opposite, path_from_written, trivial_path
from gpktheory.rep import (
    HomSpace,
    cyclic_module,
    Morphism,
    decompose,
    descend,
    direct_sum,
    dual_rep,
    ext,
    ext1_class_reps,
    hom_basis,
    hom_dim,
    identity_morphism,
    is_isomorphic,
    is_projective,
    middle_term,
    projective,
    projective_cover,
    projective_dimension,
    pushout,
    quotient_by_rows,
    quotient_stack,
    regular,
    simple,
    star,
    syzygy,
    zero_rep,
    Representation,
)
from gpktheory.stable import StableHomSpace

from builders import (
    alg61a,
    alg61b,
    alg62a,
    every_coeff_vector,
    loop_square_zero,
    reference_direct_sum_blocks,
    reference_find_isomorphism,
    reference_hom_element,
    reference_induced_pushout_map,
    reference_middle_term,
    reference_quotient_by_rows,
    semisimple_two,
    twisted,
)

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def test_projective_dim_vectors():
    a = alg61a()
    p1 = projective(a, "1")
    p2 = projective(a, "2")
    assert p1.dim_vector == (2, 2)
    assert p2.dim_vector == (2, 3)
    b = alg61b()
    assert projective(b, "1").dim_vector == (1, 1)
    assert projective(b, "2").dim_vector == (1, 3)
    c = alg62a()
    assert [projective(c, v).total_dim for v in "123"] == [3, 4, 4]


def test_yoneda_hom_dims():
    a = alg61a(GF3)
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    mods = [g, projective(a, "1"), projective(a, "2"), simple(a, "1")]
    for m in mods:
        for v in a.quiver.vertices:
            assert hom_dim(projective(a, v), m) == m.dims[v]


def test_hom_between_projectives_counts_paths():
    a = alg61a()
    p1 = projective(a, "1")
    p2 = projective(a, "2")
    # maps P(v) -> P(w) correspond to paths from w to v
    assert hom_dim(p1, p2) == 2  # b and b*a*b
    assert hom_dim(p2, p1) == 2  # a and a*b*a
    assert hom_dim(p1, p1) == 2  # e_1 and b*a
    assert hom_dim(p2, p2) == 3  # e_2, a*b, a*b*a*b


def test_cyclic_module_golden():
    a = alg61a()
    g, incl = cyclic_module(a, a.element_from_str("b*a"))
    assert g.dim_vector == (1, 1)
    assert list(g.maps["a"].reshape(-1)) == [1]
    assert list(g.maps["b"].reshape(-1)) == [0]
    assert incl.is_mono()


def test_projective_cover_and_syzygies():
    a = alg61a()
    s1 = simple(a, "1")
    s2 = simple(a, "2")
    p, epi = projective_cover(s1)
    assert p.dim_vector == (2, 2)
    assert epi.is_epi()
    # rad P(1) has dims (1, 2)
    assert syzygy(s1).dim_vector == (1, 2)
    # rad P(2) is projective, so S2 has projective dimension 1
    assert is_projective(syzygy(s2))
    assert projective_dimension(s2, 8) == 1
    assert projective_dimension(s1, 8) is None  # infinite
    # second syzygy of S1 is the periodic module G
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    ok, _ = is_isomorphic(syzygy(s1, 2), g)
    assert ok
    ok, wit = is_isomorphic(syzygy(g), g)
    assert ok and wit.is_iso()


def test_loop_algebra_syzygy_periodic():
    b = alg61b()
    s2 = simple(b, "2")
    w = syzygy(s2)
    assert w.dim_vector == (1, 2)
    ok, _ = is_isomorphic(syzygy(w), w)
    assert ok
    assert hom_dim(w, w) == 2


def test_square_zero_loop_self_syzygy():
    a = loop_square_zero()
    k = simple(a, "1")
    ok, _ = is_isomorphic(syzygy(k), k)
    assert ok
    r = ext(k, k, 1)
    assert r.dimension == 1
    # the nonsplit middle is the free module of rank one
    mid = r.representatives[0]
    ok, _ = is_isomorphic(mid, regular(a))
    assert ok
    assert is_projective(mid)


def test_ext_golden_periodic_module():
    for field in (GF2, GF3):
        a = alg61a(field)
        g = cyclic_module(a, a.element_from_str("b*a"))[0]
        r = ext(g, g, 1)
        assert r.dimension == 1
        mid = r.representatives[0]
        ok, _ = is_isomorphic(mid, projective(a, "1"))
        assert ok
        # no extensions against projective targets in any degree tested
        assert ext(g, projective(a, "1"), 1).dimension == 0
        assert ext(g, projective(a, "2"), 1).dimension == 0
        # degree-2 self extensions persist with period one
        assert ext(g, g, 2).dimension == 1


def test_ext_vanishes_on_projective_source():
    a = alg61a()
    p = projective(a, "2")
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    for d in (1, 2, 3):
        assert ext(p, g, d).dimension == 0


def test_star_duality():
    a = alg61a()
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    sg = star(g)
    assert sg.algebra is opposite(a)
    assert sg.dim_vector == (1, 1)
    # star of a projective is the corresponding opposite projective
    sp = star(projective(a, "1"))
    ok, _ = is_isomorphic(sp, projective(opposite(a), "1"))
    assert ok
    # star twice brings the periodic module back
    ssg = star(sg)
    ok, _ = is_isomorphic(ssg, g)
    assert ok


def test_dual_rep_transposes():
    a = alg61b(GF3)
    p = projective(a, "2")
    d = dual_rep(p)
    assert d.algebra is opposite(a)
    assert d.dim_vector == p.dim_vector
    dd = dual_rep(d)
    assert dd.algebra is a
    assert dd.key() == p.key()


def test_decompose_sums():
    a = alg61a()
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    p1 = projective(a, "1")
    total = direct_sum([g, p1, g])[0]
    parts = decompose(total)
    assert [(r.dim_vector, mult) for r, mult in parts] == [((1, 1), 2), ((2, 2), 1)]
    ok, _ = is_isomorphic(parts[0][0], g)
    assert ok
    reg = regular(a)
    parts = decompose(reg)
    assert [(r.total_dim, mult) for r, mult in parts] == [(4, 1), (5, 1)]


def test_decompose_twisted_sum():
    # glue two copies of G by an invertible change of basis; still splits
    a = alg61a(GF3)
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    m = Representation(
        a,
        {"1": 2, "2": 2},
        {"a": [[2, 1], [0, 2]], "b": [[0, 0], [0, 0]]},
    )
    parts = decompose(m)
    assert sum(mult for _, mult in parts) == 2
    for r, _ in parts:
        ok, _ = is_isomorphic(r, g)
        assert ok


def test_is_isomorphic_twisted():
    a = alg61a(GF3)
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    twisted = Representation(a, {"1": 1, "2": 1}, {"a": [[2]], "b": [[0]]})
    ok, wit = is_isomorphic(g, twisted)
    assert ok
    assert wit.verify().is_iso()
    not_g = Representation(a, {"1": 1, "2": 1}, {"a": [[0]], "b": [[0]]})
    ok, _ = is_isomorphic(g, not_g)
    assert not ok


def test_is_isomorphic_line_search_matches_full_enumeration(monkeypatch):
    rng = Random(5)
    pairs = []
    for p in (3, 5):
        a = alg61a(FieldSpec(p))
        g = cyclic_module(a, a.element_from_str("b*a"))[0]
        p1 = projective(a, "1")
        split = Representation(a, {"1": 1, "2": 1}, {"a": [[0]], "b": [[0]]})
        pairs += [(g, twisted(g, rng)), (p1, twisted(p1, rng)), (g, split)]
    a = alg61a(GF3)
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    gp = direct_sum([g, projective(a, "1")])[0]
    pairs += [(gp, twisted(gp, rng)), (gp, direct_sum([projective(a, "1"), g])[0])]
    for m, n in pairs:
        assert m.field.char ** hom_dim(m, n) <= 4096  # the exhaustive branch
        ok, wit = is_isomorphic(m, n)
        with monkeypatch.context() as mp:
            mp.setattr(rep, "coeff_vectors", every_coeff_vector)
            # the search over every nonzero map m -> n
            ref = rep._find_isomorphism(m, n)
        assert ok == (ref is not None)
        if ok:
            assert wit.verify().is_iso() and ref.verify().is_iso()
        else:
            assert wit is None
    assert sum(is_isomorphic(m, n)[0] for m, n in pairs) == len(pairs) - 2


def _old_sampled_iso_search(m, n, seed, tries):
    """The sampled isomorphism search as written before the shared helper:
    the hom basis, then `tries` seeded draws, zero draws included."""
    hs = hom_basis(m, n)
    for cand in hs.basis:
        if cand.is_iso():
            return True, cand
    rng = Random(seed)
    for _ in range(tries):
        cand = hs.element([m.field.random_scalar(rng) for _ in range(hs.dim)])
        if cand.is_iso():
            return True, cand
    return False, None


@pytest.mark.parametrize("p", [5, 7])
def test_sampled_isomorphism_search_matches_the_old_loop(p):
    rng = Random(p)
    a = alg61a(FieldSpec(p))
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    split = Representation(a, {"1": 1, "2": 1}, {"a": [[0]], "b": [[0]]})
    p1, p2 = projective(a, "1"), projective(a, "2")
    m = direct_sum([p1, p2, g])[0]
    pairs = [(m, twisted(m, rng)), (m, direct_sum([p1, p2, split])[0])]
    answers = []
    for x, y in pairs:
        assert p ** hom_dim(x, y) > 4096  # the sampled branch
        wit = rep._find_isomorphism(x, y)
        ref_ok, _ = _old_sampled_iso_search(x, y, 0, 128)
        assert (wit is not None) == ref_ok
        if ref_ok:
            assert wit.verify().is_iso()
        answers.append(ref_ok)
        assert is_isomorphic(x, y)[0] == ref_ok
    assert answers == [True, False]


def _iso_pairs(p):
    """Indecomposables and sums of 61A and 61B over GF(p), each against a
    twisted copy and against a module of its dimension vector that is not
    isomorphic to it."""
    rng = Random(f"iso/{p}")
    a, b = alg61a(FieldSpec(p)), alg61b(FieldSpec(p))
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    split = Representation(a, {"1": 1, "2": 1}, {"a": [[0]], "b": [[0]]})
    p1 = projective(a, "1")
    gb = Representation(b, {"1": 1, "2": 2}, {"x": [[0], [1]], "z": [[0, 0], [1, 0]]})
    pairs = []
    for m, other in [
        (g, split),
        (p1, direct_sum([g, g])[0]),
        (gb, Representation(b, {"1": 1, "2": 2}, {"x": [[0], [1]]})),
        (direct_sum([p1, g])[0], direct_sum([p1, split])[0]),
        (direct_sum([g, g, split])[0], direct_sum([g, split, split])[0]),
    ]:
        pairs += [(m, twisted(m, rng)), (m, other), (other, m)]
    return pairs


def _kronecker_pair(f):
    """Two regular modules k => k of the Kronecker quiver, a = 1 and b = 1
    or 2: equal dimension vectors, Hom = 0 between them."""
    a = build_algebra(Quiver.make(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), [], f)
    dims = {"1": 1, "2": 1}
    return [Representation(a, dims, {"a": [[1]], "b": [[lam]]}) for lam in (1, 2)]


def _same_search(m, n):
    """`_find_isomorphism` against the per-candidate loop: equal witness
    blocks, or both None.  Returns the loop's hit index."""
    got = rep._find_isomorphism(m, n)
    at, want = reference_find_isomorphism(m, n)
    assert (got is None) == (want is None)
    if want is not None:
        _same_blocks(got, want)
    return at


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_batched_isomorphism_search_finds_the_first_hit(p):
    """The batched search gives the per-candidate loop's first hit, or
    None with it: on the exhaustive and the sampled branch, on hits and
    misses, for Hom = 0 and for different dimension vectors."""
    f = FieldSpec(p)
    pairs = _iso_pairs(p)
    x, y = _kronecker_pair(f)
    a = alg61a(f)
    pairs += [(x, y), (projective(a, "1"), simple(a, "2")), (simple(a, "1"), simple(a, "2"))]
    assert hom_dim(x, y) == 0
    kinds = set()
    for m, n in pairs:
        at = _same_search(m, n)
        kinds.add((is_exhaustive(f, hom_dim(m, n)), at is not None))
    assert {(True, True), (True, False)} <= kinds
    if p >= 5:
        assert (False, True) in kinds and (False, False) in kinds


def test_batched_isomorphism_search_hits_past_the_first_batch(monkeypatch):
    """Every search of the oracle on 62A over GF(3) at depth 1 gives the
    per-candidate loop's hit.  The 3-summand cokernel of dimension
    (2, 3, 3), with a 7-dimensional Hom, hits at candidate 617, in the
    fourth batch."""
    seen = []

    def record(m, n):
        seen.append((m, n))
        return rep._find_isomorphism(m, n)

    monkeypatch.setattr(waldhausen, "_find_isomorphism", record)
    waldhausen.build_wdata(gp_catalog(alg62a(GF3)), depth=1)
    hits = [(_same_search(m, n), m.dim_vector, hom_dim(m, n)) for m, n in seen]
    assert len(hits) > 1 and all(at is not None for at, _, _ in hits)
    last = max(hits)
    assert last == (616, (2, 3, 3), 7)
    assert sum(16 * 4**k for k in range(3)) <= last[0]


def test_batched_isomorphism_search_certifies_its_hit(monkeypatch):
    """A stacked rank test that reports full rank passes the first
    candidate; `is_iso` rejects it and the search raises."""
    a = alg61a(GF3)
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    split = Representation(a, {"1": 1, "2": 1}, {"a": [[0]], "b": [[0]]})
    assert hom_dim(g, split) > 0 and not is_isomorphic(g, split)[0]
    monkeypatch.setattr(exactla, "rank_stack", lambda f, s: np.full(len(s), s.shape[1]))
    with pytest.raises(CertificateError, match="not invertible"):
        rep._find_isomorphism(g, split)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_isomorphic_answers_do_not_depend_on_the_exhaustive_cap(monkeypatch, p):
    """With EXHAUSTIVE_CAP = 1 every search is sampled; a negative comes from
    the hom basis or from Krull-Schmidt, never from a search miss, so the
    answers are those at the normal cap.  Fresh algebras keep the memos apart."""
    want = [is_isomorphic(m, n)[0] for m, n in _iso_pairs(p)]
    assert want == [True, False, False] * 5
    monkeypatch.setattr(exactla, "EXHAUSTIVE_CAP", 1)
    got = []
    for m, n in _iso_pairs(p):
        ok, wit = is_isomorphic(m, n)
        assert not ok or wit.verify().is_iso()
        got.append(ok)
    assert got == want


def test_matched_summands_are_witnessed_without_a_search(monkeypatch):
    """With the sampled search stubbed to miss, a decomposable pair whose
    summands match and no hom basis map is invertible answers yes, with the
    witness assembled from the summands' split maps; indecomposables keep
    their answers."""
    monkeypatch.setattr(rep, "_find_isomorphism", lambda m, n: None)
    a = alg61a(GF3)
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    p1 = projective(a, "1")
    split = Representation(a, {"1": 1, "2": 1}, {"a": [[0]], "b": [[0]]})
    m = direct_sum([p1, g])[0]
    for n in (twisted(m, Random(1)), direct_sum([g, p1])[0]):
        assert not any(b.is_iso() for b in hom_basis(m, n).basis)
        ok, wit = is_isomorphic(m, n)
        assert ok and wit.domain is m and wit.codomain is n
        assert wit.verify().is_iso()
    assert not is_isomorphic(m, direct_sum([p1, split])[0])[0]  # summands differ
    rng = Random(2)
    pairs = [(g, twisted(g, rng)), (p1, twisted(p1, rng)), (g, split), (p1, direct_sum([g, g])[0])]
    assert [is_isomorphic(x, y)[0] for x, y in pairs] == [True, True, False, False]


@pytest.mark.parametrize("k", [4, 5, 6])
def test_squared_simples_of_an_arrowless_algebra_are_isomorphic(k):
    """S_1^2 + ... + S_k^2 over the arrowless algebra on k vertices over
    GF(2): End is M_2(GF(2))^k, of dimension 4k, whose invertible share
    (6/16)^k is what 128 sampled draws had to hit (they missed at k = 5).
    The witness assembled from the summands is an isomorphism."""
    vertices = [str(i) for i in range(1, k + 1)]
    a = build_algebra(Quiver.make(vertices, []), [], GF2)
    m = direct_sum([simple(a, v) for v in vertices for _ in range(2)])[0]
    assert hom_dim(m, m) == 4 * k
    for n in (m, twisted(m, Random(k))):
        ok, wit = is_isomorphic(m, n)
        assert ok and wit.verify().is_iso()


def test_summands_split_the_module_or_raise(monkeypatch):
    """The projections of `summands` invert the inclusions: proj_i incl_j is
    the identity for i = j and 0 otherwise, and the incl_i proj_i add up to
    the identity.  An inclusion set that leaves out a piece, or takes one
    twice, does not split m and raises."""
    a = alg61a(GF3)
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    m = twisted(direct_sum([projective(a, "1"), g, g])[0], Random(4))
    triples = rep.summands(m)
    assert len(triples) == 3
    total = rep.zero_morphism(m, m)
    for i, (x, incl, proj) in enumerate(triples):
        total = total.add(incl.compose(proj))
        for j, (_, other, _) in enumerate(triples):
            want = identity_morphism(x) if i == j else rep.zero_morphism(other.domain, x)
            assert rep._morph_eq(proj.compose(other), want)
    assert rep._morph_eq(total, identity_morphism(m))
    parts = rep._decompose_rec(m)
    gs = [part for part in parts if part[0].dim_vector == g.dim_vector]
    others = [part for part in parts if part[0].dim_vector != g.dim_vector]
    for bad in (parts[:2], others + [gs[0], gs[0]]):
        with monkeypatch.context() as mp:
            mp.setattr(rep, "_decompose_rec", lambda x, bad=bad: list(bad))
            with pytest.raises(CertificateError, match="do not split"):
                rep.summands(m)


def test_is_isomorphic_at_a_large_prime_uses_only_the_hom_basis(monkeypatch):
    """At p = 65521 an indecomposable with a 2-dimensional End ring is
    compared by its hom basis, with no coefficient search; the answers
    agree with the summand multisets of `decompose`."""
    def no_search(*args, **kwargs):
        raise AssertionError("coeff_vectors called")

    monkeypatch.setattr(rep, "coeff_vectors", no_search)
    b = alg61b(FieldSpec(65521))
    g = Representation(b, {"1": 1, "2": 2}, {"x": [[0], [1]], "z": [[0, 0], [1, 0]]})
    copy = twisted(g, Random(3))
    other = Representation(b, {"1": 1, "2": 2}, {"x": [[0], [1]]})
    assert hom_dim(g, g) == hom_dim(g, copy) == hom_dim(g, other) == 2
    assert [(x.dim_vector, k) for x, k in decompose(copy)] == [((1, 2), 1)]
    assert [(x.dim_vector, k) for x, k in decompose(other)] == [((0, 1), 1), ((1, 1), 1)]
    ok, wit = is_isomorphic(g, copy)
    assert ok and wit.verify().is_iso()
    assert is_isomorphic(g, other) == (False, None)


def test_semisimple_everything_projective():
    s = semisimple_two()
    for v in s.quiver.vertices:
        assert is_projective(simple(s, v))
    assert projective_dimension(simple(s, "1"), 4) == 0


def test_rational_homs_and_unsupported_decompose():
    """End(P1) of 61A is 2-dimensional and S1 + S2 splits in two, at a
    large prime as at a small one."""
    a = alg61a(FieldSpec(65521))
    p1 = projective(a, "1")
    assert hom_dim(p1, p1) == 2
    s1 = simple(a, "1")
    s2 = simple(a, "2")
    parts = decompose(direct_sum([s1, s2])[0])
    assert len(parts) == 2


def test_hom_basis_deterministic():
    a = alg61a()
    p2 = projective(a, "2")
    h1 = hom_basis(p2, p2)
    h2 = hom_basis(p2, p2)
    for b1, b2 in zip(h1.basis, h2.basis):
        for v in a.quiver.vertices:
            assert (b1.blocks[v] == b2.blocks[v]).all()


def _kron_hom_system(m, n):
    """`rep._hom_system` as written with np.kron: per arrow a: u -> w, the
    rows (I_{n_w} kron M_a^T) vec(F_w) - (N_a kron I_{m_u}) vec(F_u)."""
    f = m.field
    verts = m.algebra.quiver.vertices
    sizes = {v: n.dims[v] * m.dims[v] for v in verts}
    offs = dict(zip(verts, np.cumsum([0] + [sizes[v] for v in verts])))
    total = sum(sizes.values())
    rows = []
    for arw in m.algebra.quiver.arrows:
        u, w = arw.source, arw.target
        nr = n.dims[w] * m.dims[u]
        if nr == 0:
            continue
        block = f.zeros((nr, total))
        if sizes[w]:
            block[:, offs[w] : offs[w] + sizes[w]] = np.kron(f.eye(n.dims[w]), m.maps[arw.label].T)
        if sizes[u]:
            block[:, offs[u] : offs[u] + sizes[u]] = f.sub(
                block[:, offs[u] : offs[u] + sizes[u]],
                np.kron(n.maps[arw.label], f.eye(m.dims[u])),
            )
        rows.append(block % f.char)
    if not rows:
        return f.zeros((0, total)), total
    return np.concatenate(rows, axis=0), total


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_hom_system_matches_the_kron_formula(p):
    """The view-filled system equals the kron one byte for byte, on
    modules with zero-dimensional vertices and on algebras with loops."""
    f = FieldSpec(p)
    rng = Random(f"hom-system/{p}")
    checked = 0
    for a in (alg61a(f), alg61b(f), alg62a(f), loop_square_zero(f)):
        verts = a.quiver.vertices
        mods = [simple(a, v) for v in verts] + [projective(a, v) for v in verts]
        mods += [twisted(direct_sum(mods[-2:] + mods[:1])[0], rng), zero_rep(a)]
        for m in mods:
            for n in mods:
                got, total = rep._hom_system(m, n)
                want, want_total = _kron_hom_system(m, n)
                assert total == want_total and got.dtype == want.dtype
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                checked += got.size > 0
    assert checked > 50


def test_relation_check_rejects_a_broken_zero_relation():
    """x*x = 0 in kx2: a Jordan block of size 3 breaks it in one entry, the
    corner of the last column."""
    a = loop_square_zero(GF3)
    Representation(a, {"1": 2}, {"x": [[0, 1], [0, 0]]}, check=True)
    with pytest.raises(ValueError, match="not satisfied"):
        Representation(a, {"1": 3}, {"x": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]}, check=True)


@pytest.mark.parametrize("field", [GF2, GF3, FieldSpec(65521)], ids=lambda f: f.label)
def test_relation_check_rejects_noncommuting_actions(field):
    """Over kx2 (x) kx2 the left and right actions of x must commute: two
    multiples of one square-zero map pass, a square-zero map and its
    transpose do not."""
    t = tensor_algebra(loop_square_zero(field), loop_square_zero(field))
    left, right = sorted(ar.label for ar in t.quiver.arrows)
    top = field.char - 1
    Representation(t, {"1.1": 2}, {left: [[0, top], [0, 0]], right: [[0, 2], [0, 0]]})
    with pytest.raises(ValueError, match="not satisfied"):
        Representation(t, {"1.1": 2}, {left: [[0, 1], [0, 0]], right: [[0, 0], [1, 0]]})


def test_relation_check_passes_a_module_zero_at_the_source():
    """61B with nothing at vertex 1: the relations starting there (y*x,
    z*x) have empty matrices and hold; the others are still checked."""
    a = alg61b(GF3)
    Representation(a, {"2": 1}, {"z": [[0]]}, check=True)
    with pytest.raises(ValueError, match="not satisfied"):
        Representation(a, {"2": 1}, {"z": [[1]]}, check=True)


def test_path_matrix_of_trivial_and_length_two_paths():
    a = alg61b(GF3)
    m = projective(a, "2")
    for v in a.quiver.vertices:
        assert (m.path_matrix(trivial_path(v)) == GF3.eye(m.dims[v])).all()
    xy = path_from_written(a.quiver, ["x", "y"])
    want = GF3.matmul(m.maps["x"], m.maps["y"])
    got = m.path_matrix(xy)
    assert got.shape == want.shape and (got == want).all()


def test_zero_module_edges():
    a = alg61a()
    z = zero_rep(a)
    assert hom_dim(z, projective(a, "1")) == 0
    assert is_projective(z)
    assert decompose(z) == []


# ---------------------------------------------------------------------------
# checks raise, also under python -O


def test_inverse_of_a_singular_morphism_raises_value_error():
    a = alg61a(GF3)
    p1 = projective(a, "1")
    with pytest.raises(ValueError):
        rep.zero_morphism(p1, p1).inverse()


def test_non_commuting_blocks_fail_verify():
    a = alg61a(GF3)
    p1 = projective(a, "1")
    blocks = {v: GF3.zeros((p1.dims[v], p1.dims[v])) for v in a.quiver.vertices}
    blocks["1"] = GF3.eye(p1.dims["1"])  # identity at 1 only: squares break
    with pytest.raises(CertificateError):
        Morphism(p1, p1, blocks).verify()


def test_cover_certificate_raises(monkeypatch):
    a = alg61a(GF3)
    monkeypatch.setattr(Morphism, "is_epi", lambda self: False)
    with pytest.raises(CertificateError):
        projective_cover(simple(a, "1"))


def test_restricted_map_certificate_raises(monkeypatch):
    """Coordinate rows that miss the last basis vector: the span check of
    HomSpace.coords rejects the restricted maps that need it."""
    a = alg61b(GF3)
    m = simple(a, "2")
    rows_and_cols = HomSpace._coord_rows.func
    monkeypatch.setattr(
        HomSpace, "_coord_rows", property(lambda hs: tuple(x[:-1] for x in rows_and_cols(hs)))
    )
    with pytest.raises(CertificateError, match="escapes the hom space"):
        rep.ext_data(m, regular(a), 1)
    with pytest.raises(CertificateError, match="escapes the hom space"):
        star(m)


@pytest.mark.parametrize("field", [GF2, GF3, FieldSpec(65521)], ids=lambda f: f.label)
def test_hom_coords_match_solve_raw(field):
    """HomSpace.coords gives exactla.solve_matrix's solution for a one-column
    right-hand side, row for row and of its type, on a hom basis, on a stable
    coset sub-basis and on a 0-dim space, and raises on a row outside the
    span."""
    a = alg61a(field)
    m = direct_sum([simple(a, "2"), simple(a, "2"), projective(a, "1")])[0]
    hs = hom_basis(m, m)
    stable = StableHomSpace(m, m)
    coset = HomSpace(m, m, tuple(stable.coset_basis()))
    zero = hom_basis(projective(a, "1"), simple(a, "2"))
    assert hs.dim > coset.dim > 1 and zero.dim == 0 and zero._coord_rows[0].shape[1] > 0
    rng = Random(f"coords/{field.label}")
    for space in (hs, coset, zero):
        maps = [space.element([field.random_scalar(rng) for _ in range(space.dim)])
                for _ in range(6)]
        mat = np.stack([g.as_vector() for g in space.basis]).T if space.dim else (
            field.zeros((len(maps[0].as_vector()), 0)))
        stacked = space.coords_of(maps)
        assert stacked.shape == (len(maps), space.dim)
        for row, g in zip(stacked, maps):
            want = exactla.solve_matrix(field, mat, g.as_vector()[:, None])[:, 0]
            for got in (row, space.coords_of([g])[0]):
                assert got.dtype == want.dtype
                assert [(type(x), x) for x in got] == [(type(x), x) for x in want]
    outside = hs.basis[stable._pivots[0]]
    assert exactla.solve_matrix(field, np.stack([g.as_vector() for g in coset.basis]).T,
                                outside.as_vector()[:, None]) is None
    with pytest.raises(CertificateError, match="escapes the hom space"):
        coset.coords_of([coset.basis[0], outside])
    nonzero = field.zeros((1, zero._coord_rows[0].shape[1]))
    nonzero[0, 0] = field.canon(1)
    with pytest.raises(CertificateError, match="escapes the hom space"):
        zero.coords(nonzero)


def test_extension_certificates_raise(monkeypatch):
    a = alg61a(GF3)
    s1, s2 = simple(a, "1"), simple(a, "2")
    classes, enclosing = ext1_class_reps(s1, s2)
    assert classes
    middle, _, _ = middle_term(s1, s2, classes[0], enclosing)
    assert middle.total_dim == 2
    with monkeypatch.context() as mp:
        mp.setattr(Morphism, "is_mono", lambda self: False)
        with pytest.raises(CertificateError):
            middle_term(s1, s2, classes[0], enclosing)
    with monkeypatch.context() as mp:
        mp.setattr(Morphism, "is_epi", lambda self: False)
        with pytest.raises(CertificateError):
            middle_term(s1, s2, classes[0], enclosing)


@pytest.mark.parametrize("field", [GF2, FieldSpec(5)], ids=lambda f: f.label)
def test_hom_element_matches_scale_and_add_loop(field):
    a = alg61a(field)
    m = direct_sum([projective(a, "1"), simple(a, "2"), projective(a, "2")])[0]
    spaces = [hom_basis(m, regular(a)), hom_basis(m, m), hom_basis(m, simple(a, "1")),
              hom_basis(simple(a, "1"), simple(a, "2"))]
    assert [hs.dim > 0 for hs in spaces] == [True, True, True, False]
    rng = Random(11)
    for hs in spaces:
        for _ in range(6):
            coeffs = [field.random_scalar(rng) for _ in range(hs.dim)]
            got, want = hs.element(coeffs), reference_hom_element(hs, coeffs)
            for v in a.quiver.vertices:
                assert got.blocks[v].dtype == want.blocks[v].dtype
                assert got.blocks[v].shape == want.blocks[v].shape
                assert (got.blocks[v] == want.blocks[v]).all()
        # a stack of maps: the tensor contraction the cofibration search took
        # before, and with no basis the zero map alone
        rows = np.array([[field.random_scalar(rng) for _ in range(hs.dim)] for _ in range(6)],
                        dtype=np.int64).reshape(6, hs.dim)
        for v, got in hs.stack(rows).items():
            if hs.dim:
                basis = np.stack([b.blocks[v] for b in hs.basis])
                want = np.tensordot(rows, basis, axes=(1, 0)) % field.char
            else:
                want = np.zeros((1, hs.codomain.dims[v], hs.domain.dims[v]), dtype=np.int64)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert (got == want).all()


def _entries(a):
    return a.shape, [(type(x), x) for x in a.reshape(-1)]


@pytest.mark.parametrize("field", [GF2, GF3], ids=lambda f: f.label)
def test_direct_sum_blocks_match_the_entry_loop(field):
    """Injections and projections, entry types included, against the
    one-entry-at-a-time fill; zero-dimensional components included."""
    a = alg61b(field)
    p1, p2, s1, s2 = projective(a, "1"), projective(a, "2"), simple(a, "1"), simple(a, "2")
    for reps in ([s1], [s1, s2], [p1, s2, p1], [s2, p2, s1, p1, s2]):
        _, injs, prjs = direct_sum(reps)
        want_injs, want_prjs = reference_direct_sum_blocks(reps)
        for got, want in zip(injs + prjs, want_injs + want_prjs):
            for v in a.quiver.vertices:
                assert _entries(got.blocks[v]) == _entries(want[v])


@pytest.mark.parametrize("field", [GF2, GF3, FieldSpec(65521)], ids=lambda f: f.label)
def test_quotient_stack_matches_the_per_item_loop(field):
    """quotient_stack on stacks of submodules of equal rank, and
    quotient_by_rows (its stack of one) on each, give the per-item loop's
    quotient and projection, entry types included.  The submodules are
    random images, the empty one and the whole module; the second module
    is 0-dimensional at one vertex."""
    a = alg61a(field)
    verts = a.quiver.vertices
    rng = Random(f"quotients/{field.label}")
    for m in (direct_sum([projective(a, "1"), simple(a, "2"), projective(a, "2")])[0],
              direct_sum([simple(a, "1"), simple(a, "1")])[0]):
        rows = [{v: field.zeros((0, m.dims[v])) for v in verts},
                {v: field.eye(m.dims[v]) for v in verts}]
        for x in (m, projective(a, "1"), simple(a, "2"), regular(a)):
            hs = hom_basis(x, m)
            for _ in range(6):
                g = hs.element([field.random_scalar(rng) for _ in range(hs.dim)])
                rows.append({v: g.blocks[v].T for v in verts})
        groups = {}
        for r in rows:
            reds = {v: exactla.rref(field, r[v])[0] for v in verts}
            groups.setdefault(tuple(reds[v].shape[0] for v in verts), []).append((r, reds))
        assert len(groups) >= 3 and max(map(len, groups.values())) > 2
        for group in groups.values():
            stacks = {v: np.stack([red[v] for _, red in group]) for v in verts}
            quotients, proj = quotient_stack(m, stacks)
            assert len(quotients) == len(group)
            for k, ((r, _), pair) in enumerate(zip(group, quotients)):
                want_q, want_pr = reference_quotient_by_rows(m, r)
                for q, pr in (pair, quotient_by_rows(m, r)):
                    assert q.dims == want_q.dims and q.key() == want_q.key()
                    for lab in q.maps:
                        assert _entries(q.maps[lab]) == _entries(want_q.maps[lab])
                    for v in verts:
                        assert _entries(pr.blocks[v]) == _entries(want_pr.blocks[v])
                for v in verts:
                    assert _entries(proj[v][k]) == _entries(want_pr.blocks[v])


# ---------------------------------------------------------------------------
# pushout and descent


def _same_blocks(got, want):
    """Equal blocks at every vertex: dtype, shape, and each entry with its type."""
    assert got.blocks.keys() == want.blocks.keys()
    for v in want.blocks:
        x, y = got.blocks[v], want.blocks[v]
        assert x.dtype == y.dtype and x.shape == y.shape
        assert [(type(u), u) for u in x.reshape(-1)] == [(type(u), u) for u in y.reshape(-1)]


@pytest.mark.parametrize("field", [GF2, GF3], ids=lambda f: f.label)
def test_middle_term_matches_the_right_inverse_construction(field):
    """middle_term's pushout-and-descend build gives the middle term, the
    inclusion of n and the map onto m of the direct-sum construction that
    lifts through a right inverse of the quotient."""
    checked = 0
    for a in (alg61a(field), alg61b(field)):
        mods = [simple(a, v) for v in a.quiver.vertices]
        mods += [syzygy(s) for s in mods] + [projective(a, v) for v in a.quiver.vertices]
        for m in mods:
            for n in mods:
                classes, enclosing = ext1_class_reps(m, n)
                if not classes:
                    continue
                total = classes[0]
                for c in classes[1:]:
                    total = total.add(c)
                for cls in classes + [total]:
                    e, include_n, onto_m = middle_term(m, n, cls, enclosing)
                    want_e, want_include, want_onto = reference_middle_term(m, n, cls, enclosing)
                    assert e.key() == want_e.key()
                    _same_blocks(include_n, want_include)
                    _same_blocks(onto_m, want_onto)
                    checked += 1
    assert checked >= 4


def test_descend_raises_on_a_target_that_misses_the_kernel():
    """descend factors a map through an epi when the map vanishes on the
    kernel, and raises when it does not."""
    a = alg61b(GF3)
    m = simple(a, "1")
    p, epi = projective_cover(m)
    assert p.total_dim > m.total_dim
    _same_blocks(descend(epi, epi), identity_morphism(m))
    with pytest.raises(CertificateError, match="does not descend"):
        descend(epi, identity_morphism(p))


def test_pushout_square_commutes():
    """Pushing omega -> p0 out along an Ext^1 class omega -> n: the square
    commutes and dim P = dim p0 + dim n - dim omega."""
    a = alg61b(GF3)
    m, n = simple(a, "1"), simple(a, "2")
    classes, (omega, incl, p0, _) = ext1_class_reps(m, n)
    assert classes
    q = pushout(incl, classes[0])
    po = q.codomain
    # the structure maps are q's column blocks: p0's columns, then n's
    from_p0 = Morphism(p0, po, {v: b[:, : p0.dims[v]] for v, b in q.blocks.items()})
    from_n = Morphism(n, po, {v: b[:, p0.dims[v] :] for v, b in q.blocks.items()})
    _same_blocks(from_p0.compose(incl), from_n.compose(classes[0]))
    assert po.total_dim == p0.total_dim + n.total_dim - omega.total_dim


@pytest.mark.parametrize("make, p", [(loop_square_zero, 2), (alg61b, 3)],
                         ids=["kx2/GF(2)", "61B/GF(3)"])
def test_induced_pushout_map_matches_the_direct_sum_ladder(monkeypatch, make, p):
    """The gluing check's induced maps of pushouts, descended along the
    block-diagonal ladder, equal those of the ladder composed from two
    direct sums, on every ladder kind of a depth-1 run."""
    from gpktheory import waldhausen
    from gpktheory.gorenstein import gp_catalog

    data = waldhausen.build_wdata(gp_catalog(make(FieldSpec(p))), depth=1)
    seen = []
    induced = waldhausen._induced_pushout_map

    def recorded(q, qp, vy, vz):
        out = induced(q, qp, vy, vz)
        _same_blocks(out, reference_induced_pushout_map(q, qp, vy, vz))
        seen.append(out)
        return out

    monkeypatch.setattr(waldhausen, "_induced_pushout_map", recorded)
    report = waldhausen.gluing_check(data, trials=9, seed=5)
    assert report.ok and len(seen) == 9

