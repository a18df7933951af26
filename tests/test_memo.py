"""The per-algebra memo of projectives, decompositions, isomorphism tests
and stable Hom spaces.

`FiniteDimAlgebra.memo` reuses a result only for byte-identical modules in
the same algebra; these tests compare every memoized answer with the
uncached search and check what a hit hands back.
"""

from random import Random

import pytest

from gpktheory import gorenstein, rep
from gpktheory.exactla import FieldSpec
from gpktheory.gorenstein import gp_catalog
from gpktheory.ktheory import build_k0_input, k0_gorenstein, k1_gorenstein
from gpktheory.presentation import FiniteDimAlgebra
from gpktheory.rep import (
    Representation,
    cyclic_module,
    decompose,
    direct_sum,
    ext1_class_reps,
    identity_morphism,
    is_isomorphic,
    projective,
    regular,
    simple,
)
from gpktheory.stable import StableHomSpace, _space_cache, is_weakly_equivalent, stable_hom
from gpktheory.waldhausen import gluing_check

from builders import (
    alg61a,
    alg61b,
    alg62a,
    alg62b,
    cached_wdata,
    loop_square_zero,
    seeded_sums,
    twisted,
)

ALGEBRAS = {
    "kx2": loop_square_zero,
    "61A": alg61a,
    "61B": alg61b,
    "62A": alg62a,
    "62B": alg62b,
}
PRIMES = (2, 3, 5, 7)
MEMO_SITES = ("decompose", "is_isomorphic")


def _uncached(monkeypatch, fn, *args):
    """fn(*args) with every memo site building afresh."""
    with monkeypatch.context() as mp:
        mp.setattr(FiniteDimAlgebra, "memo", lambda self, site, key, build: build())
        return fn(*args)


def _forget(a):
    for site in MEMO_SITES:
        a._caches.pop(site, None)


def _copy(m):
    """A second object with m's bytes."""
    return Representation(m.algebra, dict(m.dims), dict(m.maps))


def _summary(parts):
    return [(piece.key(), mult) for piece, mult in parts]


def _keys(pieces):
    """The piece keys of `_decompose_rec` output or of a `decompose` memo value."""
    return [piece.key() for piece, _ in pieces]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_memoized_answers_match_the_uncached_search(monkeypatch, name, p):
    a = ALGEBRAS[name](FieldSpec(p))
    rng = Random(f"memo/{name}/{p}")
    modules = seeded_sums(a, rng)
    for m in modules:
        ref = _uncached(monkeypatch, rep._decompose_rec, m)
        _forget(a)
        cold = rep._decompose_rec(m)
        copy = _copy(m)
        warm = rep._decompose_rec(copy)
        assert _keys(cold) == _keys(warm) == _keys(ref)
        # a hit rebinds the stored inclusions to the caller's module
        assert all(incl.domain is piece and incl.codomain is copy for piece, incl in warm)
    pieces = [piece for m in modules for piece, _ in decompose(m)]
    for x in pieces + modules:
        for y in pieces + modules:
            # the reference: the line search over Hom(x, y), 128 draws past the cap
            ok = x.dim_vector == y.dim_vector and rep._find_isomorphism(x, y) is not None
            witnesses = []
            for _ in range(2):  # a miss, then a hit
                got, got_wit = is_isomorphic(x, y)
                assert got == ok
                if ok:
                    assert got_wit.verify().is_iso()
                    witnesses.append(got_wit)
                else:
                    assert got_wit is None
            if ok:
                first, second = witnesses
                assert all((first.blocks[v] == second.blocks[v]).all() for v in first.blocks)


def test_rational_decompose_matches_the_uncached_search(monkeypatch):
    a = alg61a(FieldSpec(7))
    m = twisted(direct_sum([simple(a, "1"), simple(a, "2"), simple(a, "1")])[0], Random(5))
    ref = _uncached(monkeypatch, decompose, m)
    assert _summary(decompose(m)) == _summary(decompose(_copy(m))) == _summary(ref)
    assert [mult for _, mult in ref] == [1, 2]  # S2 sorts before S1


def test_hit_rebinds_the_witness_to_the_callers_modules():
    a = alg61b(FieldSpec(3))
    rng = Random(7)
    m = direct_sum([projective(a, "1"), gp_catalog(a).items[0]])[0]
    n = twisted(m, rng)
    assert is_isomorphic(m, n)[0]
    entries = len(a._caches["is_isomorphic"])
    m2, n2 = _copy(m), _copy(n)
    ok, wit = is_isomorphic(m2, n2)
    assert len(a._caches["is_isomorphic"]) == entries  # a hit
    assert ok and wit.domain is m2 and wit.codomain is n2
    assert wit.verify().is_iso()


def test_fresh_algebra_has_an_empty_memo_and_each_piece_is_stored_whole():
    a = alg61a(FieldSpec(5))
    assert a._caches == {}
    m = twisted(direct_sum([projective(a, "1"), simple(a, "2")])[0], Random(2))
    pieces = rep._decompose_rec(m)
    stored = a._caches["decompose"]
    assert len(pieces) == 2 and m.key() in stored
    # the memo is keyed on bytes alone, so each piece is its own one piece
    assert all(_keys(stored[piece.key()]) == [piece.key()] for piece, _ in pieces)
    assert alg61a(FieldSpec(5))._caches == {}


def test_mutating_a_returned_list_leaves_the_memo_intact():
    a = alg62a(FieldSpec(3))
    m = direct_sum([projective(a, v) for v in a.quiver.vertices])[0]
    pieces = rep._decompose_rec(m)
    keys = _keys(pieces)
    pieces.clear()
    assert _keys(rep._decompose_rec(m)) == keys
    parts = decompose(m)
    summary = _summary(parts)
    parts.pop()
    assert _summary(decompose(m)) == summary


def test_shared_projectives_and_regular_module_stay_unchanged(monkeypatch):
    """A hit hands back the stored module itself; after the catalog, both
    K-groups, the oracle and a gluing check its bytes still equal a fresh
    build, so no caller mutated it."""
    data = cached_wdata("61b_gf3_d1")  # build_wdata(depth=1) on 61B over GF(3)
    a, cat = data.algebra, data.catalog
    verts = a.quiver.vertices
    projs = [projective(a, v) for v in verts]
    reg = regular(a)
    assert all(projective(a, v) is pv for v, pv in zip(verts, projs))
    assert regular(a) is reg
    gp_catalog(a)
    k0_gorenstein(a, cat)
    k1_gorenstein(a, cat)
    gluing_check(data, trials=3)
    assert all(projective(a, v) is pv for v, pv in zip(verts, projs))
    assert regular(a) is reg
    for v, pv in zip(verts, projs):
        fresh = _uncached(monkeypatch, projective, a, v)
        # _copy recomputes the bytes, which the cached key() would not
        assert _copy(pv).key() == pv.key() == fresh.key()
        assert pv._proj_basis == fresh._proj_basis
    fresh = _uncached(monkeypatch, regular, a)
    assert _copy(reg).key() == reg.key() == fresh.key()


@pytest.mark.parametrize("make", [lambda: alg61a(FieldSpec(3)), lambda: alg62b(FieldSpec(3))])
def test_k0_harvest_evaluates_every_row(monkeypatch, make):
    """The memo shortens each row's work but every row is still evaluated:
    one middle term per ordered pair of catalog items and line of their
    Ext^1 (all exhaustive here)."""
    a = make()
    items = gp_catalog(a).items
    p = a.field.char
    expected = 0
    for z in items:
        for x in items:
            d = len(ext1_class_reps(z, x)[0])
            expected += (p**d - 1) // (p - 1)
    calls = []
    inner = gorenstein.middle_term

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(gorenstein, "middle_term", counted)
    cat = gp_catalog(a)
    data = build_k0_input(a, cat)
    assert len(calls) == expected == len(data.matrix.rows)


# stable Hom spaces ----------------------------------------------------------


def _count_space_builds(monkeypatch):
    """A list that gets one entry per StableHomSpace built."""
    built = []
    inner = StableHomSpace.__init__

    def counted(self, m, n):
        built.append((m, n))
        inner(self, m, n)

    monkeypatch.setattr(StableHomSpace, "__init__", counted)
    return built


def _stably_inverse(f, g):
    """g f and f g are the identity modulo maps through projectives."""
    def is_identity(h, x):
        dim, basis = stable_hom(x, x)
        return dim == 0 or basis[0].space.is_stably_zero(h.sub(identity_morphism(x)))

    return is_identity(g.compose(f), f.domain) and is_identity(f.compose(g), f.codomain)


def _gp_pair(a, rng):
    """x and a twisted y = x + a projective: stably isomorphic, distinct bytes."""
    items = gp_catalog(a).items
    x = direct_sum([items[0], projective(a, a.quiver.vertices[0])])[0]
    y = twisted(direct_sum([items[0], projective(a, a.quiver.vertices[-1])])[0], rng)
    return x, y


def test_equal_bytes_share_one_stable_space_on_the_callers_modules(monkeypatch):
    a = alg61b(FieldSpec(3))
    x, y = _gp_pair(a, Random(3))
    built = _count_space_builds(monkeypatch)
    first = _space_cache(x, y)
    x2, y2 = _copy(x), _copy(y)
    second = _space_cache(x2, y2)
    assert len(built) == 1
    assert first.domain is x and first.codomain is y
    assert second.domain is x2 and second.codomain is y2
    assert second.hom.domain is x2 and second.hom.codomain is y2
    assert second.hom.dim == first.hom.dim > 0
    for b2, b in zip(second.hom.basis, first.hom.basis):
        assert b2.domain is x2 and b2.codomain is y2
        assert all(b2.blocks[v] is b.blocks[v] for v in b.blocks)
    # the view reads hom coordinates with the stored space's rows
    assert second.hom._coord_rows is first.hom._coord_rows
    # the stored space is untouched and still served to its own modules
    assert _space_cache(x, y) is first and all(b.domain is x for b in first.hom.basis)
    assert (second.dim, second.free_cols) == (first.dim, first.free_cols)
    assert len(built) == 1


def test_weak_equivalence_on_copies_hands_back_maps_between_the_copies(monkeypatch):
    a = alg61a(FieldSpec(5))
    x, y = _gp_pair(a, Random(4))
    ok, (f, g) = is_weakly_equivalent(x, y)
    assert ok and _stably_inverse(f, g)
    built = _count_space_builds(monkeypatch)
    x2, y2 = _copy(x), _copy(y)
    ok2, (f2, g2) = is_weakly_equivalent(x2, y2)
    assert not built  # a second pass over equal bytes builds no space
    assert ok2
    assert f2.domain is x2 and f2.codomain is y2 and g2.domain is y2 and g2.codomain is x2
    assert _stably_inverse(f2, g2)
    assert all((f2.blocks[v] == f.blocks[v]).all() for v in f.blocks)


@pytest.mark.parametrize("make", [alg61a, alg61b, alg62a])
def test_weak_equivalence_answers_match_the_uncached_search(monkeypatch, make):
    a = make(FieldSpec(3))
    rng = Random(f"stable/{make.__name__}")
    modules = seeded_sums(a, rng)
    modules += [_copy(m) for m in modules]
    for x in modules:
        for y in modules:
            ref_ok, ref_wit = _uncached(monkeypatch, is_weakly_equivalent, x, y)
            ok, wit = is_weakly_equivalent(x, y)
            assert ok == ref_ok
            if not ok:
                assert wit is None
                continue
            for got, want in zip(wit, ref_wit):
                assert got.domain is want.domain and got.codomain is want.codomain
                assert all((got.blocks[v] == want.blocks[v]).all() for v in want.blocks)
            assert _stably_inverse(*wit)


def test_equal_bytes_over_another_algebra_still_raise():
    a, b = alg61a(FieldSpec(5)), alg61a(FieldSpec(5))
    m = projective(a, "1")
    other = Representation(b, dict(m.dims), dict(m.maps))
    assert other.key() == m.key()
    _space_cache(m, m)
    with pytest.raises(ValueError, match="different algebras"):
        _space_cache(m, other)
    with pytest.raises(ValueError, match="different algebras"):
        _space_cache(other, m)
    assert "stable_spaces" not in b._caches


@pytest.mark.parametrize("fields", [(5, 5), (3, 5)], ids=["two-copies", "gf3-gf5"])
def test_isomorphy_tests_over_another_algebra_raise(fields):
    """`is_isomorphic` and `is_weakly_equivalent` refuse modules over two
    algebras, in either order: two builds of one algebra, or one algebra
    over GF(3) and over GF(5)."""
    a, b = (alg61a(FieldSpec(p)) for p in fields)
    m = cyclic_module(a, a.element_from_str("b*a"))[0]
    n = cyclic_module(b, b.element_from_str("b*a"))[0]
    for test in (is_isomorphic, is_weakly_equivalent):
        for x, y in ((m, n), (n, m)):
            with pytest.raises(ValueError, match="different algebras"):
                test(x, y)
