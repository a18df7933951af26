"""Stable Hom, weak equivalence, and stable endomorphism algebras."""

from random import Random

import pytest

from gpktheory import exactla, stable
from gpktheory.exactla import FieldSpec
from gpktheory.rep import (
    Representation,
    cyclic_module,
    direct_sum,
    identity_morphism,
    projective,
    projective_cover,
    simple,
    syzygy,
    zero_rep,
)
from gpktheory.stable import (
    NotGPInput,
    StableMorphism,
    is_weakly_equivalent,
    stable_end_algebra,
    stable_hom,
    _space_cache,
)

from builders import (
    alg61a,
    alg61b,
    alg62a,
    every_coeff_vector,
    loop_square_zero,
    nakayama,
    seeded_sums,
    stable_witness_reference,
)

GF3 = FieldSpec(3)


def test_stable_hom_from_projective_vanishes():
    a = alg61a()
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    dim, basis = stable_hom(projective(a, "1"), g)
    assert dim == 0 and basis == []


def test_stable_hom_goldens():
    a = loop_square_zero()
    k = simple(a, "1")
    assert stable_hom(k, k)[0] == 1
    b = alg61a()
    g = cyclic_module(b, b.element_from_str("b*a"))[0]
    assert stable_hom(g, g)[0] == 1
    c = alg61b()
    w = syzygy(simple(c, "2"))
    assert stable_hom(w, w)[0] == 1


def test_stable_hom_additive_in_first_argument():
    a = alg61a()
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    p = projective(a, "1")
    total = direct_sum([g, p])[0]
    assert stable_hom(total, g)[0] == stable_hom(g, g)[0] + stable_hom(p, g)[0]


def test_stable_morphism_equality_mod_factoring():
    a = alg61a()
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    space = _space_cache(g, g)
    cover, epi = projective_cover(g)
    from gpktheory.rep import hom_basis

    lifts = hom_basis(g, cover)
    assert lifts.dim >= 1
    factoring = epi.compose(lifts.basis[0])
    ident = identity_morphism(g)
    assert StableMorphism(space, ident) == StableMorphism(space, ident.add(factoring))
    assert space.is_stably_zero(factoring)


def test_weak_equivalence_with_projective_padding():
    a = alg61a()
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    padded = direct_sum([g, projective(a, "1")])[0]
    ok, witness = is_weakly_equivalent(g, padded)
    assert ok
    f, ginv = witness
    end = _space_cache(g, g)
    assert end.is_stably_zero(ginv.compose(f).sub(identity_morphism(g)))


def test_weak_equivalence_projective_vs_zero():
    a = alg61a()
    p = projective(a, "2")
    ok, _ = is_weakly_equivalent(p, zero_rep(a))
    assert ok
    ok2, _ = is_weakly_equivalent(p, projective(a, "1"))
    assert ok2


def test_weak_equivalence_negative():
    a = alg61a()
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    ok, wit = is_weakly_equivalent(g, projective(a, "1"))
    assert not ok and wit is None
    ok, _ = is_weakly_equivalent(g, zero_rep(a))
    assert not ok


def test_weak_equivalence_requires_certificates():
    a = alg61a()
    s2 = simple(a, "2")  # finite pd, not GP
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    with pytest.raises(NotGPInput):
        is_weakly_equivalent(s2, g)


def test_stable_end_dimensions():
    a = alg61a()
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    lam = stable_end_algebra(g)
    assert lam.dim == 1
    assert lam.is_commutative()
    b = alg61b()
    w = syzygy(simple(b, "2"))
    assert stable_end_algebra(w).dim == 1
    c = loop_square_zero()
    assert stable_end_algebra(simple(c, "1")).dim == 1
    # projectives give the zero algebra
    assert stable_end_algebra(projective(a, "1")).dim == 0


def test_stable_end_unit_is_idempotent():
    a = alg61a(GF3)
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    lam = stable_end_algebra(g)
    u = lam.unit
    assert (lam.mult(u, u) == u).all()


def test_random_pairs_agree_with_stripping():
    # seeded sums: stably isomorphic exactly when the copies of g agree
    a = alg61a(GF3)
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    p1 = projective(a, "1")
    p2 = projective(a, "2")
    rng = Random(7)
    pool = [g, p1, p2]
    for _ in range(20):
        left = [pool[rng.randrange(3)] for _ in range(rng.randrange(1, 4))]
        right = [pool[rng.randrange(3)] for _ in range(rng.randrange(1, 4))]
        x = direct_sum(left)[0]
        y = direct_sum(right)[0]
        expected = sum(1 for r in left if r is g) == sum(1 for r in right if r is g)
        got, _ = is_weakly_equivalent(x, y)
        assert got == expected


@pytest.mark.parametrize("k", [4, 5, 6])
def test_squared_simples_of_a_nakayama_algebra_are_weakly_equivalent(k):
    """S_1^2 + ... + S_k^2 over the radical-square-zero Nakayama algebra on
    the k-cycle over GF(2): the stable End has dimension 4k, past the
    exhaustive cap, and the witness assembled from the non-projective
    summands is stably inverse all the same."""
    a = nakayama(FieldSpec(2), n=k, length=2)
    m = direct_sum([simple(a, v) for v in a.quiver.vertices for _ in range(2)])[0]
    assert stable_hom(m, m)[0] == 4 * k
    ok, (f, g) = is_weakly_equivalent(m, m)
    assert ok and stable._stably_inverse(f, g, _space_cache(m, m), _space_cache(m, m))


def test_witness_line_search_matches_full_enumeration(monkeypatch):
    a = alg61a(GF3)
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    p1, p2 = projective(a, "1"), projective(a, "2")
    gg = direct_sum([g, g])[0]
    twisted = Representation(
        a, {"1": 2, "2": 2}, {"a": [[2, 1], [0, 2]], "b": [[0, 0], [0, 0]]}
    )
    pairs = [
        (g, direct_sum([g, p1])[0]),
        (gg, twisted),
        (direct_sum([p2, g])[0], direct_sum([g, p1])[0]),
        (p2, zero_rep(a)),
        (g, p1),
        (gg, g),
    ]
    for m, n in pairs:
        found = stable_witness_reference(m, n)
        with monkeypatch.context() as mp:
            mp.setattr(exactla, "coeff_vectors", every_coeff_vector)
            ref = stable_witness_reference(m, n)
        assert (found is None) == (ref is None)
        for mor, ref_mor in zip(found or (), ref or ()):
            assert all((mor.blocks[v] == ref_mor.blocks[v]).all() for v in mor.blocks)
    assert [stable_witness_reference(m, n) is not None for m, n in pairs] == [
        True, True, True, True, False, False
    ]
    assert [is_weakly_equivalent(m, n)[0] for m, n in pairs] == [
        True, True, True, True, False, False
    ]


def _seeded_pairs(make):
    """Every ordered pair of four seeded sums over make(GF(3)), on a fresh
    algebra, so no memo is shared between calls."""
    a = make(GF3)
    rng = Random(f"stable-cap/{make.__name__}")
    modules = seeded_sums(a, rng) + seeded_sums(a, rng)
    return [(x, y) for x in modules for y in modules]


@pytest.mark.parametrize("make", [alg61a, alg61b, alg62a])
def test_weak_equivalence_answers_do_not_depend_on_the_exhaustive_cap(monkeypatch, make):
    """With EXHAUSTIVE_CAP = 1 every coefficient search is sampled, yet the
    answers and witness blocks are those at the normal cap: the decision is
    Krull-Schmidt on certified decompositions, and no search miss enters
    it.  The modules are built before the cap changes, so the GP catalog
    behind them is the same.  Over 62A every GP module is projective, so
    every pair there is stably isomorphic."""
    want = [is_weakly_equivalent(x, y) for x, y in _seeded_pairs(make)]
    assert any(ok for ok, _ in want)
    assert all(ok for ok, _ in want) == (make is alg62a)
    pairs = _seeded_pairs(make)
    monkeypatch.setattr(exactla, "EXHAUSTIVE_CAP", 1)
    for (x, y), (want_ok, want_wit) in zip(pairs, want):
        ok, wit = is_weakly_equivalent(x, y)
        assert ok == want_ok
        for got, ref in zip(wit or (), want_wit or ()):
            assert all((got.blocks[v] == ref.blocks[v]).all() for v in ref.blocks)
