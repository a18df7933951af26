"""The per-algebra memo of decompositions and isomorphism tests.

`FiniteDimAlgebra.memo` reuses a result only for byte-identical modules and
the same seed in the same algebra; these tests compare every memoized
answer with the uncached search and check what a hit hands back.
"""

from random import Random

import pytest

from gpktheory import gorenstein, rep
from gpktheory.exactla import FieldSpec
from gpktheory.gorenstein import gp_catalog
from gpktheory.ktheory import build_k0_input
from gpktheory.presentation import FiniteDimAlgebra
from gpktheory.rep import (
    Representation,
    decompose,
    direct_sum,
    ext1_class_reps,
    is_isomorphic,
    projective,
    simple,
)

from builders import alg61a, alg61b, alg62a, alg62b, loop_square_zero, seeded_sums, twisted

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


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_memoized_answers_match_the_uncached_search(monkeypatch, name, p):
    a = ALGEBRAS[name](FieldSpec(p))
    rng = Random(f"memo/{name}/{p}")
    modules = seeded_sums(a, rng)
    for seed, m in enumerate(modules):
        ref = _uncached(monkeypatch, decompose, m, seed)
        _forget(a)
        cold = decompose(m, seed)
        warm = decompose(_copy(m), seed)
        assert _summary(cold) == _summary(warm) == _summary(ref)
    pieces = [piece for m in modules for piece, _ in decompose(m)]
    for x in pieces + modules:
        for y in pieces + modules:
            ok, wit = rep._find_isomorphism(x, y, 0, 128) if (
                x.dim_vector == y.dim_vector) else (False, None)
            for _ in range(2):  # a miss, then a hit
                got, got_wit = is_isomorphic(x, y)
                assert got == ok
                if ok:
                    assert all((got_wit.blocks[v] == wit.blocks[v]).all() for v in wit.blocks)
                else:
                    assert got_wit is None


def test_rational_decompose_matches_the_uncached_search(monkeypatch):
    a = alg61a(FieldSpec(0))
    m = twisted(direct_sum([simple(a, "1"), simple(a, "2"), simple(a, "1")])[0], Random(5))
    ref = _uncached(monkeypatch, decompose, m, 0)
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


def test_fresh_algebra_has_an_empty_memo_and_seeds_get_their_own_entries():
    a = alg61a(FieldSpec(5))
    assert a._caches == {}
    m = twisted(direct_sum([projective(a, "1"), simple(a, "2")])[0], Random(2))
    decompose(m, seed=0)
    decompose(m, seed=1)
    keys = a._caches["decompose"]
    assert (m.key(), 0) in keys and (m.key(), 1) in keys
    assert alg61a(FieldSpec(5))._caches == {}


def test_mutating_a_returned_list_leaves_the_memo_intact():
    a = alg62a(FieldSpec(3))
    m = direct_sum([projective(a, v) for v in a.quiver.vertices])[0]
    pieces = rep._decompose_rec(m, 0)
    keys = [piece.key() for piece in pieces]
    pieces.clear()
    assert [piece.key() for piece in rep._decompose_rec(m, 0)] == keys
    parts = decompose(m)
    summary = _summary(parts)
    parts.pop()
    assert _summary(decompose(m)) == summary


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
