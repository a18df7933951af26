"""decompose's screened Fitting search and End(m) / rad certificate against
the plain loops they replace, kept here as the reference."""

from random import Random

import numpy as np
import pytest

from gpktheory import exactla, rep
from gpktheory.exactla import FieldSpec
from gpktheory.gorenstein import gp_catalog
from gpktheory.presentation import FiniteDimAlgebra
from gpktheory.rep import (
    Representation,
    cyclic_module,
    direct_sum,
    hom_basis,
    identity_morphism,
    is_isomorphic,
    projective,
    simple,
)

from builders import (
    alg61a,
    alg61b,
    alg62a,
    alg62b,
    all_coeff_vectors,
    loop_square_zero,
    matrix_power,
    nakayama,
    seeded_sums,
    twisted,
)

ALGEBRAS = {
    "kx2": loop_square_zero,
    "61A": alg61a,
    "61B": alg61b,
    "62A": alg62a,
    "62B": alg62b,
    "nakayama(2,2)": nakayama,
}
PRIMES = (2, 3, 5, 7)


# ---------------------------------------------------------------------------
# reference: the unscreened loops


def _ref_fitting_split(m, g):
    f = m.field
    n = m.total_dim
    powered = {v: matrix_power(f, g.blocks[v], max(n, 1)) for v in g.blocks}
    gm = rep.Morphism(m, m, powered)
    ker, _ = rep.kernel_subrep(gm)
    if ker.is_zero or ker.total_dim == m.total_dim:
        return None
    img, _ = rep.image_subrep(gm)
    return ker, img


def _ref_shift_loop(m, cands, lambdas):
    f = m.field
    for g in cands:
        for lam in lambdas:
            shifted = g.add(identity_morphism(m).scale(f.canon(-lam)))
            split = _ref_fitting_split(m, shifted)
            if split is not None:
                return split
    return None


def _ref_first_idempotent(ends):
    m = ends.domain
    ident = identity_morphism(m)
    for coeffs in all_coeff_vectors(m.field.char, ends.dim):
        e = ends.element(coeffs)
        if e.is_zero or rep._morph_eq(e, ident):
            continue
        if rep._morph_eq(e.compose(e), e):
            return coeffs
    return None


def _ref_decompose_rec(m, seed):
    if m.is_zero:
        return []
    if m.total_dim == 1:
        return [m]
    f = m.field
    ends = hom_basis(m, m)
    if ends.dim == 1:
        return [m]
    rng = Random(seed)
    cands = list(ends.basis)
    for _ in range(8):
        cands.append(ends.element([f.random_scalar(rng) for _ in range(ends.dim)]))
    split = _ref_shift_loop(m, cands, list(f.elements()))
    if split is not None:
        return _ref_decompose_rec(split[0], seed + 1) + _ref_decompose_rec(split[1], seed + 1)
    if f.char**ends.dim <= 4096:
        coeffs = _ref_first_idempotent(ends)
        if coeffs is None:
            return [m]
        e = ends.element(coeffs)
        img, _ = rep.image_subrep(e)
        ker, _ = rep.kernel_subrep(e)
        return _ref_decompose_rec(img, seed + 1) + _ref_decompose_rec(ker, seed + 1)
    # radical branch through the shared algebra type: S = End(m) / rad
    end = rep._end_algebra(ends)
    s = end.quotient(end.radical())
    if s.dim <= 1:
        return [m]
    if s.is_commutative():
        fixed = exactla.kernel(f, f.sub(s.frobenius(), f.eye(s.dim)))
        if fixed.shape[0] <= 1:
            return [m]
        for vec in fixed:
            lifted = np.zeros(ends.dim, dtype=np.int64)
            lifted[s.basis_cols] = vec
            for lam in range(f.char):
                g = ends.element((lifted - lam * end.unit) % f.char)
                if g.is_zero:
                    continue
                split = _ref_fitting_split(m, g)
                if split is not None:
                    return _ref_decompose_rec(split[0], seed + 1) + _ref_decompose_rec(
                        split[1], seed + 1
                    )
        raise RuntimeError("commutative split vector found no splitting")
    for extra in range(8):
        rng2 = Random(seed + 1000 + extra)
        for _ in range(64):
            g = ends.element([f.random_scalar(rng2) for _ in range(ends.dim)])
            split = _ref_shift_loop(m, [g], list(f.elements()))
            if split is not None:
                return _ref_decompose_rec(split[0], seed + 1) + _ref_decompose_rec(
                    split[1], seed + 1
                )
    raise RuntimeError("module is provably decomposable but no splitting was found")


# ---------------------------------------------------------------------------
# inputs


def _twisted_sum_gf3():
    a = alg61a(FieldSpec(3))
    return Representation(
        a, {"1": 2, "2": 2}, {"a": [[2, 1], [0, 2]], "b": [[0, 0], [0, 0]]}
    )


def _keys(pieces):
    return [piece.key() for piece in pieces]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_decompose_rec_matches_reference(name, p):
    """The reference draws from a seed that grows per split depth and
    `_decompose_rec` from one fixed seed, so their pieces agree up to
    isomorphism, one to one."""
    a = ALGEBRAS[name](FieldSpec(p))
    rng = Random(f"{name}/{p}")
    for seed, m in enumerate(seeded_sums(a, rng)):
        unmatched = _ref_decompose_rec(m, seed)
        for piece, _ in rep._decompose_rec(m):
            j = next(j for j, ref in enumerate(unmatched) if is_isomorphic(piece, ref)[0])
            unmatched.pop(j)
        assert not unmatched


def _cands(m, seed=0):
    f = m.field
    ends = hom_basis(m, m)
    rng = Random(seed)
    return list(ends.basis) + [
        ends.element([f.random_scalar(rng) for _ in range(ends.dim)]) for _ in range(8)
    ]


def test_fitting_rank_reject_matches_kernel_test():
    rng = Random(4)
    for p in (3, 5):
        for m in seeded_sums(alg62b(FieldSpec(p)), rng):
            ident = identity_morphism(m)
            for g in _cands(m):
                for lam in range(p):
                    shifted = g.add(ident.scale(-lam))
                    fast = rep._fitting_split(m, shifted)
                    ref = _ref_fitting_split(m, shifted)
                    assert (fast is None) == (ref is None)
                    if fast is not None:
                        assert _keys(part for part, _ in fast) == _keys(ref)


def _idempotent_cases():
    a3 = alg61a(FieldSpec(3))
    g3 = cyclic_module(a3, a3.element_from_str("b*a"))[0]
    a2 = alg61a(FieldSpec(2))
    g2 = cyclic_module(a2, a2.element_from_str("b*a"))[0]
    return [
        ("twisted sum", _twisted_sum_gf3(), True),
        ("G + P1 over GF(2)", direct_sum([g2, projective(a2, "1")])[0], True),
        ("P1 + G over GF(3)", direct_sum([projective(a3, "1"), g3])[0], True),
        ("P2 over GF(3)", projective(a3, "2"), False),
        ("P1 over GF(7)", projective(alg61a(FieldSpec(7)), "1"), False),
    ]


def _same_summands(got, want):
    """Equal dim vectors and multiplicities, with isomorphic pieces."""
    assert sorted((x.dim_vector, k) for x, k in got) == sorted((x.dim_vector, k) for x, k in want)
    for x, k in got:
        assert any(k == j and is_isomorphic(x, y)[0] for y, j in want)


@pytest.mark.parametrize("stack_bytes", [rep._STACK_BYTES, 64])
@pytest.mark.parametrize("label,m,splits", _idempotent_cases())
def test_batched_idempotent_matches_scalar_loop(monkeypatch, stack_bytes, label, m, splits):
    """With the sampled first step patched to miss, End(m) / rad certifies
    every split: m stays whole exactly when the scalar enumeration of
    End(m) finds no nontrivial idempotent, and otherwise it splits into the
    summands of unpatched `decompose`."""
    monkeypatch.setattr(rep, "_STACK_BYTES", stack_bytes)
    ends = hom_basis(m, m)
    assert 1 < ends.dim and m.field.char**ends.dim <= 4096  # an exhaustive line search
    idempotent = _ref_first_idempotent(ends)
    assert (idempotent is not None) == splits
    commutative = []
    is_commutative = exactla.StructureAlgebra.is_commutative
    with monkeypatch.context() as mp:
        mp.setattr(rep, "sampled_coeff_vectors", lambda f, n, seed, tries: iter([[0] * n]))
        mp.setattr(FiniteDimAlgebra, "memo", lambda self, site, key, build: build())
        mp.setattr(exactla.StructureAlgebra, "is_commutative",
                   lambda s: commutative.append(is_commutative(s)) or commutative[-1])
        got = rep.decompose(m)
    if idempotent is None:
        assert [(x.key(), k) for x, k in got] == [(m.key(), 1)]
        return
    _same_summands(got, rep.decompose(m))
    # only X + X has a noncommutative End / rad, split by the exhaustive line search
    assert (False in commutative) == (label == "twisted sum")


def _ref_singular_shift_split(m, cands, lambdas):
    """The per-shift loop the kernel screen replaces: `_fitting_split` on
    every shift that is singular at some vertex."""
    f = m.field
    ident = identity_morphism(m)
    for g in cands:
        for lam in lambdas:
            shifted = g.add(ident.scale(f.canon(-lam)))
            if all(exactla.rank_of(f, shifted.blocks[v]) == d for v, d in m.dims.items()):
                continue
            split = rep._fitting_split(m, shifted)
            if split is not None:
                return split
    return None


@pytest.mark.parametrize("stack_bytes", [rep._STACK_BYTES, 64])
@pytest.mark.parametrize("p", PRIMES)
def test_kernel_screen_matches_per_shift_loop(monkeypatch, stack_bytes, p):
    """Stacked Fitting kernels equal the kernels of each powered shift, a
    shift passes the screen exactly when `_fitting_split` splits with it,
    and the first split is the one the per-shift loop finds."""
    monkeypatch.setattr(rep, "_STACK_BYTES", stack_bytes)
    rng = Random(f"screen/{p}")
    modules = []
    for make in (alg61b, alg62a, loop_square_zero):
        a = make(FieldSpec(p))
        modules += seeded_sums(a, rng)
        # local End(m): every singular shift is nilpotent
        modules += list(gp_catalog(a).items[:1]) + [projective(a, "1")]
    for m in modules:
        f = m.field
        cands = _cands(m)
        lambdas = list(f.elements())
        kernels = rep._shift_fitting_kernels(m, cands, lambdas)
        ident = identity_morphism(m)
        for i, g in enumerate(cands):
            for j, lam in enumerate(lambdas):
                shifted = g.add(ident.scale(f.canon(-lam)))
                ker = sum(
                    d - exactla.rank_of(f, matrix_power(f, shifted.blocks[v], m.total_dim))
                    for v, d in m.dims.items()
                )
                assert kernels[i, j] == ker
                assert (0 < ker < m.total_dim) == (rep._fitting_split(m, shifted) is not None)
        fast = rep._first_fitting_split(m, cands, lambdas)
        ref = _ref_singular_shift_split(m, cands, lambdas)
        assert (fast is None) == (ref is None)
        if fast is not None:
            assert _keys(part for part, _ in fast) == _keys(part for part, _ in ref)
