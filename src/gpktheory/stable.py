"""Stable module category layer: Hom modulo projectives, weak equivalences,
and stable endomorphism algebras.

A morphism is stably zero when it factors through a projective; factoring is
decided against the projective cover of the codomain (any map from a
projective lifts along the cover epi, so the cover suffices).

Weak equivalences are decided by Krull-Schmidt on the non-projective
summands, which `decompose` certifies, and witnessed by maps assembled from
their split maps; no search over the stable Hom is made.
"""

import copy
from dataclasses import dataclass

import numpy as np

from . import exactla
from .exactla import CertificateError
from .gorenstein import certify_gp
from .rep import (
    Morphism,
    Representation,
    assemble,
    decompose,
    hom_basis,
    identity_morphism,
    is_projective,
    match_summands,
    projective_cover,
    summands,
    zero_morphism,
)


class NotGPInput(Exception):
    """Raised when a stable-category operation needs a GP certificate it lacks."""


def _require_gp(m: Representation):
    verdict = certify_gp(m)
    if not verdict.is_gp:
        raise NotGPInput(
            f"module with dims {m.dim_vector} lacks a Gorenstein projective "
            f"certificate (verdict {verdict.status})"
        )


class StableHomSpace:
    """Hom(m, n) together with the subspace of maps factoring through
    projectives, presented so residues are canonical coordinates.

    Hom coordinates are read by `HomSpace.coords`.  Built through
    `_space_cache`, which memoizes one space per pair of module byte
    strings and hands other objects with those bytes a `rehome`d view;
    neither the stored space nor a view is mutated after construction."""

    def __init__(self, m: Representation, n: Representation):
        if m.algebra is not n.algebra:
            raise ValueError("modules over different algebras")
        self.domain = m
        self.codomain = n
        self.field = m.field
        self.hom = hom_basis(m, n)
        cover, epi = projective_cover(n)
        lift = hom_basis(m, cover)
        rows = self.hom.coords_of(epi.compose(g) for g in lift.basis)
        self._factor_rows, self._pivots = exactla.rref(self.field, rows)
        pivset = set(self._pivots)
        self.free_cols = [j for j in range(self.hom.dim) if j not in pivset]
        self.dim = len(self.free_cols)

    def quotient_rows(self, maps) -> np.ndarray:
        """Coordinates of each map's stable class on the coset basis, one row
        per map: the residue of its hom coordinates modulo the factoring
        rows, which are fully reduced, so one product with the coordinates
        at their pivots clears every pivot."""
        f = self.field
        vecs = self.hom.coords_of(maps)
        residues = f.sub(vecs, f.matmul(vecs[:, self._pivots], self._factor_rows))
        return residues[:, self.free_cols]

    def quotient_coords(self, morphism: Morphism):
        return self.quotient_rows([morphism])[0]

    def is_stably_zero(self, morphism: Morphism) -> bool:
        vec = self.quotient_coords(morphism)
        return not np.any(vec != 0)

    def coset_basis(self):
        return [self.hom.basis[j] for j in self.free_cols]

    def rehome(self, m: Representation, n: Representation) -> "StableHomSpace":
        """This space on m and n, which have the bytes of its domain and
        codomain: a shallow copy whose hom space is `HomSpace.rehome`d to
        m -> n, sharing its coordinate rows and the factoring rows
        read-only.  Nothing of self is changed, so a memoized space can
        serve modules built apart."""
        view = copy.copy(self)
        view.domain, view.codomain = m, n
        view.hom = self.hom.rehome(m, n)
        return view


@dataclass
class StableMorphism:
    space: StableHomSpace
    morphism: Morphism

    @property
    def domain(self):
        return self.space.domain

    @property
    def codomain(self):
        return self.space.codomain

    def coords(self):
        return self.space.quotient_coords(self.morphism)

    def __eq__(self, other):
        if not isinstance(other, StableMorphism):
            return NotImplemented
        if self.space.domain is not other.space.domain:
            return False
        if self.space.codomain is not other.space.codomain:
            return False
        a, b = self.coords(), other.coords()
        return a.shape == b.shape and (not a.size or bool((a == b).all()))


def _space_cache(m: Representation, n: Representation) -> StableHomSpace:
    """The StableHomSpace of m and n, memoized per algebra on the modules'
    bytes.  The stored space is built on the first modules asked for and is
    never mutated; for other objects with the same bytes a rehomed view is
    returned, so every morphism it hands out runs from this m to this n."""
    if m.algebra is not n.algebra:
        raise ValueError("modules over different algebras")
    space = m.algebra.memo("stable_spaces", (m.key(), n.key()), lambda: StableHomSpace(m, n))
    if space.domain is m and space.codomain is n:
        return space
    return space.rehome(m, n)


def stable_hom(m: Representation, n: Representation):
    """(dimension, basis of StableMorphisms) of Hom(m, n) modulo projectives."""
    space = _space_cache(m, n)
    return space.dim, [StableMorphism(space, b) for b in space.coset_basis()]


def _strip_projectives(m: Representation):
    """Non-projective indecomposable summands of m as a sorted multiset."""
    return [(part, mult) for part, mult in decompose(m) if not is_projective(part)]


def _solve_stable_inverse(f_mor: Morphism, end_m: StableHomSpace, end_n: StableHomSpace, back: StableHomSpace):
    """Solve linearly for g: n -> m with g.f = id_m and f.g = id_n stably."""
    m, n = f_mor.domain, f_mor.codomain
    field = m.field
    if back.hom.dim == 0:
        g = zero_morphism(n, m)
        return g if _stably_inverse(f_mor, g, end_m, end_n) else None
    # one stacked read per end space: the composites with each basis map of
    # back, then the identity
    basis = back.hom.basis
    left = end_m.quotient_rows([b.compose(f_mor) for b in basis] + [identity_morphism(m)])
    right = end_n.quotient_rows([f_mor.compose(b) for b in basis] + [identity_morphism(n)])
    mat = np.concatenate([left[:-1], right[:-1]], axis=1).T
    rhs = np.concatenate([left[-1], right[-1]])
    sol = exactla.solve_matrix(field, mat, rhs[:, None])
    if sol is None:
        return None
    g = back.hom.element(sol[:, 0])
    if not _stably_inverse(f_mor, g, end_m, end_n):
        raise CertificateError("solved stable inverse is not inverse")
    return g


def _stably_inverse(f_mor: Morphism, g_mor: Morphism, end_m: StableHomSpace, end_n: StableHomSpace):
    """g.f = id_m and f.g = id_n modulo maps through projectives."""
    m, n = f_mor.domain, f_mor.codomain
    left = g_mor.compose(f_mor).sub(identity_morphism(m))
    right = f_mor.compose(g_mor).sub(identity_morphism(n))
    return end_m.is_stably_zero(left) and end_n.is_stably_zero(right)


def is_weakly_equivalent(m: Representation, n: Representation, seed: int = 0):
    """(answer, witness): stable isomorphism of certified GP modules.

    Decided by Krull-Schmidt: m and n are stably isomorphic exactly when
    their non-projective indecomposable summands match (`match_summands`
    of the `_strip_projectives` lists), and every decomposition is
    certified, so a negative answer rests on no search.  For matching
    summands the witness is the pair `assemble`d from the split maps of
    the non-projective `summands`, certified stably inverse.  `seed` is
    unused; it is kept for callers that pass it.
    """
    if m.algebra is not n.algebra:
        raise ValueError("modules over different algebras")
    _require_gp(m)
    _require_gp(n)
    if not match_summands(_strip_projectives(m), _strip_projectives(n)):
        return False, None
    left, right = ([s for s in summands(x) if not is_projective(s[0])] for x in (m, n))
    f_mor, g_mor = assemble(m, n, left, right)
    if not _stably_inverse(f_mor, g_mor, _space_cache(m, m), _space_cache(n, n)):
        raise CertificateError("witness built from matched summands is not inverse")
    return True, (f_mor, g_mor)


class StableEndAlgebra(exactla.StructureAlgebra):
    """The stable endomorphism algebra of a module, on canonical coset basis.

    The structure constants are the stable classes of the composites of
    coset representatives; the unit and associativity are certified.
    """

    def __init__(self, g: Representation):
        _require_gp(g)
        self.module = g
        self.space = _space_cache(g, g)
        self.basis = self.space.coset_basis()
        f = g.field
        dim = self.space.dim
        products = [bi.compose(bj) for bi in self.basis for bj in self.basis]
        structure = self.space.quotient_rows(products).reshape(dim, dim, dim)
        super().__init__(f, structure, self.space.quotient_coords(identity_morphism(g)))
        self.certify()


def stable_end_algebra(g: Representation) -> StableEndAlgebra:
    return StableEndAlgebra(g)
