"""Finite dimensional representations of a path algebra.

A representation assigns a vector space to each vertex and a matrix to
each arrow, with arrow matrices shaped (target dim, source dim).  All
derived data (kernels, covers, syzygies, hom bases) is produced in
canonical form so repeated runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from . import exactla
from .exactla import (
    CertificateError,
    FieldSpec,
    StructureAlgebra,
    coeff_vectors,
    sampled_coeff_vectors,
)
from .presentation import FiniteDimAlgebra, Path, opposite


class Representation:
    """A module over a FiniteDimAlgebra, given by vertex dims and arrow maps."""

    def __init__(self, algebra: FiniteDimAlgebra, dims: dict, maps: dict, check=True):
        self.algebra = algebra
        self.dims = {v: int(dims.get(v, 0)) for v in algebra.quiver.vertices}
        self.maps = {}
        f = algebra.field
        for a in algebra.quiver.arrows:
            m = maps.get(a.label)
            shape = (self.dims[a.target], self.dims[a.source])
            if m is None:
                m = f.zeros(shape)
            else:
                m = f.array(m) if not isinstance(m, np.ndarray) else m % f.char
                m = m.reshape(shape)
            self.maps[a.label] = m
        self._key = None
        if check:
            self._check_relations()

    # ------------------------------------------------------------------
    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    @property
    def dim_vector(self) -> tuple:
        return tuple(self.dims[v] for v in self.algebra.quiver.vertices)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    def path_matrix(self, p: Path) -> np.ndarray:
        """Matrix of the path action (arrows applied left to right in p.arrows)."""
        f = self.field
        cur = f.eye(self.dims[p.source])
        for lab in p.arrows:
            cur = f.matmul(self.maps[lab], cur)
        return cur

    def key(self) -> bytes:
        if self._key is None:
            bits = [repr(self.dim_vector).encode()]
            for a in self.algebra.quiver.arrows:
                bits.append(self.maps[a.label].tobytes())
            self._key = b"|".join(bits)
        return self._key

    def describe(self) -> str:
        return "dim " + repr(self.dim_vector)

    def _check_relations(self):
        f = self.field
        for r in self.algebra.relations:
            if not r.terms:
                continue
            src = r.terms[0][1].source
            tgt = r.terms[0][1].target
            acc = f.zeros((self.dims[tgt], self.dims[src]))
            for c, p in r.terms:
                acc = f.add(acc, f.scale(c, self.path_matrix(p)))
            if np.any(acc != 0):
                raise ValueError(f"relation {r} not satisfied")


@dataclass
class Morphism:
    """A module map: one matrix per vertex, shaped (codomain dim, domain dim)."""

    domain: Representation
    codomain: Representation
    blocks: dict

    def block(self, v: str) -> np.ndarray:
        return self.blocks[v]

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other."""
        f = self.domain.field
        return Morphism(
            other.domain,
            self.codomain,
            {v: f.matmul(self.blocks[v], other.blocks[v]) for v in self.blocks},
        )

    def add(self, other: "Morphism") -> "Morphism":
        f = self.domain.field
        return Morphism(
            self.domain,
            self.codomain,
            {v: f.add(self.blocks[v], other.blocks[v]) for v in self.blocks},
        )

    def scale(self, c) -> "Morphism":
        f = self.domain.field
        return Morphism(
            self.domain, self.codomain, {v: f.scale(c, self.blocks[v]) for v in self.blocks}
        )

    def sub(self, other: "Morphism") -> "Morphism":
        f = self.domain.field
        return Morphism(
            self.domain,
            self.codomain,
            {v: f.sub(self.blocks[v], other.blocks[v]) for v in self.blocks},
        )

    def inverse(self) -> "Morphism":
        f = self.domain.field
        blocks = {}
        for v in self.blocks:
            inv = exactla.invert(f, self.blocks[v])
            if inv is None:
                raise ValueError("inverse of a non-invertible morphism")
            blocks[v] = inv
        return Morphism(self.codomain, self.domain, blocks)

    @property
    def is_zero(self) -> bool:
        return not any(np.any(b != 0) for b in self.blocks.values())

    def is_mono(self) -> bool:
        return all(
            exactla.rank_of(self.domain.field, self.blocks[v])
            == self.domain.dims[v]
            for v in self.blocks
        )

    def is_epi(self) -> bool:
        return all(
            exactla.rank_of(self.domain.field, self.blocks[v])
            == self.codomain.dims[v]
            for v in self.blocks
        )

    def is_iso(self) -> bool:
        return (
            self.domain.dim_vector == self.codomain.dim_vector
            and self.is_mono()
        )

    def as_vector(self) -> np.ndarray:
        f = self.domain.field
        parts = [self.blocks[v].reshape(-1) for v in self.domain.algebra.quiver.vertices]
        if not parts:
            return f.zeros((0,))
        return np.concatenate(parts)

    def verify(self):
        """Check the commuting squares (used after hand assembly)."""
        f = self.domain.field
        for a in self.domain.algebra.quiver.arrows:
            lhs = f.matmul(self.blocks[a.target], self.domain.maps[a.label])
            rhs = f.matmul(self.codomain.maps[a.label], self.blocks[a.source])
            if not _eq(f, lhs, rhs):
                raise CertificateError(f"square at arrow {a.label} does not commute")
        return self


def _eq(f: FieldSpec, a: np.ndarray, b: np.ndarray) -> bool:
    return bool(((a - b) % f.char == 0).all())


def morphism_from_vector(m: Representation, n: Representation, vec) -> Morphism:
    f = m.field
    blocks = {}
    at = 0
    for v in m.algebra.quiver.vertices:
        size = n.dims[v] * m.dims[v]
        block = np.array(vec[at : at + size]).reshape(n.dims[v], m.dims[v])
        blocks[v] = block.astype(np.int64) % f.char
        at += size
    return Morphism(m, n, blocks)


def zero_morphism(m: Representation, n: Representation) -> Morphism:
    f = m.field
    return Morphism(m, n, {v: f.zeros((n.dims[v], m.dims[v])) for v in m.algebra.quiver.vertices})


def identity_morphism(m: Representation) -> Morphism:
    f = m.field
    return Morphism(m, m, {v: f.eye(m.dims[v]) for v in m.algebra.quiver.vertices})


# ---------------------------------------------------------------------------
# constructors


def zero_rep(a: FiniteDimAlgebra) -> Representation:
    return Representation(a, {}, {})


def simple(a: FiniteDimAlgebra, v: str) -> Representation:
    return Representation(a, {v: 1}, {})


def projective(a: FiniteDimAlgebra, v: str) -> Representation:
    """The indecomposable projective at v: paths out of v, arrows acting on
    the left.  Memoized per algebra: the module is shared, so callers must
    not mutate it."""
    return a.memo("projective", v, lambda: _projective(a, v))


def _projective(a: FiniteDimAlgebra, v: str) -> Representation:
    idxs = a.paths_with_source(v)
    by_vertex = {w: [i for i in idxs if a.target_of(i) == w] for w in a.quiver.vertices}
    dims = {w: len(lst) for w, lst in by_vertex.items()}
    maps = {
        arw.label: a.action(a.arrow_index[arw.label], by_vertex[arw.source], by_vertex[arw.target])
        for arw in a.quiver.arrows
    }
    rep = Representation(a, dims, maps)
    rep._proj_vertex = v
    rep._proj_basis = by_vertex
    return rep


def regular(a: FiniteDimAlgebra) -> Representation:
    """The sum of the projectives in quiver vertex order, memoized like them."""
    return a.memo(
        "regular", None,
        lambda: direct_sum([projective(a, v) for v in a.quiver.vertices])[0],
    )


def direct_sum(reps):
    """Direct sum with injection and projection morphisms."""
    if not reps:
        raise ValueError("empty direct sum needs an algebra; use zero_rep")
    a = reps[0].algebra
    f = a.field
    dims = {v: sum(r.dims[v] for r in reps) for v in a.quiver.vertices}
    maps = {arw.label: block_diag(f, [r.maps[arw.label] for r in reps]) for arw in a.quiver.arrows}
    total = Representation(a, dims, maps, check=False)
    # each summand's injection is a column block of the identity, its
    # projection the matching row block
    eyes = {v: f.eye(dims[v]) for v in a.quiver.vertices}
    injections = []
    projections = []
    off = {v: 0 for v in a.quiver.vertices}
    for r in reps:
        span = {v: slice(off[v], off[v] + r.dims[v]) for v in a.quiver.vertices}
        injections.append(Morphism(r, total, {v: eyes[v][:, span[v]].copy() for v in span}))
        projections.append(Morphism(total, r, {v: eyes[v][span[v]].copy() for v in span}))
        for v in a.quiver.vertices:
            off[v] += r.dims[v]
    return total, injections, projections


def block_diag(f: FieldSpec, blocks) -> np.ndarray:
    """The matrix with the given blocks down its diagonal and zeros elsewhere."""
    mat = f.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r0 = c0 = 0
    for b in blocks:
        mat[r0 : r0 + b.shape[0], c0 : c0 + b.shape[1]] = b
        r0 += b.shape[0]
        c0 += b.shape[1]
    return mat


def sub_from_rows(m: Representation, rows: dict):
    """Subrepresentation spanned by the given row vectors at each vertex.

    Rows are canonicalized by row reduction.  Raises if the span is not
    arrow stable.  Returns (sub, inclusion).
    """
    f = m.field
    bases = {}
    for v in m.algebra.quiver.vertices:
        r = rows.get(v)
        if r is None or (hasattr(r, "size") and r.size == 0) or len(r) == 0:
            bases[v] = f.zeros((0, m.dims[v]))
        else:
            arr = r if isinstance(r, np.ndarray) else f.array(r)
            red, _ = exactla.rref(f, arr)
            bases[v] = red
    dims = {v: bases[v].shape[0] for v in bases}
    maps = {}
    for arw in m.algebra.quiver.arrows:
        u, w = arw.source, arw.target
        bw = bases[w].T  # (m_w, s_w)
        rhs = f.matmul(m.maps[arw.label], bases[u].T)  # (m_w, s_u)
        if dims[w] == 0:
            if np.any(rhs != 0):
                raise ValueError("rows are not arrow stable")
            maps[arw.label] = f.zeros((0, dims[u]))
            continue
        sol = exactla.solve_matrix(f, bw, rhs)
        if sol is None:
            raise ValueError("rows are not arrow stable")
        maps[arw.label] = sol
    sub = Representation(m.algebra, dims, maps, check=False)
    incl = Morphism(sub, m, {v: bases[v].T.copy() for v in bases})
    return sub, incl


def image_subrep(fm: Morphism):
    rows = {}
    for v in fm.domain.algebra.quiver.vertices:
        rows[v] = fm.blocks[v].T
    return sub_from_rows(fm.codomain, rows)


def kernel_subrep(fm: Morphism):
    rows = {}
    for v in fm.domain.algebra.quiver.vertices:
        rows[v] = exactla.kernel(fm.domain.field, fm.blocks[v])
    return sub_from_rows(fm.domain, rows)


def quotient_by_rows(m: Representation, rows: dict):
    """Quotient of m by the subrepresentation the rows span.

    The quotient basis is the canonical complement (non-pivot coordinates
    of the reduced rows).  Returns (quotient, projection).
    """
    f = m.field
    reds = {}
    for v in m.algebra.quiver.vertices:
        r = rows.get(v)
        if r is None or len(r) == 0:
            red = f.zeros((0, m.dims[v]))
        else:
            arr = r if isinstance(r, np.ndarray) else f.array(r)
            red, _ = exactla.rref(f, arr)
        reds[v] = red[None]
    return quotient_stack(m, reds)[0][0]


def quotient_stack(m: Representation, reds: dict):
    """Quotients of m by a stack of subrepresentations at once.

    reds[v] is an (N, r_v, d_v) stack of canonical RREFs whose rows are all
    nonzero: item k spans its subrepresentation's rows at v.  Returns
    (quotients, proj): one (quotient, projection) per item, equal to
    `quotient_by_rows` on that item's rows, and per vertex the stack of the
    projections' blocks.  The quotient basis is the free (non-pivot)
    coordinates, the projection P reduces modulo the span and reads them,
    and each arrow map is P_w M_a L_u with L_u the lift at the free
    coordinates.
    """
    f = m.field
    verts = m.algebra.quiver.vertices
    num = len(reds[verts[0]])
    proj, free, dims = {}, {}, {}
    for v in verts:
        red = reds[v]
        _, r, d = red.shape
        pr = f.zeros((num, d - r, d))
        if r == d:
            # the whole space: nothing is left
            fr = np.zeros((num, 0), dtype=np.intp)
        elif r == 0:
            # nothing to reduce by: P is the identity (fr broadcasts over items)
            cols = np.arange(d)
            pr[:, cols, cols] = f.canon(1)
            fr = cols[None]
        else:
            items = np.arange(num)[:, None]
            # each row's pivot is its first nonzero column
            piv = (red != 0).argmax(axis=2)
            is_piv = np.zeros((num, d), dtype=bool)
            is_piv[items, piv] = True
            fr = np.nonzero(~is_piv)[1].reshape(num, d - r)
            ks = np.arange(d - r)
            pr[items, ks, fr] = f.canon(1)
            # P[k, piv_i] = -R[i, free_k]: reduce modulo the span, read the free coordinates
            pr[items[:, :, None], ks[:, None], piv[:, None, :]] = f.scale(
                -1, red.transpose(0, 2, 1)[items, fr]
            )
        proj[v], free[v], dims[v] = pr, fr, d - r
    maps = {}
    for arw in m.algebra.quiver.arrows:
        u, w = arw.source, arw.target
        if not (dims[u] and dims[w]):
            maps[arw.label] = f.zeros((num, dims[w], dims[u]))
            continue
        # M_a L_u reads the columns of M_a at the free coordinates of u; the
        # Representation reduces the products mod p
        maps[arw.label] = proj[w] @ m.maps[arw.label][:, free[u]].transpose(1, 0, 2)
    out = []
    for k in range(num):
        q = Representation(m.algebra, dims, {lab: mp[k] for lab, mp in maps.items()}, check=False)
        out.append((q, Morphism(m, q, {v: proj[v][k] for v in verts})))
    return out, proj


def cokernel(fm: Morphism):
    rows = {v: fm.blocks[v].T for v in fm.domain.algebra.quiver.vertices}
    return quotient_by_rows(fm.codomain, rows)


def pushout(mono: Morphism, attach: Morphism) -> Morphism:
    """Pushout of a mono x -> y along any map attach: x -> z.

    Returns the quotient q: y + z -> P = coker(x -> y + z, w |-> (mono w,
    -attach w)), with P = q.codomain.  The structure maps are q's column
    blocks: y's columns first, then z's.
    """
    y = mono.codomain
    z = attach.codomain
    _, injs, _ = direct_sum([y, z])
    glue = injs[0].compose(mono).add(injs[1].compose(attach.scale(y.field.canon(-1))))
    return cokernel(glue)[1]


def descend(epi: Morphism, target: Morphism) -> Morphism:
    """The unique map g with g . epi = target, for an epi and a target that
    vanishes on its kernel; a target that does not raises."""
    f = epi.domain.field
    blocks = {}
    for v in epi.domain.algebra.quiver.vertices:
        sol = exactla.solve_matrix(f, epi.blocks[v].T, target.blocks[v].T)
        if sol is None:
            raise CertificateError("map does not descend along the quotient")
        blocks[v] = sol.T
    out = Morphism(epi.codomain, target.codomain, blocks).verify()
    if not _morph_eq(out.compose(epi), target):
        raise CertificateError("descended map does not commute")
    return out


# ---------------------------------------------------------------------------
# hom spaces


@dataclass
class HomSpace:
    domain: Representation
    codomain: Representation
    basis: tuple  # Morphisms

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _stacked(self) -> dict:
        """Per vertex, the basis blocks flattened into the rows of one matrix."""
        return {
            v: np.stack([b.blocks[v].reshape(-1) for b in self.basis])
            for v in self.domain.algebra.quiver.vertices
        }

    def stack(self, coeffs) -> dict:
        """{v: (N, n_v, m_v)}: per vertex, the blocks of the maps sum_i
        c[i] basis[i] for the N rows c of coeffs, by one product with the
        stacked basis.  With an empty basis the zero map is the one map."""
        n, m = self.codomain.dims, self.domain.dims
        if not self.basis:
            return {v: np.zeros((1, n[v], m[v]), dtype=np.int64) for v in m}
        f = self.domain.field
        c = np.asarray(coeffs, dtype=np.int64).reshape(-1, self.dim) % f.char
        return {
            v: f.matmul(c, rows).reshape(len(c), n[v], m[v])
            for v, rows in self._stacked.items()
        }

    def element(self, coeffs) -> Morphism:
        """sum_i coeffs[i] basis[i]: the one row of `stack`."""
        return Morphism(self.domain, self.codomain, {
            v: b[0] for v, b in self.stack([coeffs]).items()
        })

    @cached_property
    def _coord_rows(self):
        """(rows, cols): the basis's `as_vector()`s stacked, and per row a
        unit column, where that row is 1 and every other row is 0.
        `hom_basis` takes its basis from `exactla.kernel`, which puts a unit
        column in each row (its free column); any subset of it keeps them."""
        f = self.domain.field
        if not self.basis:
            width = sum(self.codomain.dims[v] * self.domain.dims[v] for v in self.domain.dims)
            return f.zeros((0, width)), np.zeros(0, dtype=np.intp)
        rows = np.stack([b.as_vector() for b in self.basis])
        unit = (rows == 1) & (np.count_nonzero(rows, axis=0) == 1)
        if not unit.any(axis=1).all():
            raise CertificateError("a hom basis row has no unit column")
        return rows, unit.argmax(axis=1)

    def coords(self, vecs) -> np.ndarray:
        """The coordinates in this basis of each row of vecs (maps flattened
        by `as_vector()`), read at the unit columns; one product checks that
        they give vecs back, so a row outside the span raises."""
        f = self.domain.field
        rows, cols = self._coord_rows
        vecs = f.array(vecs)
        out = vecs[:, cols]
        if not (f.matmul(out, rows) == vecs).all():
            raise CertificateError("a map escapes the hom space")
        return out

    def coords_of(self, maps) -> np.ndarray:
        """`coords` of the maps domain -> codomain, one row per map."""
        vecs = [g.as_vector() for g in maps]
        return self.coords(np.stack(vecs) if vecs else self._coord_rows[0][:0])

    def rehome(self, m: Representation, n: Representation) -> "HomSpace":
        """This space as maps m -> n, for m and n with the bytes of its domain
        and codomain: the basis wraps the same blocks and shares the stacked
        coordinate rows."""
        view = HomSpace(m, n, tuple(Morphism(m, n, dict(b.blocks)) for b in self.basis))
        view._coord_rows = self._coord_rows
        return view


def _hom_system(m: Representation, n: Representation):
    """Coefficient matrix of the commuting equations, unknowns = stacked vec(F_v)."""
    f = m.field
    verts = m.algebra.quiver.vertices
    sizes = {v: n.dims[v] * m.dims[v] for v in verts}
    offs = {}
    at = 0
    for v in verts:
        offs[v] = at
        at += sizes[v]
    total = at
    rows = []
    for arw in m.algebra.quiver.arrows:
        u, w = arw.source, arw.target
        nr = n.dims[w] * m.dims[u]
        if nr == 0:
            continue
        block = f.zeros((nr, total))
        # the kron products are written into 4-d views (copy=False raises
        # rather than copy) of their column ranges: row (i, k) is entry
        # (i, k) of F_w M_a - N_a F_u, column (j, l) entry (j, l) of F_w or F_u
        # F_w M_a: (I_{n_w} kron M_a^T) vec(F_w)
        if sizes[w]:
            view = block[:, offs[w] : offs[w] + sizes[w]].reshape(
                (n.dims[w], m.dims[u], n.dims[w], m.dims[w]), copy=False)
            diag = np.arange(n.dims[w])
            view[diag, :, diag, :] = m.maps[arw.label].T
        # N_a F_u: (N_a kron I_{m_u}) vec(F_u)
        if sizes[u]:
            view = block[:, offs[u] : offs[u] + sizes[u]].reshape(
                (n.dims[w], m.dims[u], n.dims[u], m.dims[u]), copy=False)
            diag = np.arange(m.dims[u])
            view[:, diag, :, diag] -= n.maps[arw.label]
        rows.append(block % f.char)
    if not rows:
        return f.zeros((0, total)), total
    return np.concatenate(rows, axis=0), total


def hom_basis(m: Representation, n: Representation) -> HomSpace:
    """Canonical basis of the space of module maps m -> n."""
    f = m.field
    sys_mat, total = _hom_system(m, n)
    if total == 0:
        return HomSpace(m, n, ())
    ker = exactla.kernel(f, sys_mat)
    basis = tuple(morphism_from_vector(m, n, ker[i]) for i in range(ker.shape[0]))
    return HomSpace(m, n, basis)


def hom_dim(m: Representation, n: Representation) -> int:
    f = m.field
    sys_mat, total = _hom_system(m, n)
    if total == 0:
        return 0
    return total - exactla.rank_of(f, sys_mat)


# ---------------------------------------------------------------------------
# radical, top, covers, syzygies


def radical_rows(m: Representation) -> dict:
    """Row bases of rad(M) = sum of arrow images (self loops included)."""
    f = m.field
    rows = {}
    for v in m.algebra.quiver.vertices:
        stacked = [m.maps[a.label].T for a in m.algebra.quiver.arrows_into(v)]
        stacked = [s for s in stacked if s.shape[0]]
        if not stacked:
            rows[v] = f.zeros((0, m.dims[v]))
            continue
        red, _ = exactla.rref(f, np.concatenate(stacked, axis=0))
        rows[v] = red
    return rows


def top_dims(m: Representation) -> dict:
    rad = radical_rows(m)
    return {v: m.dims[v] - rad[v].shape[0] for v in rad}


def projective_cover(m: Representation):
    """Minimal projective cover (P, epi); epi lifts a basis of top(M)."""
    a = m.algebra
    f = m.field
    rad = radical_rows(m)
    summands = []
    lifts = []  # (vertex, column vector into M_v)
    for v in a.quiver.vertices:
        red, piv = exactla.rref(f, rad[v]) if rad[v].shape[0] else (rad[v], [])
        free = [c for c in range(m.dims[v]) if c not in set(piv)]
        for c in free:
            summands.append(v)
            vec = f.zeros((m.dims[v],))
            vec[c] = f.canon(1)
            lifts.append((v, vec))
    if not summands:
        if not m.is_zero:
            raise CertificateError("nonzero module with empty top")
        p = zero_rep(a)
        return p, zero_morphism(p, m)
    projs = [projective(a, v) for v in summands]
    p, injections, _ = direct_sum(projs)
    blocks = {w: f.zeros((m.dims[w], p.dims[w])) for w in a.quiver.vertices}
    off = {w: 0 for w in a.quiver.vertices}
    for (v, vec), pr in zip(lifts, projs):
        for w in a.quiver.vertices:
            for col, i in enumerate(pr._proj_basis[w]):
                path = a.basis[i]
                img = f.matmul(m.path_matrix(path), vec.reshape(-1, 1))
                blocks[w][:, off[w] + col] = img.reshape(-1)
        for w in a.quiver.vertices:
            off[w] += pr.dims[w]
    epi = Morphism(p, m, blocks).verify()
    if not epi.is_epi():
        raise CertificateError("cover map is not onto")
    return p, epi


def syzygy(m: Representation, n: int = 1) -> Representation:
    """The n-th syzygy: iterated kernel of minimal projective covers."""
    cur = m
    for _ in range(n):
        cur = _syzygy_once(cur)[0]
    return cur


def _syzygy_once(m: Representation):
    """(syzygy, inclusion into cover, cover, epi), cached per algebra."""

    def build():
        p, epi = projective_cover(m)
        ker, incl = kernel_subrep(epi)
        return ker, incl, p, epi

    return m.algebra.memo("cover", m.key(), build)


def is_projective(m: Representation) -> bool:
    if m.is_zero:
        return True
    return _syzygy_once(m)[0].is_zero


def projective_dimension(m: Representation, bound: int = 16):
    """Projective dimension, or None when it exceeds the bound."""
    if m.is_zero:
        return 0
    cur = m
    for d in range(bound + 1):
        if is_projective(cur):
            return d
        cur = _syzygy_once(cur)[0]
    return None


def dual_rep(m: Representation) -> Representation:
    """The linear dual as a module over the opposite algebra (maps transpose)."""
    op = opposite(m.algebra)
    return Representation(
        op,
        dict(m.dims),
        {a.label: m.maps[a.label].T.copy() for a in m.algebra.quiver.arrows},
        check=True,
    )


# ---------------------------------------------------------------------------
# ext groups


def _resolution(m: Representation, depth: int):
    """Minimal resolution data: list of (syzygy_i, incl_i, cover_i, epi_i) for i < depth.

    cover_i covers syzygy^i(m) (syzygy^0 = m).
    """
    out = []
    cur = m
    for _ in range(depth):
        step = _syzygy_once(cur)
        out.append(step)
        cur = step[0]
    return out


def ext_data(m: Representation, n: Representation, degree: int):
    """dim Ext^degree(m, n) plus, for degree >= 1, the hom-level presentation.

    Returns (dimension, hom_space_on_syzygy, image_coeff_rows) where
    image_coeff_rows are coordinates (in that hom basis) of maps factoring
    through the enclosing cover.
    """
    if degree == 0:
        return hom_dim(m, n), None, None
    res = _resolution(m, degree)
    omega, incl, p_last, _ = res[-1]
    hs = hom_basis(omega, n)
    if hs.dim == 0:
        return 0, hs, np.zeros((0, 0))
    # image: maps omega -> n extending to p_last, i.e. g . incl for g: p_last -> n
    img = hs.coords_of(g.compose(incl) for g in hom_basis(p_last, n).basis)
    rank = exactla.rank_of(m.field, img)
    return hs.dim - rank, hs, img


def ext1_class_reps(m: Representation, n: Representation):
    """Canonical coset representatives of Ext^1(m, n) inside Hom(syzygy m, n).

    Returns (list of Morphisms forming a basis of a complement of the
    factoring maps, the enclosing data (incl, cover, epi)).
    """
    res = _resolution(m, 1)
    omega, incl, p0, epi = res[0]
    dim, hs, img = ext_data(m, n, 1)
    if dim == 0:
        return [], (omega, incl, p0, epi)
    f = m.field
    red, piv = exactla.rref(f, img) if img.shape[0] else (img, [])
    pivset = set(piv)
    reps = []
    for j in range(hs.dim):
        if j not in pivset:
            reps.append(hs.basis[j])
        if len(reps) == dim:
            break
    # the free coordinates complement the image, so these classes are a basis
    if len(reps) != dim:
        raise CertificateError("ext classes do not complement the factoring maps")
    return reps, (omega, incl, p0, epi)


@dataclass
class ExtResult:
    degree: int
    dimension: int
    representatives: tuple  # middle-term Representations for a basis (degree 1)


def middle_term(m: Representation, n: Representation, cls: Morphism, enclosing):
    """Middle term of the extension of m by n along cls: syzygy(m) -> n.

    Built as the pushout of omega -> p0 along cls, with the map onto m
    descended from (epi, 0): p0 + n -> m through the pushout quotient.
    Verifies exactness: n embeds, the map onto m is onto, dimensions match
    and the composite is zero.  Returns (E, include_n, project_to_m).
    """
    omega, incl, p0, epi = enclosing
    f = m.field
    q = pushout(incl, cls)
    e = q.codomain
    include_n = Morphism(n, e, {v: q.blocks[v][:, p0.dims[v] :] for v in q.blocks})
    if not include_n.is_mono():
        raise CertificateError("extension does not embed the kernel term")
    onto_m = descend(q, Morphism(q.domain, m, {
        v: np.concatenate([epi.blocks[v], f.zeros((m.dims[v], n.dims[v]))], axis=1)
        for v in m.algebra.quiver.vertices
    }))
    if not onto_m.is_epi():
        raise CertificateError("extension does not map onto the quotient term")
    if e.total_dim != m.total_dim + n.total_dim:
        raise CertificateError("extension dimension is not the sum of its ends")
    if not onto_m.compose(include_n).is_zero:
        raise CertificateError("composite through the extension is nonzero")
    return e, include_n, onto_m


def ext(m: Representation, n: Representation, degree: int) -> ExtResult:
    """Ext^degree(m, n) from a minimal resolution; middles attached in degree 1."""
    if degree < 0:
        raise ValueError("negative degree")
    dim, _, _ = ext_data(m, n, degree)
    reps = ()
    if degree == 1 and dim:
        classes, enclosing = ext1_class_reps(m, n)
        reps = tuple(middle_term(m, n, c, enclosing)[0] for c in classes)
    return ExtResult(degree, dim, reps)


# ---------------------------------------------------------------------------
# star duality (hom into the regular module)


def star(m: Representation) -> Representation:
    """Hom(m, A) as a module over the opposite algebra.

    The component at v is Hom(m, P(v)); the reversed arrow a: w -> u acts by
    postcomposition with right multiplication P(w) -> P(u).
    """
    a = m.algebra
    projs = {v: projective(a, v) for v in a.quiver.vertices}
    homs = {v: hom_basis(m, projs[v]) for v in a.quiver.vertices}
    actions = {}
    for arw in a.quiver.arrows:
        u, w = arw.source, arw.target
        # right multiplication by the arrow: P(w) -> P(u)
        rho = _right_mult_on_projectives(projs[w], projs[u], arw.label)
        actions[arw.label] = (w, u, lambda g, r=rho: r.compose(g))
    return hom_family_rep(opposite(a), homs, actions)


def hom_family_rep(t: FiniteDimAlgebra, homs: dict, arrow_actions: dict) -> Representation:
    """The t-module with the hom space homs[v] at each vertex v.

    arrow_actions maps each arrow label to (source vertex, target vertex,
    action on maps); the arrow's matrix holds the coordinates, in the target
    hom basis, of the action on each source basis map.
    """
    maps = {
        label: homs[tgt].coords_of(act(g) for g in homs[src].basis).T
        for label, (src, tgt, act) in arrow_actions.items()
    }
    return Representation(t, {v: hs.dim for v, hs in homs.items()}, maps, check=True)


def _right_mult_on_projectives(pw: Representation, pu: Representation, label: str) -> Morphism:
    """Right multiplication by an arrow a: u -> w, as a map P(w) -> P(u)."""
    a = pw.algebra
    # written x * a: path a then x
    ai = a.arrow_index[label]
    blocks = {
        t: a.action(ai, pw._proj_basis[t], pu._proj_basis[t], "right")
        for t in a.quiver.vertices
    }
    return Morphism(pw, pu, blocks).verify()


def cyclic_module(a: FiniteDimAlgebra, x):
    """The left submodule A x of the regular module generated by the
    coordinate vector x."""
    reg = regular(a)
    # regular components: vertex w holds basis paths with target w, grouped
    # projective-by-projective in quiver vertex order
    layout = {
        w: [i for v in a.quiver.vertices for i in a.paths_with_source(v) if a.target_of(i) == w]
        for w in a.quiver.vertices
    }
    prods = a.mult(a.field.eye(a.dim), x)  # row i: b_i x
    return sub_from_rows(reg, {w: prods[:, layout[w]] for w in a.quiver.vertices})


# ---------------------------------------------------------------------------
# isomorphy and decomposition


def is_isomorphic(m: Representation, n: Representation):
    """(answer, witness): a certified decision, the witness a map m -> n.

    An invertible basis map of Hom(m, n) is a witness.  Without one an
    indecomposable m is not isomorphic to n: End(m) is local, so the maps
    m -> n that are not invertible form a proper subspace of Hom(m, n).
    A decomposable m is decided by Krull-Schmidt (`match_summands`), and
    for equal summand multisets the witness is `assemble`d from `summands`.
    Memoized per algebra on both modules' bytes.  Modules over different
    algebras raise ValueError.
    """
    if m.algebra is not n.algebra:
        raise ValueError("modules over different algebras")
    if m.dim_vector != n.dim_vector:
        return False, None
    if m.is_zero:
        return True, zero_morphism(m, n)

    def decide():
        witness = next((b for b in hom_basis(m, n).basis if b.is_iso()), None)
        if witness is None and len(_decompose_rec(m)) > 1 and match_summands(
                decompose(m), decompose(n)):
            witness = assemble(m, n, summands(m), summands(n))[0].verify()
            if not witness.is_iso():
                raise CertificateError("map assembled from matched summands is not invertible")
        return None if witness is None else witness.blocks

    blocks = m.algebra.memo("is_isomorphic", (m.key(), n.key()), decide)
    return (False, None) if blocks is None else (True, Morphism(m, n, dict(blocks)))


def _find_isomorphism(m: Representation, n: Representation):
    """An invertible map m -> n or None, searched over one vector per line
    of Hom(m, n) when that is exhaustive, else the basis and 128 draws.

    The candidates go in batches (`_coeff_batches`).  Per batch, `HomSpace.stack`
    builds their blocks and one stacked rank test per vertex drops the
    candidates that are not invertible there, so the first survivor is
    the first hit of a candidate-by-candidate search.  That hit is rebuilt
    by `HomSpace.element` and certified by `is_iso`.  Different dimension
    vectors and Hom(m, n) = 0 give None at once.
    """
    if m.dim_vector != n.dim_vector:
        return None
    hs = hom_basis(m, n)
    if hs.dim == 0:
        return None
    f = m.field
    coeffs, exhaustive = coeff_vectors(f, hs.dim, tries=128)
    for batch in _coeff_batches(coeffs, exhaustive, hs.dim):
        stacks = hs.stack(batch)
        alive = np.arange(len(batch))
        for v, d in m.dims.items():
            if d and alive.size:
                alive = alive[exactla.rank_stack(f, stacks[v][alive]) == d]
        if alive.size:
            hit = hs.element(batch[alive[0]])
            if not hit.is_iso():
                raise CertificateError("the stacked rank test passed a map that is not invertible")
            return hit
    return None


def _coeff_batches(coeffs, exhaustive: bool, h: int):
    """The rows of `coeff_vectors(f, h)` as int64 arrays, in batches that
    grow fourfold.  Exhaustive: slices of the array, from 16 rows.  Sampled:
    the h unit vectors as one batch, then the draws from 8 on, taken
    lazily, as each draw costs h calls to `randrange` and a hit usually
    comes early."""
    if exhaustive:
        rows = np.asarray(coeffs, dtype=np.int64)
        at, size = 0, 16
        while at < len(rows):
            yield rows[at : at + size]
            at, size = at + size, 4 * size
        return
    draws = iter(coeffs)
    yield np.array(list(islice(draws, h)), dtype=np.int64)
    size = 8
    while batch := list(islice(draws, size)):
        yield np.array(batch, dtype=np.int64)
        size *= 4


def summands(m: Representation):
    """[(piece, inclusion, projection)]: the pieces of `_decompose_rec` with
    their inclusions, and as projections the row blocks of the inverse, at
    each vertex, of the inclusions side by side.  Inclusions that do not
    split m raise CertificateError."""
    parts = _decompose_rec(m)
    projs = [{} for _ in parts]
    for v in m.algebra.quiver.vertices if parts else ():
        inv = exactla.invert(m.field, np.concatenate([i.blocks[v] for _, i in parts], axis=1))
        if inv is None:
            raise CertificateError("summand inclusions do not split the module")
        for proj, rows in zip(projs, np.split(inv, np.cumsum([x.dims[v] for x, _ in parts]))):
            proj[v] = rows
    return [(x, incl, Morphism(m, x, proj)) for (x, incl), proj in zip(parts, projs)]


def assemble(m: Representation, n: Representation, left, right):
    """(f: m -> n, g: n -> m) from `summands` triples of m (left) and of n
    (right): each piece x is paired with the first unused piece y that is
    isomorphic to it, w: x -> y the `is_isomorphic` witness, and f sums
    incl_y w proj_x, g sums incl_x w^-1 proj_y.  Callers certify f and g."""
    f, g = zero_morphism(m, n), zero_morphism(n, m)
    used = set()
    for x, incl_x, proj_x in left:
        for j, (y, incl_y, proj_y) in enumerate(right):
            if j not in used:
                ok, w = is_isomorphic(x, y)
                if ok:
                    break
        else:
            raise CertificateError("a summand has no isomorphic partner")
        used.add(j)
        f = f.add(incl_y.compose(w).compose(proj_x))
        g = g.add(incl_x.compose(w.inverse()).compose(proj_y))
    return f, g


def match_summands(left, right) -> bool:
    """Whether two summand multisets, as `decompose` returns them, are
    equal: each class of left pairs with an unused class of right of the
    same multiplicity and an isomorphic module (Krull-Schmidt)."""
    if len(left) != len(right):
        return False
    used = [False] * len(right)
    for part, mult in left:
        for j, (other, omult) in enumerate(right):
            if not used[j] and mult == omult and is_isomorphic(part, other)[0]:
                used[j] = True
                break
        else:
            return False
    return True


def _invariant_battery(m: Representation):
    tops = tuple(sorted(top_dims(m).items()))
    rads = tuple(rr.shape[0] for rr in radical_rows(m).values())
    endo = hom_dim(m, m)
    return (m.dim_vector, tops, rads, endo)


def _fitting_split(m: Representation, g: Morphism):
    """Split m = ker(g^N) + im(g^N), as (part, inclusion) pairs, when both parts are nonzero.

    At each vertex v, g is squared up to the power N = 2^k >= d_v, where
    the kernel and image of the powers of a d_v x d_v matrix have settled.
    """
    f = m.field
    powered = {}
    for v, block in g.blocks.items():
        for _ in range((m.dims[v] - 1).bit_length()):
            block = f.matmul(block, block)
        powered[v] = block
    # g invertible or nilpotent (kernel 0 or all of m) is read off the ranks
    ker_dim = sum(m.dims[v] - exactla.rank_of(f, powered[v]) for v in powered)
    if ker_dim == 0 or ker_dim == m.total_dim:
        return None
    gm = Morphism(m, m, powered)
    ker, img = kernel_subrep(gm), image_subrep(gm)
    if ker[0].total_dim + img[0].total_dim != m.total_dim:
        raise CertificateError("Fitting parts do not add up to the module")
    return ker, img


def decompose(m: Representation):
    """Indecomposable summands with multiplicities, canonically ordered.

    Summands are split off by Fitting's lemma: m = ker(g^N) + im(g^N) for
    shifts g - lam of sampled endomorphisms g.  One stacked rank test per
    vertex of the shifts' powers (`_shift_fitting_kernels`) keeps only the
    shifts that split, so `_fitting_split` runs only on those.  When no sampled shift splits,
    the certificate is S = End(m) / rad, with End(m) a `StructureAlgebra`
    on the coordinates of the hom basis: m is indecomposable exactly when
    S is a field.  S = GF(p) is read off the radical's dimension.  A
    commutative S splits into as many fields as its Frobenius fixed space
    has dimensions, and a fixed vector outside the scalars gives a split.
    A noncommutative S means m is decomposable, and one search over End(m)
    finds the split: over every line when `coeff_vectors` is exhaustive,
    where the line of a nontrivial idempotent splits, otherwise over
    seeded draws.  Pieces and their inclusions are memoized per algebra
    (`_decompose_rec`), so a summand met again is not split again.
    """
    if m.is_zero:
        return []
    # group by isomorphy
    classes = []
    for piece, _ in _decompose_rec(m):
        for cls in classes:
            ok, _ = is_isomorphic(cls[0], piece)
            if ok:
                cls[1] += 1
                break
        else:
            classes.append([piece, 1])
    classes.sort(key=lambda c: (c[0].total_dim, c[0].dim_vector, c[0].key()))
    return [(rep_, mult) for rep_, mult in classes]


def _decompose_rec(m: Representation):
    """A fresh list of the indecomposable pieces of m in split order, each
    with its inclusion into m, memoized per algebra on the module's bytes."""
    if m.is_zero:
        return []
    stored = m.algebra.memo("decompose", m.key(), lambda: tuple(_split_pieces(m)))
    return [(piece, Morphism(piece, m, dict(blocks))) for piece, blocks in stored]


def _split_pieces(m: Representation):
    """The uncached split of `_decompose_rec` for nonzero m: (piece,
    inclusion blocks) pairs."""
    whole = [(m, identity_morphism(m).blocks)]
    if m.total_dim == 1:
        return whole
    f = m.field
    ends = hom_basis(m, m)
    if ends.dim == 1:
        return whole
    cands = [ends.element(c) for c in sampled_coeff_vectors(f, ends.dim, 0, 8)]
    lambdas = list(f.elements())
    split = _first_fitting_split(m, cands, lambdas)
    if split is None:
        # certification: m is indecomposable iff S = End(m) / rad is a field
        end = _end_algebra(ends)
        rad = end.radical()
        if ends.dim - rad.shape[0] == 1:
            return whole  # S = GF(p)
        s = end.quotient(rad)
        if s.is_commutative():
            # S is a product of fields, one per dimension of the Frobenius fixed space
            fixed = exactla.kernel(f, f.sub(s.frobenius(), f.eye(s.dim)))
            if fixed.shape[0] <= 1:
                return whole
            # a fixed vector outside the span of 1 lifts to a deterministic split
            lifted = f.zeros((len(fixed), ends.dim))
            lifted[:, s.basis_cols] = fixed
            split = _first_fitting_split(m, [ends.element(c) for c in lifted], lambdas)
            if split is None:
                raise CertificateError("commutative split vector found no splitting")
        else:
            # noncommutative S: m is decomposable.  An exhaustive search lists
            # every line of End(m), and the line of a nontrivial idempotent
            # splits at lam = 0, so only a sampled search can miss
            coeffs, exhaustive = coeff_vectors(f, ends.dim, seed=1000, tries=512)
            split = _first_fitting_split(m, [ends.element(c) for c in coeffs], lambdas)
            if split is None:
                raise (CertificateError if exhaustive else RuntimeError)(
                    "module is provably decomposable but no splitting was found"
                )
    return [
        (piece, incl.compose(inner).blocks)
        for part, incl in split
        for piece, inner in _decompose_rec(part)
    ]


# bytes a temporary of the stacked searches below may take
_STACK_BYTES = exactla.STACK_BYTES


def _shift_fitting_kernels(m: Representation, cands, lambdas) -> np.ndarray:
    """kernels[i, j] = dim ker (cands[i] - lambdas[j] * 1)^N for large N.

    Every shift is raised, at each vertex v, to a power 2^k >= d_v by
    batched squaring, where the kernels of the powers of a d_v x d_v
    matrix have settled; one stacked row reduction per vertex and chunk
    then ranks the powers.  Chunks keep each temporary under
    _STACK_BYTES.
    """
    p = m.field.char
    lam = np.asarray(lambdas, dtype=np.int64)
    kernels = np.zeros(len(cands) * lam.size, dtype=np.int64)
    for v in m.algebra.quiver.vertices:
        d = m.dims[v]
        if d == 0:
            continue
        blocks = np.stack([g.blocks[v] for g in cands])
        eye = np.eye(d, dtype=np.int64)
        chunk = max(1, _STACK_BYTES // (8 * d * d))
        for start in range(0, kernels.size, chunk):
            k = np.arange(start, min(start + chunk, kernels.size))
            powers = blocks[k // lam.size] - lam[k % lam.size, None, None] * eye
            for _ in range((d - 1).bit_length()):
                powers = (powers @ powers) % p
            _, ranks = exactla.rref_stack_fp(powers, p)
            kernels[k] += d - ranks
    return kernels.reshape(len(cands), lam.size)


def _first_fitting_split(m: Representation, cands, lambdas):
    """First Fitting split of m by a shift g - lam, candidates outermost.

    A shift splits m exactly when the kernel of its high powers is
    neither 0 (invertible) nor all of m (nilpotent); the stacked kernel
    ranks skip every other shift without changing which split comes
    first.
    """
    f = m.field
    kernels = _shift_fitting_kernels(m, cands, lambdas)
    splits = (kernels > 0) & (kernels < m.total_dim)
    ident = identity_morphism(m)
    for i, g in enumerate(cands):
        for j in np.flatnonzero(splits[i]):
            split = _fitting_split(m, g.add(ident.scale(f.canon(-lambdas[j]))))
            if split is not None:
                return split
    return None


def _end_algebra(ends: HomSpace) -> StructureAlgebra:
    """End(m) on the coordinates of its hom basis.

    The products b_i b_j are formed by one stacked matrix product per
    vertex, in chunks of rows i that keep each temporary under
    _STACK_BYTES, and read back by `HomSpace.coords`, which checks that
    every product lies in the hom space.
    """
    m = ends.domain
    p = m.field.char
    e = ends.dim
    verts = m.algebra.quiver.vertices
    blocks = {v: np.stack([b.blocks[v] for b in ends.basis]) for v in verts}
    table = np.zeros((e, e, e), dtype=np.int64)
    chunk = max(1, _STACK_BYTES // (8 * e * ends._coord_rows[0].shape[1]))
    for start in range(0, e, chunk):
        rows = slice(start, start + chunk)
        prods = [(blocks[v][rows, None] @ blocks[v]) % p for v in verts]
        flat = np.concatenate([b.reshape(b.shape[0] * e, -1) for b in prods], axis=1)
        table[rows] = ends.coords(flat).reshape(-1, e, e)
    unit = ends.coords_of([identity_morphism(m)])[0]
    return StructureAlgebra(m.field, table, unit)


def _morph_eq(a: Morphism, b: Morphism) -> bool:
    f = a.domain.field
    return all(_eq(f, a.blocks[v], b.blocks[v]) for v in a.blocks)
