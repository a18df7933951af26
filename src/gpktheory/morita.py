"""Bimodules over pairs of path algebras and stable equivalences of Morita type.

A bimodule for the pair (B, A) -- left action of B, right action of A -- is
stored as a left module over the tensor presentation of B with the opposite
of A: a quiver with one vertex per vertex pair, one arrow per (B-arrow,
A-vertex) carrying the left action, one arrow per (B-vertex, reversed
A-arrow) carrying the right action, and relations lifting both factors'
relations together with the commutation squares.  Validating a
representation over that presentation is exactly the statement that both
actions satisfy their own algebra's relations and commute with each other.

The algebra of that presentation is built from the factors, not by
saturating its ideal.  Its basis is b_i (x) o_j, with o the opposite of A
saturated on its own reversed quiver, and each element is named by the least
shuffle of the two lifted paths: the normal form the saturation would pick.
Its table is the Kronecker product of the factors' tables.  A certificate
checks that every arrow is a basis element, every basis path is the product
of its arrows, and every relation of the presentation vanishes in the table.

On top of that sit the balanced tensor product (a cokernel of the relation
rows m*a (x) x - m (x) a*x), the two duals Hom into either regular module
(the right-hand one, like the right module, is the left-hand one of the
transpose: the same bimodule read over the opposite pair), and the
certification entry points: Frobenius bimodules, stable equivalence
of Morita type with explicit projective complements, unit/counit defect
projectivity, and a side-by-side invariant comparison for two algebras.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .exactla import CertificateError
from .gorenstein import GPCatalog, gp_catalog
from .ktheory import k0_gorenstein, k1_gorenstein
from .presentation import (
    FiniteDimAlgebra,
    Path,
    Quiver,
    RelationElem,
    _path_key,
    build_algebra,
    opposite,
)
from .rep import (
    Morphism,
    Representation,
    _right_mult_on_projectives,
    block_diag,
    decompose,
    direct_sum,
    hom_basis,
    hom_family_rep,
    is_isomorphic,
    is_projective,
    projective,
    quotient_by_rows,
    zero_rep,
)


class AlgebraMismatch(ValueError):
    """The algebras of the operands do not line up."""


# ---------------------------------------------------------------------------
# the tensor presentation


def _tv(u: str, v: str) -> str:
    return f"{u}.{v}"


def _lname(label: str, v: str) -> str:
    return f"{label}@{v}"


def _rname(u: str, label: str) -> str:
    return f"{u}~{label}"


def _lift(p: Path, w: str, left: bool) -> Path:
    """A path of one factor lifted to vertex w of the other: with left set, a
    path of the left factor acting at right-factor vertex w; otherwise a path
    of the right factor acting at left-factor vertex w."""
    if left:
        return Path(_tv(p.source, w), _tv(p.target, w), tuple(_lname(x, w) for x in p.arrows))
    return Path(_tv(w, p.source), _tv(w, p.target), tuple(_rname(w, x) for x in p.arrows))


def _tensor_presentation(b: FiniteDimAlgebra, op: FiniteDimAlgebra):
    """The quiver and relations of b (x) op: vertices u.v, the left-action
    copies of b's arrows and the right-action copies of op's arrows, both
    factors' relations (one copy per vertex of the other factor) and a
    commutation square for every arrow pair."""
    bvs, ovs = b.quiver.vertices, op.quiver.vertices
    verts = [_tv(u, v) for u in bvs for v in ovs]
    lifts = [_lift(Path(x.source, x.target, (x.label,)), v, True)
             for x in b.quiver.arrows for v in ovs]
    lifts += [_lift(Path(x.source, x.target, (x.label,)), u, False)
              for u in bvs for x in op.quiver.arrows]
    qt = Quiver.make(verts, [(p.arrows[0], p.source, p.target) for p in lifts])
    rels = [RelationElem(tuple((c, _lift(p, v, True)) for c, p in r.terms))
            for r in b.relations for v in ovs]
    rels += [RelationElem(tuple((c, _lift(p, u, False)) for c, p in r.terms))
             for r in op.relations for u in bvs]
    one, minus = b.field.canon(1), b.field.canon(-1)
    for beta in b.quiver.arrows:
        for al in op.quiver.arrows:
            src = _tv(beta.source, al.source)
            tgt = _tv(beta.target, al.target)
            right_first = (_rname(beta.source, al.label), _lname(beta.label, al.target))
            left_first = (_lname(beta.label, al.source), _rname(beta.target, al.label))
            rels.append(RelationElem(
                ((one, Path(src, tgt, right_first)), (minus, Path(src, tgt, left_first)))
            ))
    return qt, rels


def _least_shuffle(bq: Quiver, p: Path, oq: Quiver, q: Path) -> Path:
    """The least path of the tensor quiver whose left arrows spell p and whose
    right arrows spell q: at each step the smaller of the two next lifted
    labels.  Every shuffle of the two is the same element modulo the
    commutation squares; the least one is the normal form the saturation of
    the presentation keeps."""
    u, v = p.source, q.source
    i = j = 0
    labels = []
    while i < p.length or j < q.length:
        left = _lname(p.arrows[i], v) if i < p.length else None
        right = _rname(u, q.arrows[j]) if j < q.length else None
        if right is None or (left is not None and left < right):
            labels.append(left)
            u = bq.arrow(p.arrows[i]).target
            i += 1
        else:
            labels.append(right)
            v = oq.arrow(q.arrows[j]).target
            j += 1
    return Path(_tv(p.source, q.source), _tv(p.target, q.target), tuple(labels))


def _certify_presentation(t: FiniteDimAlgebra):
    """Raise CertificateError unless t's table satisfies t's presentation:
    every arrow of the quiver is a basis element, every longer basis path is
    the product of its arrows, and every relation multiplies out to zero.

    Basis paths are checked in length order, so a shorter path's product is
    read off its own basis coordinates once it has been checked.
    """
    f = t.field
    eye = f.eye(t.dim)
    for ar in t.quiver.arrows:
        if ar.label not in t.arrow_index:
            raise CertificateError(f"arrow {ar.label} is not a basis element")

    def element(p: Path):
        k = t.index.get(p)
        return eye[k] if k is not None else arrow_product(p)

    def arrow_product(p: Path):
        # the last arrow times the product of the others
        last = p.arrows[-1]
        head = Path(p.source, t.quiver.arrow(last).source, p.arrows[:-1])
        left = t.structure[t.arrow_index[last]]
        k = t.index.get(head)
        return left[k] if k is not None else t._canon(element(head) @ left)

    for k, p in enumerate(t.basis):
        if p.length > 1 and (arrow_product(p) != eye[k]).any():
            raise CertificateError(f"basis path {p} is not the product of its arrows")
    for r in t.relations:
        if t._canon(sum(f.canon(c) * element(p) for c, p in r.terms)).any():
            raise CertificateError(f"relation {r} does not vanish in the table")


def tensor_algebra(b: FiniteDimAlgebra, a: FiniteDimAlgebra) -> FiniteDimAlgebra:
    """The algebra whose left modules are (b, a)-bimodules.

    Its quiver and relations are the tensor presentation of b with the
    opposite of a (`_tensor_presentation`), which `Representation` checks
    bimodules against.  Its basis and table come straight from the factors,
    without saturating that presentation: the right factor o is a's opposite
    saturated on the reversed quiver, so its basis holds the normal forms the
    saturation of the whole presentation would pick, and b_i (x) o_j is
    named by the least shuffle of the two lifted paths (`_least_shuffle`),
    in (length, source, labels) order.  The table is the Kronecker product of
    the factors' tables, (b (x) o)(b' (x) o') = bb' (x) oo'.
    Construction runs certify(), and `_certify_presentation` checks that the
    arrows are basis elements, every basis path is the product of its
    arrows, and every relation vanishes.  The result is memoized in b's
    per-algebra memo, keyed by a itself: algebras define no __eq__, so the
    key hashes by identity.
    """
    return b.memo("tensor", a, lambda: _tensor_algebra(b, a))


def _tensor_algebra(b: FiniteDimAlgebra, a: FiniteDimAlgebra) -> FiniteDimAlgebra:
    if b.field.char != a.field.char:
        raise AlgebraMismatch("the factors are defined over different fields")
    f = b.field
    op = opposite(a)
    qt, rels = _tensor_presentation(b, op)
    # not op itself: its index-preserving reversed basis can differ from the
    # normal forms on the reversed quiver where a has a binomial relation
    o = build_algebra(op.quiver, op.relations, f, max_len=a.max_len)
    names = [_least_shuffle(b.quiver, p, o.quiver, q) for p in b.basis for q in o.basis]
    order = sorted(range(len(names)), key=lambda k: _path_key(qt, names[k]))
    e = len(names)
    rank = np.empty(e, dtype=np.int64)
    rank[order] = np.arange(e)
    # the Kronecker product of the two tables, written straight into basis
    # order at the products of nonzero constants: dense, it costs
    # dim(b)^3 dim(o)^3 products
    i, k, m = np.nonzero(b.structure)
    j, l, n = np.nonzero(o.structure)

    def at(x, y):
        return rank[x[:, None] * o.dim + y]

    prods = np.multiply.outer(b.structure[i, k, m], o.structure[j, l, n])
    table = f.zeros((e, e, e))
    table[at(i, j), at(k, l), at(m, n)] = prods % f.char
    basis = [names[c] for c in order]
    t = FiniteDimAlgebra(
        f,
        qt,
        basis,
        table,
        rels,
        max(2, basis[-1].length + 1),
        all(len(r.terms) == 1 for r in rels),
        b.loewy_length + a.loewy_length,
    )
    _certify_presentation(t)
    return t


@functools.cache
def point_algebra(field) -> FiniteDimAlgebra:
    """The one-vertex arrowless algebra; its modules are plain vector spaces."""
    return build_algebra(Quiver.make(("pt",), ()), [], field)


# ---------------------------------------------------------------------------
# bimodules


@dataclass
class Bimodule:
    """A (left, right)-bimodule, stored over the tensor presentation."""

    left: FiniteDimAlgebra
    right: FiniteDimAlgebra
    rep: Representation

    def __post_init__(self):
        if self.rep.algebra is not tensor_algebra(self.left, self.right):
            raise AlgebraMismatch(
                "the representation is not over the tensor presentation "
                "of the stated pair"
            )

    @property
    def dim(self) -> int:
        return self.rep.total_dim

    @property
    def is_zero(self) -> bool:
        return self.rep.is_zero

    def component_dims(self) -> dict:
        return {
            (u, v): self.rep.dims[_tv(u, v)]
            for u in self.left.quiver.vertices
            for v in self.right.quiver.vertices
        }

    def describe(self) -> str:
        comps = ", ".join(
            f"({u},{v}): {d}" for (u, v), d in sorted(self.component_dims().items())
        )
        return f"bimodule of dimension {self.dim} with components {comps}"


def regular_bimodule(a: FiniteDimAlgebra) -> Bimodule:
    """The algebra itself as a bimodule over (a, a)."""
    t = tensor_algebra(a, a)
    idx = {}
    for i, p in enumerate(a.basis):
        idx.setdefault((p.target, p.source), []).append(i)
    dims = {}
    for u in a.quiver.vertices:
        for v in a.quiver.vertices:
            dims[_tv(u, v)] = len(idx.get((u, v), []))
    maps = {}
    for beta in a.quiver.arrows:
        bi = a.arrow_index[beta.label]
        for v in a.quiver.vertices:
            src = idx.get((beta.source, v), [])
            tgt = idx.get((beta.target, v), [])
            maps[_lname(beta.label, v)] = a.action(bi, src, tgt)
    op = opposite(a)
    for u in a.quiver.vertices:
        for al in op.quiver.arrows:
            ai = a.arrow_index[al.label]
            src = idx.get((u, al.source), [])
            tgt = idx.get((u, al.target), [])
            maps[_rname(u, al.label)] = a.action(ai, src, tgt, "right")
    return Bimodule(a, a, Representation(t, dims, maps, check=True))


def bimodule_from_module(x: Representation) -> Bimodule:
    """View a left module as a bimodule with trivial right point action."""
    a = x.algebra
    pt = point_algebra(a.field)
    t = tensor_algebra(a, pt)
    dims = {_tv(v, "pt"): x.dims[v] for v in a.quiver.vertices}
    maps = {_lname(arw.label, "pt"): x.maps[arw.label] for arw in a.quiver.arrows}
    return Bimodule(a, pt, Representation(t, dims, maps, check=True))


def module_from_bimodule(m: Bimodule) -> Representation:
    """Forget the trivial point action of a (b, point)-bimodule."""
    if m.right.quiver.vertices != ("pt",):
        raise AlgebraMismatch("the right algebra is not the point algebra")
    return _column_module(m, "pt")


def left_module_of(m: Bimodule) -> Representation:
    """Forget the right action; the left arrows act blockwise."""
    b, a = m.left, m.right
    avs = a.quiver.vertices
    dims = {
        u: sum(m.rep.dims[_tv(u, v)] for v in avs) for u in b.quiver.vertices
    }
    maps = {
        beta.label: block_diag(b.field, [m.rep.maps[_lname(beta.label, v)] for v in avs])
        for beta in b.quiver.arrows
    }
    return Representation(b, dims, maps, check=True)


def right_module_of(m: Bimodule) -> Representation:
    """Forget the left action; a module over the opposite of the right algebra."""
    return left_module_of(transpose(m))


def transpose(m: Bimodule) -> Bimodule:
    """The (b, a)-bimodule m as an (a^op, b^op)-bimodule.

    The same spaces and matrices under new names: the component at (u, v)
    becomes the one at (v, u), the left action of an arrow of b at v becomes
    its right action at v, and the right action of an arrow of a^op at u
    becomes its left action at u.  Transposing twice gives m back, since
    opposite(opposite(x)) is x.
    """
    b, a = m.left, m.right
    left, right = opposite(a), opposite(b)
    dims = {_tv(v, u): d for (u, v), d in m.component_dims().items()}
    maps = {
        _rname(v, beta.label): m.rep.maps[_lname(beta.label, v)]
        for beta in b.quiver.arrows
        for v in a.quiver.vertices
    }
    maps.update(
        (_lname(al.label, u), m.rep.maps[_rname(u, al.label)])
        for al in left.quiver.arrows
        for u in b.quiver.vertices
    )
    rep = Representation(tensor_algebra(left, right), dims, maps, check=True)
    return Bimodule(left, right, rep)


# ---------------------------------------------------------------------------
# balanced tensor products


def _kron(f, x, y):
    """The Kronecker product x (x) y mod p, by one broadcast product: entry
    (i, k, j, l) of the 4-d product is x[i, j] * y[k, l], which the reshape
    puts at (i * rows(y) + k, j * cols(y) + l)."""
    (rx, cx), (ry, cy) = x.shape, y.shape
    return (x[:, None, :, None] * y[None, :, None, :]).reshape(rx * ry, cx * cy) % f.char


def tensor_bimodules(m: Bimodule, n: Bimodule) -> Bimodule:
    """The balanced tensor product of m over (B, A) with n over (A, C).

    Formed inside the outer tensor sum Y(u, c) = sum over v of
    M(u, v) (x) N(v, c) as the quotient by the rows m*a (x) x - m (x) a*x,
    one per inner arrow and basis pair; the quotient basis is the canonical
    complement of the reduced rows, so the dimension is dim(Y) minus the
    row rank, and the quotient is re-validated against all relations of the
    (B, C) tensor presentation.
    """
    if m.right is not n.left:
        raise AlgebraMismatch("inner algebras of the tensor factors differ")
    b, a, c = m.left, m.right, n.right
    f = b.field
    t = tensor_algebra(b, c)
    avs = a.quiver.vertices

    def dm(u, v):
        return m.rep.dims[_tv(u, v)]

    def dn(v, ch):
        return n.rep.dims[_tv(v, ch)]

    # Y(u, ch) is the sum over inner vertices v, in quiver order, of
    # M(u, v) (x) N(v, ch); each action map acts summand by summand
    ydims = {
        _tv(u, ch): sum(dm(u, v) * dn(v, ch) for v in avs)
        for u in b.quiver.vertices
        for ch in c.quiver.vertices
    }
    ymaps = {
        _lname(beta.label, ch): block_diag(f, [
            _kron(f, m.rep.maps[_lname(beta.label, v)], f.eye(dn(v, ch))) for v in avs
        ])
        for beta in b.quiver.arrows
        for ch in c.quiver.vertices
    }
    ymaps.update(
        (_rname(u, ga.label), block_diag(f, [
            _kron(f, f.eye(dm(u, v)), n.rep.maps[_rname(v, ga.label)]) for v in avs
        ]))
        for u in b.quiver.vertices
        for ga in c.quiver.arrows
    )
    y = Representation(t, ydims, ymaps, check=True)

    # one relation column block m*a (x) x - m (x) a*x per inner arrow a: w -> v,
    # nonzero only in the summands at w and at v
    rows = {}
    for u in b.quiver.vertices:
        for ch in c.quiver.vertices:
            pieces = []
            for al in a.quiver.arrows:
                w, v = al.source, al.target
                s = dm(u, v) * dn(w, ch)
                if s == 0:
                    continue
                blocks = {x: f.zeros((dm(u, x) * dn(x, ch), s)) for x in avs}
                blocks[w] = _kron(f, m.rep.maps[_rname(u, al.label)], f.eye(dn(w, ch)))
                blk = _kron(f, f.eye(dm(u, v)), n.rep.maps[_lname(al.label, ch)])
                blocks[v] = f.add(blocks[v], f.scale(f.canon(-1), blk))
                pieces.append(np.vstack(list(blocks.values())).T)
            if pieces:
                rows[_tv(u, ch)] = np.vstack(pieces)
    q, _ = quotient_by_rows(y, rows)
    out = Representation(t, q.dims, q.maps, check=True)
    return Bimodule(b, c, out)


def tensor(m: Bimodule, x: Representation) -> Representation:
    """The left module m (x) x for a left module x over m's right algebra."""
    if x.algebra is not m.right:
        raise AlgebraMismatch("the module is not over the bimodule's right algebra")
    return module_from_bimodule(tensor_bimodules(m, bimodule_from_module(x)))


# ---------------------------------------------------------------------------
# duals and Frobenius bimodules


def _column_module(m: Bimodule, v: str) -> Representation:
    """The left-algebra module on the right-vertex-v slice of the bimodule."""
    b = m.left
    dims = {u: m.rep.dims[_tv(u, v)] for u in b.quiver.vertices}
    maps = {a.label: m.rep.maps[_lname(a.label, v)] for a in b.quiver.arrows}
    return Representation(b, dims, maps, check=True)


def left_dual(m: Bimodule) -> Bimodule:
    """Left-linear maps of the bimodule into the left regular module.

    The component at (v, u) is Hom over the left algebra from the v-column
    of m to the projective at u; the result is a bimodule over
    (right algebra, left algebra).
    """
    b, a = m.left, m.right
    t = tensor_algebra(a, b)
    cols = {v: _column_module(m, v) for v in a.quiver.vertices}
    projs = {u: projective(b, u) for u in b.quiver.vertices}
    homs = {
        _tv(v, u): hom_basis(cols[v], projs[u])
        for v in a.quiver.vertices
        for u in b.quiver.vertices
    }
    actions = {}
    for al in a.quiver.arrows:
        w, v = al.source, al.target
        for u in b.quiver.vertices:
            right_act = Morphism(
                cols[v],
                cols[w],
                {u2: m.rep.maps[_rname(u2, al.label)] for u2 in b.quiver.vertices},
            )
            actions[_lname(al.label, u)] = (
                _tv(w, u),
                _tv(v, u),
                lambda g, ra=right_act: g.compose(ra),
            )
    bop = opposite(b)
    for v in a.quiver.vertices:
        for be in bop.quiver.arrows:
            u1, u0 = be.source, be.target
            rho = _right_mult_on_projectives(projs[u1], projs[u0], be.label)
            actions[_rname(v, be.label)] = (
                _tv(v, u1),
                _tv(v, u0),
                lambda g, r=rho: r.compose(g),
            )
    return Bimodule(a, b, hom_family_rep(t, homs, actions))


def right_dual(m: Bimodule) -> Bimodule:
    """Right-linear maps of the bimodule into the right regular module.

    The left dual of the transpose, transposed back: a bimodule over
    (right algebra, left algebra), comparable with left_dual.
    """
    return transpose(left_dual(transpose(m)))


@dataclass
class FrobeniusReport:
    dimension: int
    left_projective: bool
    right_projective: bool
    duals_isomorphic: object  # bool, or None when not reached
    passed: bool
    reason: str


def check_frobenius_bimodule(m: Bimodule) -> FrobeniusReport:
    """Projectivity on both sides plus agreement of the two duals."""
    if m.is_zero:
        return FrobeniusReport(0, True, True, None, False, "zero bimodule")
    lp = is_projective(left_module_of(m))
    rp = is_projective(right_module_of(m))
    if not lp or not rp:
        side = "left" if not lp else "right"
        return FrobeniusReport(
            m.dim, lp, rp, None, False, f"not projective as a {side} module"
        )
    ok, _ = is_isomorphic(left_dual(m).rep, right_dual(m).rep)
    reason = "" if ok else "the two duals are not isomorphic"
    return FrobeniusReport(m.dim, lp, rp, ok, ok, reason)


# ---------------------------------------------------------------------------
# stable equivalences of Morita type


@dataclass
class SemtReport:
    passed: bool
    p: object  # Bimodule complement of n (x) m, or None
    q: object  # Bimodule complement of m (x) n, or None
    product_nm: Bimodule
    product_mn: Bimodule
    reason: str

    def describe(self) -> str:
        if self.passed:
            return (
                "stable equivalence of Morita type: complements of dimension "
                f"{self.p.dim} and {self.q.dim}, both projective"
            )
        return f"not a stable equivalence of Morita type: {self.reason}"


def _strip_regular(t: Bimodule):
    """Split one copy of the regular bimodule off t; None when impossible."""
    reg = regular_bimodule(t.left)
    remaining = [[r, k] for r, k in decompose(t.rep)]
    for rp, rk in decompose(reg.rep):
        for slot in remaining:
            ok, _ = is_isomorphic(slot[0], rp)
            if ok and slot[1] >= rk:
                slot[1] -= rk
                break
        else:
            return None
    return [r for r, k in remaining for _ in range(k)]


def _complement_bimodule(a: FiniteDimAlgebra, parts) -> Bimodule:
    t = tensor_algebra(a, a)
    rep = direct_sum(parts)[0] if parts else zero_rep(t)
    return Bimodule(a, a, rep)


def check_semt(m: Bimodule, n: Bimodule) -> SemtReport:
    """Certify that (m, n) induce a stable equivalence of Morita type.

    Both products are computed, one copy of the relevant regular bimodule
    is split off each, and the complements are certified projective over
    their tensor presentations; the complements are returned as witnesses.
    """
    if m.left is not n.right or m.right is not n.left:
        raise AlgebraMismatch("the bimodules are not over opposite pairs")
    nm = tensor_bimodules(n, m)
    mn = tensor_bimodules(m, n)
    complements = []
    for prod, label in ((nm, "n (x) m"), (mn, "m (x) n")):
        parts = _strip_regular(prod)
        if parts is None:
            reason = (
                f"the product {label} has no regular-bimodule summand "
                f"(components {sorted(prod.component_dims().items())})"
            )
        elif (bad := next((x for x in parts if not is_projective(x)), None)) is not None:
            reason = (
                f"complement summand of {label} with dims "
                f"{bad.dim_vector} is not projective"
            )
        else:
            complements.append(_complement_bimodule(prod.left, parts))
            continue
        return SemtReport(False, None, None, nm, mn, reason)
    return SemtReport(True, *complements, nm, mn, "")


@dataclass
class AdjunctionData:
    """A certified pair with its two projective complement bimodules."""

    m: Bimodule
    n: Bimodule
    p: Bimodule  # n (x) m is regular plus p over the right algebra
    q: Bimodule  # m (x) n is regular plus q over the left algebra

    def unit_defect(self, x: Representation) -> Representation:
        """The cokernel of the unit at x, realized as p (x) x."""
        return tensor(self.p, x)

    def counit_defect(self, y: Representation) -> Representation:
        """The kernel of the counit at y, realized as q (x) y."""
        return tensor(self.q, y)


def adjunction_data(m: Bimodule, n: Bimodule) -> AdjunctionData:
    report = check_semt(m, n)
    if not report.passed:
        raise ValueError(report.describe())
    return AdjunctionData(m, n, report.p, report.q)


@dataclass
class UnitCounitReport:
    passed: bool
    entries: list
    reason: str


def check_unit_counit_pd(m: Bimodule, n: Bimodule, samples) -> UnitCounitReport:
    """Unit and counit defects on sample modules: split off and projective.

    For a sample x over the right algebra the round trip n (x) m (x) x must
    be x plus the unit defect p (x) x, and that defect must be projective
    (projective dimension zero); dually for samples over the left algebra
    with the counit defect q (x) y.  Samples over any other algebra raise
    AlgebraMismatch.
    """
    data = adjunction_data(m, n)
    # (side, sample algebra, first factor, second factor, defect)
    sides = (
        ("unit", m.right, m, n, data.unit_defect),
        ("counit", m.left, n, m, data.counit_defect),
    )
    entries = []
    for x in samples:
        matched = [side for side in sides if x.algebra is side[1]]
        if not matched:
            raise AlgebraMismatch("sample module is over neither algebra of the pair")
        for side, _, first, second, defect_of in matched:
            back = tensor(second, tensor(first, x))
            defect = defect_of(x)
            split, _ = is_isomorphic(back, direct_sum([x, defect])[0])
            entries.append(
                {
                    "side": side,
                    "sample_dims": x.dim_vector,
                    "defect_dims": defect.dim_vector,
                    "splits": split,
                    "defect_projective": is_projective(defect),
                }
            )
    bad = [e for e in entries if not (e["splits"] and e["defect_projective"])]
    reason = ""
    if bad:
        e = bad[0]
        reason = (
            f"{e['side']} defect at sample dims {e['sample_dims']}: "
            f"splits={e['splits']}, projective={e['defect_projective']}"
        )
    return UnitCounitReport(not bad, entries, reason)


# ---------------------------------------------------------------------------
# invariant comparison


@dataclass
class InvariantComparison:
    first: FiniteDimAlgebra
    second: FiniteDimAlgebra
    k0: tuple  # group descriptions, or None when the catalog is unsettled
    k1: tuple  # K1Results, or None
    cm: tuple  # catalog verdict strings
    gorenstein: tuple  # (status, dimension) pairs
    k0_equal: object
    k1_equal: object
    cm_equal: object
    gorenstein_equal: object
    all_predicted_equal: bool
    notes: list

    def describe(self) -> str:
        def fmt(x):
            return "unsettled" if x is None else str(x)

        lines = [
            f"{'invariant':<18} {'first':<28} {'second':<28} equal",
            f"{'K0 (stable)':<18} {fmt(self.k0[0]):<28} {fmt(self.k0[1]):<28} "
            f"{fmt(self.k0_equal)}",
            f"{'K1 (stable)':<18} "
            f"{fmt(self.k1[0].group if self.k1[0] else None):<28} "
            f"{fmt(self.k1[1].group if self.k1[1] else None):<28} "
            f"{fmt(self.k1_equal)}",
            f"{'CM verdict':<18} {self.cm[0]:<28} {self.cm[1]:<28} "
            f"{fmt(self.cm_equal)}",
            f"{'Gorenstein':<18} {str(self.gorenstein[0]):<28} "
            f"{str(self.gorenstein[1]):<28} {fmt(self.gorenstein_equal)}",
        ]
        lines.extend(f"note: {x}" for x in self.notes)
        return "\n".join(lines)


@dataclass
class SideInvariants:
    """The stable invariants of one algebra that a comparison looks at."""

    algebra: FiniteDimAlgebra
    catalog: GPCatalog
    k0: object  # group description, or None when the catalog is unsettled
    k1: object  # K1Result, or None


def side_invariants(
    a: FiniteDimAlgebra, dim_cap: int = None, iter_cap: int = 32, seed: int = 0
) -> SideInvariants:
    """GP catalog of a and, when it is settled, K0 and K1 of its stable category."""
    cat = gp_catalog(a, dim_cap=dim_cap, iter_cap=iter_cap, seed=seed)
    if cat.verdict == "Unknown":
        return SideInvariants(a, cat, None, None)
    return SideInvariants(a, cat, k0_gorenstein(a, cat), k1_gorenstein(a, cat))


def compare_sides(first: SideInvariants, second: SideInvariants) -> InvariantComparison:
    """Equality flags of two sides' stable invariants.

    K0, K1 and the CM verdicts are the invariants a stable equivalence of
    Morita type must preserve, and all_predicted_equal records exactly
    their conjunction.  The Gorenstein data is tabulated alongside for
    reference.  An unsettled catalog propagates as None flags.
    """
    sides = (first, second)
    notes = [
        f"catalog of the {which} algebra is unsettled; K-groups omitted"
        for which, side in zip(("first", "second"), sides)
        if side.catalog.verdict == "Unknown"
    ]
    k0 = tuple(side.k0 for side in sides)
    k1 = tuple(side.k1 for side in sides)
    cm = tuple(side.catalog.verdict for side in sides)
    k0_equal = k0[0].same_group(k0[1]) if k0[0] and k0[1] else None
    k1_equal = k1[0].group.same_group(k1[1].group) if k1[0] and k1[1] else None
    cm_equal = None if "Unknown" in cm else cm[0] == cm[1]
    gor = tuple(
        (side.catalog.report.gorenstein_status, side.catalog.report.gorenstein_dim)
        for side in sides
    )
    return InvariantComparison(
        first.algebra,
        second.algebra,
        k0,
        k1,
        cm,
        gor,
        k0_equal,
        k1_equal,
        cm_equal,
        gor[0] == gor[1],
        bool(k0_equal and k1_equal and cm_equal),
        notes,
    )


def compare_invariants(
    a: FiniteDimAlgebra,
    b: FiniteDimAlgebra,
    dim_cap: int = None,
    iter_cap: int = 32,
    seed: int = 0,
) -> InvariantComparison:
    """Side-by-side stable invariants of two algebras with equality flags,
    both sides computed with the same caps and seed (see compare_sides)."""
    return compare_sides(
        side_invariants(a, dim_cap, iter_cap, seed),
        side_invariants(b, dim_cap, iter_cap, seed),
    )
