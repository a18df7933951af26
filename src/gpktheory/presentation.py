"""Quivers with admissible relations and their finite dimensional path algebras.

Composition is written right to left: the product ``b*a`` means "apply a,
then b", so a path stores its arrow labels in application order (first
applied first) and displays them reversed with ``*`` separators.  For an
arrow a: u -> w the product a*x is nonzero only when x ends at u.

A bound path algebra is a StructureAlgebra on its path basis: one dense
(e, e, e) table of structure constants, read by slicing, with a certificate
that checks associativity on every basis triple at every dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactla import CertificateError, FieldSpec, StructureAlgebra


class NotAdmissibleWithinBound(Exception):
    """No nilpotency degree <= max_len was witnessed for the relation ideal."""


class InvalidRelation(ValueError):
    """A relation term is malformed, non-parallel, or outside rad^2."""


_MISSING = object()


@dataclass(frozen=True)
class Arrow:
    label: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    arrows: tuple

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        labels = [a.label for a in self.arrows]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate arrow labels")
        for a in self.arrows:
            if a.source not in self.vertices or a.target not in self.vertices:
                raise ValueError(f"arrow {a.label} has unknown endpoint")

    @classmethod
    def make(cls, vertices, arrows) -> "Quiver":
        return cls(tuple(vertices), tuple(Arrow(*a) for a in arrows))

    def arrow(self, label: str) -> Arrow:
        for a in self.arrows:
            if a.label == label:
                return a
        raise KeyError(f"no arrow {label}")

    def vertex_index(self, v: str) -> int:
        return self.vertices.index(v)

    def arrows_from(self, v: str):
        return [a for a in self.arrows if a.source == v]

    def arrows_into(self, v: str):
        return [a for a in self.arrows if a.target == v]

    def reverse(self) -> "Quiver":
        return Quiver(
            self.vertices,
            tuple(Arrow(a.label, a.target, a.source) for a in self.arrows),
        )


@dataclass(frozen=True)
class Path:
    """A path in a quiver; arrows[0] is applied first.

    A trivial path has no arrows and source == target.
    """

    source: str
    target: str
    arrows: tuple

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    def __str__(self) -> str:
        if not self.arrows:
            return f"e_{self.source}"
        return "*".join(reversed(self.arrows))


def make_path(q: Quiver, source: str, labels_in_application_order) -> Path:
    """Build a path from application-order arrow labels, validating composability."""
    at = source
    for lab in labels_in_application_order:
        a = q.arrow(lab)
        if a.source != at:
            raise ValueError(f"arrow {lab} does not start at {at}")
        at = a.target
    return Path(source, at, tuple(labels_in_application_order))


def path_from_written(q: Quiver, labels_in_written_order) -> Path:
    """Build a path from a written word like b*a (rightmost arrow applies first)."""
    labs = list(reversed(list(labels_in_written_order)))
    first = q.arrow(labs[0])
    return make_path(q, first.source, labs)


def trivial_path(v: str) -> Path:
    return Path(v, v, ())


@dataclass(frozen=True)
class RelationElem:
    """A linear combination of parallel paths, set to zero in the algebra."""

    terms: tuple  # ((coeff, Path), ...)

    @classmethod
    def from_written(cls, q: Quiver, terms) -> "RelationElem":
        """terms: iterable of (coeff, written word as a list of labels)."""
        out = []
        for coeff, word in terms:
            out.append((coeff, path_from_written(q, word)))
        return cls(tuple(out))

    def __str__(self) -> str:
        """The relation in the syntax the file parser reads: each term's sign,
        then its absolute coefficient (the parser rejects "+ -1*x")."""
        bits = [
            ("- " if c < 0 else "+ ") + (str(p) if abs(c) == 1 else f"{abs(c)}*{p}")
            for c, p in self.terms
        ]
        return " ".join(bits).removeprefix("+ ") + " = 0"


def _path_key(q: Quiver, p: Path):
    return (p.length, q.vertex_index(p.source), p.arrows)


def enumerate_paths(q: Quiver, max_len: int):
    """All paths of length <= max_len, ordered by (length, source, labels)."""
    out = [trivial_path(v) for v in q.vertices]
    frontier = list(out)
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for a in q.arrows_from(p.target):
                nxt.append(Path(p.source, a.target, p.arrows + (a.label,)))
        out.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    out.sort(key=lambda p: _path_key(q, p))
    return out


class FiniteDimAlgebra(StructureAlgebra):
    """A quotient of a path algebra by an admissible ideal, with a path basis.

    basis holds the surviving paths in ascending (length, source, labels)
    order, and structure[i, j] holds the coordinates of b_i b_j (b_j acts
    first), as in every StructureAlgebra; the unit is the sum of the trivial
    paths.  loewy_length is the witnessed nilpotency degree N: every path of
    length >= N is zero.  Construction runs certify().  The table takes 8 e^3
    bytes: 14 MB at e = 121, the largest measured, and 512 MB at e = 400.
    """

    def __init__(self, field, quiver, basis, structure, relations, nilpotency,
                 is_monomial, max_len):
        self.quiver = quiver
        self.basis = tuple(basis)
        self.relations = tuple(relations)
        self.loewy_length = nilpotency
        self.is_monomial = is_monomial
        self.max_len = max_len
        self.index = {p: i for i, p in enumerate(self.basis)}
        self.e_index = {}
        self.arrow_index = {}
        for i, p in enumerate(self.basis):
            if p.is_trivial:
                self.e_index[p.source] = i
            elif p.length == 1:
                self.arrow_index[p.arrows[0]] = i
        unit = field.zeros((len(self.basis),))
        unit[list(self.e_index.values())] = field.canon(1)
        StructureAlgebra.__init__(self, field, structure, unit)
        self._op = None
        self._caches = {}
        self.certify()

    # ------------------------------------------------------------------
    def target_of(self, i: int) -> str:
        return self.basis[i].target

    def paths_with_source(self, v: str):
        return [i for i, p in enumerate(self.basis) if p.source == v]

    def action(self, k: int, rows, cols, side: str = "left") -> np.ndarray:
        """The matrix of x -> b_k x (or x b_k, side "right") from span(rows)
        to span(cols), on column vectors.  certify() keeps each product
        between the end vertices of its factors, so cols need hold only those."""
        block = self.structure[k, rows] if side == "left" else self.structure[rows, k]
        return block[:, cols].T

    def element_from_str(self, word: str) -> np.ndarray:
        """Parse a written word like "b*a" or "e_1" into a coordinate vector."""
        word = word.strip()
        basis = self.field.eye(self.dim)
        if word.startswith("e_"):
            return basis[self.e_index[word[2:]]]
        p = path_from_written(self.quiver, word.split("*"))
        # multiply arrow by arrow so arbitrary words reduce through the table
        x = basis[self.e_index[p.source]]
        for lab in p.arrows:
            x = self.mult(basis[self.arrow_index[lab]], x)
        return x

    def memo(self, site: str, key, build):
        """The value stored for key at site in this algebra; build() on a miss.

        Only for results that are a deterministic function of key (module
        bytes, seeds, bounds) within this algebra: a hit returns the stored
        object itself, so callers must not mutate it.
        """
        cache = self._caches.setdefault(site, {})
        value = cache.get(key, _MISSING)
        if value is _MISSING:
            value = cache[key] = build()
        return value

    def describe(self) -> str:
        return (
            f"dim {self.dim} algebra over {self.field.label} on quiver with "
            f"{len(self.quiver.vertices)} vertices, {len(self.quiver.arrows)} arrows, "
            f"nilpotency {self.loewy_length}"
        )

    # ------------------------------------------------------------------
    def certify(self):
        """Raise CertificateError unless the trivial paths are orthogonal
        idempotents whose sum is a two-sided unit, every product stays
        between the end vertices of its factors, and (b_i b_j) b_k =
        b_i (b_j b_k) on every basis triple.

        Associativity is read off the nonzero constants alone: each entry
        (i, j, l) meets the entries (l, k, m) for the left side and each
        entry (j, k, l) meets the entries (i, l, m) for the right side, so
        the cost is about nnz^2 / e instead of the e^5 of the dense check.
        """
        f = self.field
        t = self.structure
        missing = [v for v in self.quiver.vertices if v not in self.e_index]
        if missing:
            raise CertificateError(f"missing trivial path at {missing[0]}")
        ev = [self.e_index[v] for v in self.quiver.vertices]
        idem = f.zeros((len(ev), len(ev), self.dim))
        idem[range(len(ev)), range(len(ev)), ev] = f.canon(1)
        bad = np.argwhere(t[np.ix_(ev, ev)] != idem)
        if len(bad):
            v, w = (self.quiver.vertices[n] for n in bad[0][:2])
            raise CertificateError(f"trivial paths at {v}, {w} are not orthogonal idempotents")
        eye = f.eye(self.dim)
        for side, prods in (("left", t[ev].sum(axis=0)), ("right", t[:, ev].sum(axis=1))):
            bad = np.argwhere((self._canon(prods) != eye).any(axis=1))
            if len(bad):
                raise CertificateError(f"unit is not a {side} unit on basis element {bad[0][0]}")
        i, j, l = np.nonzero(t)
        vert = self.quiver.vertex_index
        src = np.array([vert(p.source) for p in self.basis], dtype=np.int64)
        tgt = np.array([vert(p.target) for p in self.basis], dtype=np.int64)
        if not ((src[i] == tgt[j]) & (src[l] == src[j]) & (tgt[l] == tgt[i])).all():
            raise CertificateError("a product leaves the end vertices of its factors")
        e = self.dim
        c = t[i, j, l]
        # left: (i, j, l) meets (l, k, m); right: (j, k, l) meets (i, l, m)
        la, lb = _join(l, i)
        ra, rb = _join(l, j)
        keys, at = np.unique(
            np.concatenate([
                ((i[la] * e + j[la]) * e + j[lb]) * e + l[lb],
                ((i[rb] * e + i[ra]) * e + j[ra]) * e + l[rb],
            ]),
            return_inverse=True,
        )
        total = f.zeros(len(keys))
        np.add.at(total, at, np.concatenate([c[la] * c[lb], -(c[ra] * c[rb])]))
        bad = np.flatnonzero(self._canon(total) != 0)
        if len(bad):
            key = int(keys[bad[0]])
            raise CertificateError(
                f"associativity fails at {(key // e**3, key // e**2 % e, key // e % e)}"
            )
        return self


def _join(probe, keys):
    """Index pairs (a, b), one for every probe[a] == keys[b]."""
    order = np.argsort(keys, kind="stable")
    lo = np.searchsorted(keys[order], probe, "left")
    counts = np.searchsorted(keys[order], probe, "right") - lo
    a = np.repeat(np.arange(len(probe)), counts)
    b = order[np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(len(a))]
    return a, b


# ---------------------------------------------------------------------------
# construction by ideal saturation


class _Echelon:
    """A span of sparse vectors over integer coordinates, kept as fully
    inter-reduced rows: each row's pivot is its least coordinate, with
    coefficient 1, and no row holds the pivot of another."""

    def __init__(self, field: FieldSpec):
        self.field = field
        self.rows = {}  # pivot coord -> sparse row dict

    def reduce(self, vec: dict) -> dict:
        # full reduction: clear every pivot coordinate, not just the lead;
        # subtracting a pivot row only introduces larger coordinates, so one
        # ascending sweep terminates
        field, rows = self.field, self.rows
        vec = {k: field.canon(v) for k, v in vec.items() if field.canon(v) != 0}
        while True:
            hits = sorted(k for k in vec if k in rows)
            if not hits:
                return vec
            lead = hits[0]
            c = vec[lead]
            for k, v in rows[lead].items():
                nv = field.canon(vec.get(k, 0) - c * v)
                if nv == 0:
                    vec.pop(k, None)
                else:
                    vec[k] = nv

    def add(self, vec: dict):
        """Add vec to the span; its new pivot, or None if it was in the span."""
        field = self.field
        vec = self.reduce(vec)
        if not vec:
            return None
        lead = min(vec)
        inv = field.inv_scalar(vec[lead])
        vec = {k: field.canon(inv * v) for k, v in vec.items()}
        for row in self.rows.values():
            if lead in row:
                c = row[lead]
                for k, v in vec.items():
                    nv = field.canon(row.get(k, 0) - c * v)
                    if nv == 0:
                        row.pop(k, None)
                    else:
                        row[k] = nv
        self.rows[lead] = vec
        return lead

    def normal_forms(self, desc, cut) -> dict:
        """{pivot path: {tail path: coefficient}} for the pivot paths shorter
        than cut: a pivot path equals minus the rest of its row."""
        canon = self.field.canon
        return {
            desc[c]: {desc[k]: canon(-v) for k, v in row.items() if k != c}
            for c, row in self.rows.items()
            if desc[c].length < cut
        }


def _relation_vec(r: RelationElem, coord, field: FieldSpec) -> dict:
    vec = {}
    for c, p in r.terms:
        vec[coord[p]] = field.canon(vec.get(coord[p], 0) + field.canon(c))
    return vec


def _arrow_multiple(vec, desc, coord, a: Arrow, side: str, field: FieldSpec, max_len: int):
    """a*v (side "left") or v*a (side "right") for v = vec over the paths
    desc, in the coordinates coord; None if a term is longer than max_len."""
    prod = {}
    for k, c in vec.items():
        p = desc[k]
        if side == "left":
            # written a * p: p then a
            if p.target != a.source:
                continue
            np_ = Path(p.source, a.target, p.arrows + (a.label,))
        else:
            # written p * a: a then p
            if a.target != p.source:
                continue
            np_ = Path(a.source, p.target, (a.label,) + p.arrows)
        if np_.length > max_len:
            return None
        prod[coord[np_]] = field.canon(prod.get(coord[np_], 0) + c)
    return prod


def _not_admissible(max_len: int) -> NotAdmissibleWithinBound:
    return NotAdmissibleWithinBound(
        f"no nilpotency degree <= {max_len} witnessed; raise max_len or fix relations"
    )


def _saturate_graded(q: Quiver, relations, field: FieldSpec, max_len: int):
    """(N, paths of length < N, their normal forms) for relations whose terms
    share one length each, one path length n at a time.

    The ideal's length-n part is the span of the length-n relations and of
    the arrow multiples, on either side, of the rows of the length-(n-1)
    part; the length-n paths are the arrow extensions of the length-(n-1)
    paths.  N is the first n >= 2 whose part holds every length-n path.
    """
    by_len = {}
    for r in relations:
        by_len.setdefault(r.terms[0][1].length, []).append(r)
    desc = [trivial_path(v) for v in reversed(q.vertices)]
    part = _Echelon(field)
    paths, normal = list(desc), {}
    for n in range(1, max_len + 1):
        prev_desc, prev = desc, part
        desc = sorted(
            (Path(p.source, a.target, p.arrows + (a.label,))
             for p in prev_desc for a in q.arrows_from(p.target)),
            key=lambda p: _path_key(q, p),
            reverse=True,
        )
        coord = {p: i for i, p in enumerate(desc)}
        part = _Echelon(field)
        for r in by_len.get(n, ()):
            part.add(_relation_vec(r, coord, field))
        for row in prev.rows.values():
            for a in q.arrows:
                for side in ("left", "right"):
                    prod = _arrow_multiple(row, prev_desc, coord, a, side, field, max_len)
                    if prod:
                        part.add(prod)
        if n >= 2 and len(part.rows) == len(desc):
            return n, paths, normal
        paths += desc
        normal.update(part.normal_forms(desc, n + 1))
    raise _not_admissible(max_len)


def _saturate_bounded(q: Quiver, relations, field: FieldSpec, max_len: int):
    """(N, paths of length < N, their normal forms) for any relations, by
    saturating the relation span under arrow multiplication inside the paths
    of length <= max_len.

    A product with a term longer than max_len is dropped, so where the
    relations mix lengths the span depends on the bound and on the order of
    work; the nilpotency witness still validates whatever span results.
    """
    paths = enumerate_paths(q, max_len)
    # coordinates in descending (length, source, labels) order: reduction
    # pivots eliminate the longest / lex-greatest path of each relation
    desc = sorted(paths, key=lambda p: _path_key(q, p), reverse=True)
    coord = {p: i for i, p in enumerate(desc)}
    ideal = _Echelon(field)
    work = []

    def add(vec):
        # queue the reduced row, whose products can stay within the bound
        # where those of vec have a longer term
        lead = ideal.add(vec)
        if lead is not None:
            work.append(dict(ideal.rows[lead]))

    for r in relations:
        add(_relation_vec(r, coord, field))
    seen = 0
    while seen < len(work):
        vec = work[seen]
        seen += 1
        for a in q.arrows:
            for side in ("left", "right"):
                prod = _arrow_multiple(vec, desc, coord, a, side, field, max_len)
                if prod:
                    add(prod)

    # admissibility witness: least N with every length-N path a singleton pivot
    by_len = {}
    for p in paths:
        by_len.setdefault(p.length, []).append(p)
    one = field.canon(1)
    for n in range(2, max_len + 1):
        if all(ideal.rows.get(coord[p]) == {coord[p]: one} for p in by_len.get(n, [])):
            below = [p for p in paths if p.length < n]
            return n, below, ideal.normal_forms(desc, n)
    raise _not_admissible(max_len)


def build_algebra(q: Quiver, relations, field: FieldSpec, max_len: int = 12) -> FiniteDimAlgebra:
    """Quotient the path algebra of q by the admissible ideal I the relations generate.

    Finds the least N in 2..max_len with every length-N path in I
    (NotAdmissibleWithinBound if none) and cuts the basis at length < N.
    I is held in reduced row echelon form over the paths in descending
    (length, source, labels) order, so each row's pivot is its longest,
    lex-greatest path; the basis is the paths of length < N that are no
    pivot, and a pivot path's normal form is minus the rest of its row.

    Two routes compute I up to length N:

    - When the terms of each relation share one length, I is graded, and its
      length-n part I_n is spanned by the length-n relations and by a*I_(n-1)
      and I_(n-1)*a over the arrows a.  `_saturate_graded` computes I_2,
      I_3, ... in turn and stops at the first part that holds every path of
      its length, so the cost follows N, not max_len.  The result is the
      bounded route's: that route keeps every product of length <= max_len,
      so its span is the sum of the I_n with n <= max_len, and the RREF of a
      graded subspace is the union of the RREFs of its parts, which lie on
      disjoint coordinates.
    - Relations that mix lengths, such as x*x - y*y*y, generate an ideal that
      is not graded: its short elements can come from long products, so no
      length is final before the bound.  `_saturate_bounded` saturates the
      relation span inside the paths of length <= max_len and drops each
      product with a longer term; that truncation makes the result depend on
      the bound and the order of work.
    """
    relations = list(relations)
    for r in relations:
        if not isinstance(r, RelationElem) or not r.terms:
            raise InvalidRelation("empty or malformed relation")
        st = {(p.source, p.target) for _, p in r.terms}
        if len(st) != 1:
            raise InvalidRelation(f"non-parallel terms in {r}")
        for c, p in r.terms:
            if p.length < 2:
                raise InvalidRelation(f"term {p} is outside rad^2")
            if p.length > max_len:
                raise InvalidRelation(f"term {p} longer than max_len={max_len}")
            if field.canon(c) == 0:
                raise InvalidRelation(f"zero coefficient in {r}")

    graded = all(len({p.length for _, p in r.terms}) == 1 for r in relations)
    saturate = _saturate_graded if graded else _saturate_bounded
    nilpotency, paths, normal = saturate(q, relations, field, max_len)
    for p, tail in normal.items():
        if p.length < 2:
            raise CertificateError("admissible ideal produced a short pivot")
        if any(t.length >= nilpotency for t in tail):
            raise CertificateError("pivot tail escapes the basis cut")
    basis = sorted((p for p in paths if p not in normal), key=lambda p: _path_key(q, p))
    index = {p: i for i, p in enumerate(basis)}

    e = len(basis)
    one = field.canon(1)
    structure = field.zeros((e, e, e))
    for i, pi in enumerate(basis):
        for j, pj in enumerate(basis):
            # written b_i * b_j: pj first, then pi
            if pj.target != pi.source:
                continue
            comp = Path(pj.source, pi.target, pj.arrows + pi.arrows)
            if comp.length >= nilpotency:
                continue
            tail = normal.get(comp)
            if tail is None:
                structure[i, j, index[comp]] = one
                continue
            for t, c in tail.items():
                structure[i, j, index[t]] = c

    is_monomial = all(len(r.terms) == 1 for r in relations)
    return FiniteDimAlgebra(
        field, q, basis, structure, relations, nilpotency, is_monomial, max_len
    )


# ---------------------------------------------------------------------------
# structural opposite


def _reverse_path(p: Path) -> Path:
    return Path(p.target, p.source, tuple(reversed(p.arrows)))


def opposite(a: FiniteDimAlgebra) -> FiniteDimAlgebra:
    """The opposite algebra: reversed quiver, index-preserving reversed basis.

    Its basis is a's basis with every path reversed, in a's order.  That can
    differ from the normal forms `build_algebra` picks on the reversed quiver
    with the reversed relations: where a has a binomial relation, the
    reversed pivot need not be the greatest term any more (62B's r*s = t*d).
    This is why `morita.tensor_algebra` saturates the opposite presentation
    for its right factor instead of reading this basis.

    opposite(opposite(a)) is a itself.
    """
    if a._op is not None:
        return a._op
    qop = a.quiver.reverse()
    basis = [_reverse_path(p) for p in a.basis]
    rel_op = [
        RelationElem(tuple((c, _reverse_path(p)) for c, p in r.terms))
        for r in a.relations
    ]
    # a transposed view: constructing op makes its one contiguous copy
    structure = a.structure.transpose(1, 0, 2)
    op = FiniteDimAlgebra(
        a.field, qop, basis, structure, rel_op, a.loewy_length, a.is_monomial, a.max_len
    )
    op._op = a
    a._op = op
    return op

