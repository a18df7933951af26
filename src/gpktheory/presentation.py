"""Quivers with admissible relations and their finite dimensional path algebras.

Composition is written right to left: the product ``b*a`` means "apply a,
then b", so a path stores its arrow labels in application order (first
applied first) and displays them reversed with ``*`` separators.  For an
arrow a: u -> w the product a*x is nonzero only when x ends at u.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .exactla import CertificateError, FieldSpec


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
        bits = []
        for c, p in self.terms:
            bits.append(f"{c}*{p}" if c != 1 else str(p))
        return " + ".join(bits) + " = 0"


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


class FiniteDimAlgebra:
    """A quotient of a path algebra by an admissible ideal, with a path basis.

    basis holds the surviving paths in ascending (length, source, labels)
    order; products are a dense table of sparse vectors.  loewy_length is
    the witnessed nilpotency degree N: every path of length >= N is zero.
    """

    def __init__(self, field, quiver, basis, mult, relations, nilpotency,
                 is_monomial, max_len, check=True):
        self.field = field
        self.quiver = quiver
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        self.relations = tuple(relations)
        self.loewy_length = nilpotency
        self.is_monomial = is_monomial
        self.max_len = max_len
        self.index = {p: i for i, p in enumerate(self.basis)}
        self._mult = mult
        self.e_index = {}
        self.arrow_index = {}
        for i, p in enumerate(self.basis):
            if p.is_trivial:
                self.e_index[p.source] = i
            elif p.length == 1:
                self.arrow_index[p.arrows[0]] = i
        self._op = None
        self._caches = {}
        if check:
            self._verify()

    # ------------------------------------------------------------------
    def target_of(self, i: int) -> str:
        return self.basis[i].target

    def paths_with_source(self, v: str):
        return [i for i, p in enumerate(self.basis) if p.source == v]

    def mult_basis(self, i: int, j: int):
        """Sparse product basis[i] * basis[j] (j acts first)."""
        return self._mult[i][j]

    def mult_sparse(self, x: dict, y: dict) -> dict:
        out = {}
        for i, ci in x.items():
            for j, cj in y.items():
                c = ci * cj
                for k, ck in self._mult[i][j]:
                    out[k] = out.get(k, 0) + c * ck
        return {k: self.field.canon(v) for k, v in out.items() if self.field.canon(v) != 0}

    def unit_sparse(self) -> dict:
        return {self.e_index[v]: self.field.canon(1) for v in self.quiver.vertices}

    def element_from_str(self, word: str) -> dict:
        """Parse a written word like "b*a" or "e_1" into a sparse element."""
        word = word.strip()
        if word.startswith("e_"):
            return {self.e_index[word[2:]]: self.field.canon(1)}
        labs = word.split("*")
        p = path_from_written(self.quiver, labs)
        # multiply arrow by arrow so arbitrary words reduce through the table
        x = {self.e_index[p.source]: self.field.canon(1)}
        for lab in p.arrows:
            x = self.mult_sparse({self.arrow_index[lab]: self.field.canon(1)}, x)
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
    def _verify(self):
        for v in self.quiver.vertices:
            if v not in self.e_index:
                raise CertificateError(f"missing trivial path at {v}")
        one = self.field.canon(1)
        for v in self.quiver.vertices:
            for w in self.quiver.vertices:
                prod = self._mult[self.e_index[v]][self.e_index[w]]
                if prod != (((self.e_index[v], one),) if v == w else ()):
                    raise CertificateError(
                        f"trivial paths at {v}, {w} are not orthogonal idempotents"
                    )
        unit = self.unit_sparse()
        for i in range(self.dim):
            if self.mult_sparse(unit, {i: one}) != {i: one}:
                raise CertificateError(f"unit is not a left unit on basis element {i}")
            if self.mult_sparse({i: one}, unit) != {i: one}:
                raise CertificateError(f"unit is not a right unit on basis element {i}")
        if self.dim <= 16:
            triples = [
                (i, j, k)
                for i in range(self.dim)
                for j in range(self.dim)
                for k in range(self.dim)
            ]
        else:
            rng = Random(0)
            triples = [
                tuple(rng.randrange(self.dim) for _ in range(3)) for _ in range(1000)
            ]
        for i, j, k in triples:
            left = self.mult_sparse(self.mult_sparse({i: one}, {j: one}), {k: one})
            right = self.mult_sparse({i: one}, self.mult_sparse({j: one}, {k: one}))
            if left != right:
                raise CertificateError(f"associativity fails at {(i, j, k)}")


# ---------------------------------------------------------------------------
# construction by ideal saturation


def build_algebra(q: Quiver, relations, field: FieldSpec, max_len: int = 12) -> FiniteDimAlgebra:
    """Quotient the path algebra of q by the admissible ideal the relations generate.

    Saturates the relation span under arrow multiplication inside the path
    universe of length <= max_len, finds the least N with every length-N
    path in the span (NotAdmissibleWithinBound if none), and cuts the basis
    at length < N.  Products whose terms would exceed max_len are dropped,
    which is exact for length-homogeneous relations; the nilpotency witness
    below still validates whatever span results.
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

    paths = enumerate_paths(q, max_len)
    # coordinates in descending (length, source, labels) order: reduction
    # pivots eliminate the longest / lex-greatest path of each relation
    desc = sorted(paths, key=lambda p: _path_key(q, p), reverse=True)
    coord = {p: i for i, p in enumerate(desc)}

    rows = {}  # pivot coord -> sparse row dict, kept fully inter-reduced

    def reduce_vec(vec: dict) -> dict:
        # full reduction: clear every pivot coordinate, not just the lead;
        # subtracting a pivot row only introduces larger coordinates, so one
        # ascending sweep terminates
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

    def add_row(vec: dict):
        vec = reduce_vec(dict(vec))
        if not vec:
            return None
        lead = min(vec)
        inv = field.inv_scalar(vec[lead])
        vec = {k: field.canon(inv * v) for k, v in vec.items()}
        for row in rows.values():
            if lead in row:
                c = row[lead]
                for k, v in vec.items():
                    nv = field.canon(row.get(k, 0) - c * v)
                    if nv == 0:
                        row.pop(k, None)
                    else:
                        row[k] = nv
        rows[lead] = vec
        return lead

    work = []
    for r in relations:
        vec = {}
        for c, p in r.terms:
            vec[coord[p]] = field.canon(vec.get(coord[p], 0) + field.canon(c))
        if add_row(vec) is not None:
            work.append(vec)
    seen = 0
    while seen < len(work):
        vec = work[seen]
        seen += 1
        for a in q.arrows:
            for side in ("left", "right"):
                prod = {}
                ok = True
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
                        ok = False
                        break
                    prod[coord[np_]] = field.canon(prod.get(coord[np_], 0) + c)
                if ok and prod:
                    if add_row(prod) is not None:
                        work.append(prod)

    # admissibility witness: least N with every length-N path a singleton pivot
    by_len = {}
    for p in paths:
        by_len.setdefault(p.length, []).append(p)
    one = field.canon(1)
    nilpotency = None
    for n in range(2, max_len + 1):
        full = True
        for p in by_len.get(n, []):
            if rows.get(coord[p]) != {coord[p]: one}:
                full = False
                break
        if full:
            nilpotency = n
            break
    if nilpotency is None:
        raise NotAdmissibleWithinBound(
            f"no nilpotency degree <= {max_len} witnessed; raise max_len or fix relations"
        )

    basis = [p for p in paths if p.length < nilpotency and coord[p] not in rows]
    for c in rows:
        if desc[c].length < 2:
            raise CertificateError("admissible ideal produced a short pivot")
    basis.sort(key=lambda p: _path_key(q, p))
    index = {p: i for i, p in enumerate(basis)}

    def normal_form(p: Path):
        if p.length >= nilpotency:
            return ()
        c = coord[p]
        row = rows.get(c)
        if row is None:
            return ((index[p], one),)
        out = []
        for k, v in row.items():
            if k == c:
                continue
            tail = desc[k]
            if tail.length >= nilpotency:
                raise CertificateError("pivot tail escapes the basis cut")
            out.append((index[tail], field.canon(-v)))
        out.sort()
        return tuple(out)

    mult = [[() for _ in range(len(basis))] for _ in range(len(basis))]
    for i, pi in enumerate(basis):
        for j, pj in enumerate(basis):
            # written b_i * b_j: pj first, then pi
            if pj.target != pi.source:
                continue
            comp = Path(pj.source, pi.target, pj.arrows + pi.arrows)
            mult[i][j] = normal_form(comp)

    is_monomial = all(len(r.terms) == 1 for r in relations)
    return FiniteDimAlgebra(
        field, q, basis, mult, relations, nilpotency, is_monomial, max_len
    )


# ---------------------------------------------------------------------------
# structural opposite


def _reverse_path(p: Path) -> Path:
    return Path(p.target, p.source, tuple(reversed(p.arrows)))


def opposite(a: FiniteDimAlgebra) -> FiniteDimAlgebra:
    """The opposite algebra: reversed quiver, index-preserving reversed basis.

    opposite(opposite(a)) is a itself.
    """
    if a._op is not None:
        return a._op
    qop = a.quiver.reverse()
    basis = [_reverse_path(p) for p in a.basis]
    n = a.dim
    mult = [[a._mult[j][i] for j in range(n)] for i in range(n)]
    rel_op = [
        RelationElem(tuple((c, _reverse_path(p)) for c, p in r.terms))
        for r in a.relations
    ]
    op = FiniteDimAlgebra(
        a.field, qop, basis, mult, rel_op, a.loewy_length, a.is_monomial, a.max_len
    )
    op._op = a
    a._op = op
    return op

