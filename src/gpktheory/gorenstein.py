"""Homological dimensions, Gorenstein-projectivity certificates, GP catalogs.

Conventions: the "left self-injective dimension" of an algebra A is the
injective dimension of the left regular module, computed as the projective
dimension of its vector-space dual over the opposite algebra (and dually on
the right).  A module certificate is one of three honest verdicts:
GorensteinProjective (with re-checkable data), NotGP (with a nonzero Ext
witness against the regular module), or Inconclusive.

The GP catalog is closed in one pass under syzygy, co-syzygy, direct
summands and extensions: GP modules are closed under extensions, and the
short exact sequences among them are the relations of the Gorenstein K0.
So the pass that builds the middle terms of the extensions between items
also records each one's relation row [E] - [X] - [Z], and ktheory reads K0
off these rows.
"""

from dataclasses import dataclass, field

from .exactla import CertificateError, coeff_vectors
from .presentation import FiniteDimAlgebra, opposite
from .rep import (
    HomSpace,
    Representation,
    decompose,
    dual_rep,
    ext1_class_reps,
    ext_data,
    is_isomorphic,
    is_projective,
    middle_term,
    projective_dimension,
    regular,
    simple,
    star,
    syzygy,
)

DEFAULT_BOUND = 16
PROBE_DEPTH = 4  # syzygy depth used for seeds when the Gorenstein dimension is unknown
RANDOM_CLASSES = 128  # sampled classes per pair when Ext^1 is too large to list


@dataclass(frozen=True)
class AtLeast:
    """A homological dimension known only to be >= bound."""

    bound: int

    def __str__(self):
        return f">={self.bound}"


@dataclass
class DimensionReport:
    algebra: FiniteDimAlgebra
    bound: int
    proj_dims: dict  # vertex name -> int | AtLeast
    global_dim: object  # int | AtLeast
    self_inj_dim_left: object  # int | AtLeast
    self_inj_dim_right: object  # int | AtLeast
    gorenstein_status: str  # "yes" | "no_within_bound"
    gorenstein_dim: object  # int when status == "yes", else None

    @property
    def is_self_injective(self) -> bool:
        return self.gorenstein_status == "yes" and self.gorenstein_dim == 0

    def describe(self) -> str:
        lines = [
            f"projective dimensions of simples: "
            + ", ".join(f"{v}: {d}" for v, d in sorted(self.proj_dims.items())),
            f"global dimension: {self.global_dim}",
            f"self-injective dimension (left, right): "
            f"({self.self_inj_dim_left}, {self.self_inj_dim_right})",
        ]
        if self.gorenstein_status == "yes":
            lines.append(f"Gorenstein: yes, dimension {self.gorenstein_dim}")
        else:
            lines.append(f"Gorenstein: {self.gorenstein_status}")
        return "\n".join(lines)


def _dim_or_at_least(value, bound):
    return value if value is not None else AtLeast(bound)


def dimension_report(a: FiniteDimAlgebra, bound: int = DEFAULT_BOUND) -> DimensionReport:
    """Projective dimensions of simples, global and self-injective dimensions."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return a.memo("dimension_report", bound, lambda: _dimension_report(a, bound))


def _dimension_report(a: FiniteDimAlgebra, bound: int) -> DimensionReport:
    proj_dims = {}
    for v in a.quiver.vertices:
        proj_dims[v] = _dim_or_at_least(
            projective_dimension(simple(a, v), bound), bound
        )
    if any(isinstance(d, AtLeast) for d in proj_dims.values()):
        global_dim = AtLeast(bound)
    else:
        global_dim = max(proj_dims.values(), default=0)
    op = opposite(a)
    left = _dim_or_at_least(
        projective_dimension(dual_rep(regular(a)), bound), bound
    )
    right = _dim_or_at_least(
        projective_dimension(dual_rep(regular(op)), bound), bound
    )
    if isinstance(left, int) and isinstance(right, int):
        if left != right:
            raise CertificateError("finite one-sided self-injective dimensions must agree")
        status, gdim = "yes", left
    else:
        status, gdim = "no_within_bound", None
    return DimensionReport(
        algebra=a,
        bound=bound,
        proj_dims=proj_dims,
        global_dim=global_dim,
        self_inj_dim_left=left,
        self_inj_dim_right=right,
        gorenstein_status=status,
        gorenstein_dim=gdim,
    )


@dataclass
class GPVerdict:
    status: str  # "GorensteinProjective" | "NotGP" | "Inconclusive"
    criterion: str
    data: dict = field(default_factory=dict)

    @property
    def is_gp(self) -> bool:
        return self.status == "GorensteinProjective"


def is_gp(m: Representation, report: DimensionReport = None, bound: int = DEFAULT_BOUND) -> GPVerdict:
    """Decide Gorenstein projectivity of m.

    Strategy, in order: self-injective algebra; Ext-vanishing up to the
    Gorenstein dimension; syzygy periodicity together with Ext vanishing up
    to the period.  A nonzero Ext^i(m, A) is a NotGP witness at any point.
    """
    a = m.algebra
    if report is None:
        report = dimension_report(a, bound)
    if m.is_zero or is_projective(m):
        return GPVerdict("GorensteinProjective", "projective")
    if report.is_self_injective:
        return GPVerdict("GorensteinProjective", "self-injective-algebra")
    reg = regular(a)
    if report.gorenstein_status == "yes":
        d = report.gorenstein_dim
        for i in range(1, d + 1):
            dim = ext_data(m, reg, i)[0]
            if dim:
                return GPVerdict("NotGP", "ext-witness", {"degree": i, "dimension": dim})
        return GPVerdict("GorensteinProjective", "ext-vanishing", {"range": d})
    # Gorenstein dimension not certified: scan Ext and hunt for a syzygy period
    chain = [m]
    for i in range(1, bound + 1):
        dim = ext_data(m, reg, i)[0]
        if dim:
            return GPVerdict("NotGP", "ext-witness", {"degree": i, "dimension": dim})
        chain.append(syzygy(chain[-1]))
        for s in range(len(chain) - 1):
            ok, _ = is_isomorphic(chain[s], chain[-1])
            if ok:
                return GPVerdict(
                    "GorensteinProjective",
                    "syzygy-periodicity",
                    {"low": s, "high": i},
                )
    return GPVerdict("Inconclusive", "bound-exhausted", {"bound": bound})


def certify_gp(m: Representation) -> GPVerdict:
    """Cached Gorenstein-projectivity verdict at the default bound (keyed by
    the module's data); is_gp takes other bounds, uncached."""
    return m.algebra.memo("gp_certificates", m.key(), lambda: is_gp(m))


def co_syzygy(m: Representation) -> Representation:
    """Inverse syzygy of a Gorenstein projective module: star(syzygy(star(m)))."""
    return star(syzygy(star(m)))


@dataclass
class GPCatalog:
    algebra: FiniteDimAlgebra
    items: list  # canonical indecomposable non-projective GP representations
    verdict: str  # "CMFree" | "CMFinite" | "Unknown"
    report: DimensionReport
    certificates: list  # GPVerdict per item
    notes: list
    relations: list  # one row [E] - [X] - [Z] per extension class, in item order

    def describe(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        for i, (item, cert) in enumerate(zip(self.items, self.certificates)):
            lines.append(
                f"item {i}: dims {item.dim_vector}, certificate {cert.criterion}"
            )
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)


def gp_catalog(
    a: FiniteDimAlgebra, dim_cap: int = None, iter_cap: int = 32, seed: int = 0
) -> GPCatalog:
    """Enumerate indecomposable non-projective GP modules and settle CM type.

    Seeds are d-th syzygies of the simples (d = Gorenstein dimension, or a
    fixed probe depth when unknown).  Rounds of syzygy and co-syzygy run
    until no new item appears; then one round builds the middle term E of
    one extension 0 -> X -> E -> Z -> 0 per line of Ext^1(Z, X) for every
    ordered item pair not yet paired, and records the row [E] - [X] - [Z].
    The middle terms along xi and c*xi (c != 0) are isomorphic, so the
    lines give every row.  Projectives pair with nothing: Ext^1(G, P) = 0
    for GP G, and extensions of a projective split.  The rounds repeat
    until nothing new appears; projective summands are discarded.  Each
    round counts against iter_cap, and hitting a cap demotes the verdict
    to Unknown.  Ext^1 spaces of more than one line that are too large to
    list are sampled from `seed`, with a note, and the verdict is then
    Unknown too: the catalog may miss a summand of an unsampled class.
    A cap below 1 raises ValueError.
    """
    for name, cap in (("dim_cap", dim_cap), ("iter_cap", iter_cap)):
        if cap is not None and cap < 1:
            raise ValueError(f"{name} must be at least 1, got {cap}")
    if dim_cap is None:
        dim_cap = 64 * a.dim
    report = dimension_report(a)
    notes = []
    if report.gorenstein_status == "yes":
        depth = report.gorenstein_dim
    else:
        depth = PROBE_DEPTH
        notes.append(
            f"Gorenstein dimension not certified within bound {report.bound}; "
            f"seeding with syzygy depth {depth}"
        )
    items = []
    certificates = []
    frontier = []
    rows = []  # {item index: coefficient}, in the order items were found
    unknown = False

    def consider(mod):
        # decompose, discard projectives, certify new items; returns the
        # multiplicity of each item in mod
        nonlocal unknown
        mults = {}
        for part, mult in decompose(mod):
            if part.is_zero or is_projective(part):
                continue
            if part.total_dim > dim_cap:
                unknown = True
                notes.append(f"dimension cap {dim_cap} hit by a summand of dimension {part.total_dim}")
                continue
            idx = next((i for i, item in enumerate(items) if is_isomorphic(item, part)[0]), None)
            if idx is None:
                cert = certify_gp(part)
                if not cert.is_gp:
                    unknown = True
                    notes.append(
                        f"summand of dims {part.dim_vector} not certified GP "
                        f"({cert.status}); discarded"
                    )
                    continue
                idx = len(items)
                items.append(part)
                certificates.append(cert)
                frontier.append(part)
            mults[idx] = mults.get(idx, 0) + mult
        return mults

    def extend(iz, ix):
        nonlocal unknown
        z, x = items[iz], items[ix]
        classes, enclosing = ext1_class_reps(z, x)
        if not classes:
            return
        combos, exhaustive = coeff_vectors(
            a.field, len(classes), seed=seed, tries=RANDOM_CLASSES
        )
        if not exhaustive:
            # an unsampled class could have a middle term with a new summand
            unknown = True
            notes.append(
                f"ext classes sampled (dimension {len(classes)}) for a pair of "
                f"dims {z.dim_vector} -> {x.dim_vector}"
            )
        ext = HomSpace(classes[0].domain, classes[0].codomain, tuple(classes))
        for coeffs in combos:
            row = consider(middle_term(z, x, ext.element(coeffs), enclosing)[0])
            for end in (ix, iz):
                row[end] = row.get(end, 0) - 1
            rows.append(row)

    for v in a.quiver.vertices:
        s = simple(a, v)
        consider(syzygy(s, depth) if depth else s)
    rounds = 0
    paired = 0  # every ordered pair among items[:paired] is extended
    while (frontier or paired < len(items)) and rounds < iter_cap:
        rounds += 1
        if frontier:
            batch, frontier[:] = frontier[:], []
            for g in batch:
                consider(syzygy(g))
                cos = co_syzygy(g)
                consider(cos)
        else:
            n = len(items)
            for iz in range(n):
                for ix in range(n):
                    if max(iz, ix) >= paired:
                        extend(iz, ix)
            paired = n
    if frontier or paired < len(items):
        unknown = True
        notes.append(f"iteration cap {iter_cap} hit with catalog still growing")
    if unknown:
        verdict = "Unknown"
    elif items:
        verdict = "CMFinite"
    else:
        verdict = "CMFree"
    order = sorted(
        range(len(items)),
        key=lambda i: (items[i].total_dim, items[i].dim_vector, items[i].key()),
    )
    return GPCatalog(
        algebra=a,
        items=[items[i] for i in order],
        verdict=verdict,
        report=report,
        certificates=[certificates[i] for i in order],
        notes=notes,
        relations=[tuple(row.get(i, 0) for i in order) for row in rows],
    )
