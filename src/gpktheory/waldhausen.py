"""Brute-force K0 oracle: materialize the finite cofibration structure on a
GP catalog and read the Grothendieck group off the S2 layer.

Objects are direct sums of catalog items and indecomposable projectives,
truncated by multiplicity and total dimension.  Cofibrations are
monomorphisms whose cokernel decomposes into catalog items and projectives
(certified).  The mono search is exhaustive whenever exactla's one policy
(`is_exhaustive`) says the hom space is, and otherwise falls back to the
canonical split inclusion only, with the skip reported — never randomly
sampled.  The exhaustive search runs over the line representatives of
`exactla.coeff_vectors`, one map per line up to nonzero scalars, and tests
them all in one stacked row reduction per vertex; it finds the same
cofibrations and notes as a search over every map.  The reduced image stack
of that elimination also gives every unique mono's cokernel at once
(`rep.quotient_stack`, the builder behind every cokernel), and one
exactness certificate per vertex covers the pair's whole stack: mono ranks,
quotient ranks, q . mono = 0 and the dimension count.  Weak equivalence
classes are projective-stripped summand multisets.  Failed certificates
raise exactla.CertificateError, so they also run under `python -O`.  The
gluing check builds its squares with `rep.pushout` and the induced map of
pushouts with `rep.descend` of the block-diagonal ladder (`rep.block_diag`),
the construction `rep.middle_term` uses for Ext^1 middle terms, and asks
`stable.is_stable_iso` whether that map is a weak equivalence: its
certificate, a mono with a projective cokernel, accepts every ladder kind
here, and only a map it rejects is solved for a stable inverse.  The check
counts only a non-GP pushout as a counterexample.  All of
this is independent of the relation rows that gorenstein.gp_catalog records
for the ktheory module; agreement of the two groups is the repository's
central cross-check.
"""

from dataclasses import dataclass, field
from random import Random

import numpy as np

from . import exactla
from .exactla import (
    EXHAUSTIVE_CAP,
    AbelianGroupDescription,
    CertificateError,
    coeff_vectors,
    group_from_presentation,
    is_exhaustive,
)
from .gorenstein import GPCatalog, certify_gp
from .ktheory import CatalogUnknown
from .rep import (
    Morphism,
    Representation,
    _find_isomorphism,
    _invariant_battery,
    block_diag,
    cokernel,
    descend,
    direct_sum,
    hom_basis,
    hom_dim,
    identity_morphism,
    is_isomorphic,
    projective,
    pushout,
    quotient_stack,
    zero_morphism,
    zero_rep,
)
from .stable import _strip_projectives, is_stable_iso

ITEM_MULT_CAP = 4
DIM_FACTOR = 8


@dataclass
class WObject:
    index: int
    item_mults: tuple  # multiplicities of catalog items
    proj_mults: tuple  # multiplicities of indecomposable projectives (per vertex)
    rep: Representation
    weak_class: int

    @property
    def is_zero(self) -> bool:
        return not any(self.item_mults) and not any(self.proj_mults)

    @property
    def all_mults(self) -> tuple:
        return self.item_mults + self.proj_mults


@dataclass
class Cofibration:
    src: int
    dst: int
    mono: Morphism
    coker: Representation
    quotient: Morphism
    coker_class: int
    split: bool


@dataclass
class FiniteWaldhausenData:
    algebra: object
    catalog: GPCatalog
    depth: int
    parts_pool: list  # catalog items, then the indecomposable projectives
    objects: list
    zero_index: int
    cofibrations: list
    classes: list  # distinct projective-stripped multiplicity vectors
    notes: list
    class_cache: dict = field(default_factory=dict)  # rep key -> class id or None
    battery_cache: dict = field(default_factory=dict)  # invariants -> [(rep, class)]


def _weak_class(data: FiniteWaldhausenData, rep: Representation):
    """Class id of the projective-stripped summand multiset, or None when a
    summand is neither a catalog item nor projective (not admissible)."""
    key = rep.key()
    if key in data.class_cache:
        return data.class_cache[key]
    # cheap path: a previously classified module with the same invariant
    # battery and an isomorphism found by the witness search shares the
    # class; a miss certifies nothing and falls through to the decomposition
    bat = _invariant_battery(rep)
    for known, cls in data.battery_cache.get(bat, ()):
        if _find_isomorphism(rep, known) is not None:
            data.class_cache[key] = cls
            return cls
    cls = _classify_by_decomposition(data, rep)
    data.battery_cache.setdefault(bat, []).append((rep, cls))
    data.class_cache[key] = cls
    return cls


def _classify_by_decomposition(data: FiniteWaldhausenData, rep: Representation):
    items = data.catalog.items
    mults = [0] * len(items)
    for part, mult in _strip_projectives(rep):
        for i, item in enumerate(items):
            ok, _ = is_isomorphic(part, item)
            if ok:
                mults[i] += mult
                break
        else:
            verdict = certify_gp(part)
            if verdict.is_gp:
                raise CertificateError(
                    "GP summand missing from the catalog; closure violated"
                )
            return None
    return _register_class(data, tuple(mults))


def _register_class(data: FiniteWaldhausenData, vec: tuple) -> int:
    try:
        return data.classes.index(vec)
    except ValueError:
        data.classes.append(vec)
        return len(data.classes) - 1


def _mult_tuples(caps):
    if not caps:
        yield ()
        return
    for head in range(caps[0] + 1):
        for rest in _mult_tuples(caps[1:]):
            yield (head,) + rest


def build_wdata(catalog: GPCatalog, depth: int = 2) -> FiniteWaldhausenData:
    """Enumerate objects and cofibrations at the given projective depth,
    which must be at least 1."""
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    if catalog.verdict == "Unknown":
        raise CatalogUnknown("catalog verdict is Unknown")
    a = catalog.algebra
    f = a.field
    items = list(catalog.items)
    projs = [projective(a, v) for v in a.quiver.vertices]
    parts_pool = items + projs
    dim_cap = DIM_FACTOR * a.dim
    notes = [
        f"object universe: item multiplicity <= {ITEM_MULT_CAP}, projective "
        f"multiplicity <= {depth}, total dimension <= {dim_cap}"
    ]
    data = FiniteWaldhausenData(
        algebra=a,
        catalog=catalog,
        depth=depth,
        parts_pool=parts_pool,
        objects=[],
        zero_index=0,
        cofibrations=[],
        classes=[],
        notes=notes,
    )
    caps = tuple([ITEM_MULT_CAP] * len(items) + [depth] * len(projs))
    for mults in sorted(_mult_tuples(caps)):
        total = sum(m * p.total_dim for m, p in zip(mults, parts_pool))
        if total > dim_cap:
            continue
        summands = [p for m, p in zip(mults, parts_pool) for _ in range(m)]
        rep = direct_sum(summands)[0] if summands else zero_rep(a)
        vec = tuple(mults[: len(items)])
        cls = _register_class(data, vec)
        data.class_cache[rep.key()] = cls
        data.objects.append(
            WObject(
                index=len(data.objects),
                item_mults=vec,
                proj_mults=tuple(mults[len(items):]),
                rep=rep,
                weak_class=cls,
            )
        )
        if not any(mults):
            data.zero_index = data.objects[-1].index
    # hom dimensions between sums are additive in the parts, so decide the
    # exhaustive-vs-split branch from a part-level table without assembling
    # the hom space of a skipped pair
    part_hom = [[hom_dim(pi, pj) for pj in parts_pool] for pi in parts_pool]
    skipped_pairs = 0
    for x in data.objects:
        for y in data.objects:
            if any(x.rep.dims[v] > y.rep.dims[v] for v in a.quiver.vertices):
                continue
            h = sum(
                xm * ym * part_hom[i][j]
                for i, xm in enumerate(x.all_mults)
                for j, ym in enumerate(y.all_mults)
            )
            if is_exhaustive(f, h):
                _exhaustive_cofibrations(data, x, y, h)
            else:
                _split_cofibration(data, x, y)
                skipped_pairs += 1
    if skipped_pairs:
        notes.append(
            f"{skipped_pairs} object pairs exceeded the exhaustive mono bound "
            f"({EXHAUSTIVE_CAP}); only the split inclusion contributed there"
        )
    return data


def _exhaustive_cofibrations(data, x: WObject, y: WObject, h: int):
    """All monos x.rep >-> y.rep with admissible cokernel, one per image.

    A map and its nonzero multiples share mono-ness and image, and the
    line representatives of `coeff_vectors` come first in their lines, so
    scanning them finds the same first map per image as scanning every
    coefficient vector.
    """
    f = data.algebra.field
    p = f.char
    verts = data.algebra.quiver.vertices
    hs = hom_basis(x.rep, y.rep)
    if hs.dim != h:
        raise CertificateError("hom dimension differs from the part-level table")
    # all candidate blocks at once: (num_candidates, n_v, m_v) per vertex;
    # with h == 0 the zero map is the only candidate
    stacks = hs.stack(coeff_vectors(f, h)[0])
    # one elimination per vertex on the transposed blocks gives each
    # candidate's rank (mono iff it equals dim x_v) and its image's RREF
    mono = np.ones(len(stacks[verts[0]]), dtype=bool)
    reds = {}
    for v in verts:
        reds[v], ranks = exactla.rref_stack_fp(stacks[v].transpose(0, 2, 1), p)
        mono &= ranks == x.rep.dims[v]
    image_keys = np.concatenate([reds[v].reshape(len(reds[v]), -1) for v in verts], axis=1)
    seen = set()
    firsts = []
    for idx in np.nonzero(mono)[0]:
        key = image_keys[idx].tobytes()
        if key not in seen:
            seen.add(key)
            firsts.append(idx)
    if not firsts:
        return
    # every unique mono's image is its reduced stack (rank dim x_v, so all
    # rows nonzero): one batched cokernel build and one certificate for all
    monos = {v: stacks[v][firsts] for v in verts}
    quotients, proj = quotient_stack(y.rep, {v: reds[v][firsts] for v in verts})
    _verify_exact_stack(f, monos, proj)
    for k, (coker, q) in enumerate(quotients):
        cls = _weak_class(data, coker)
        if cls is None:
            continue  # cokernel leaves the GP closure: not a cofibration
        cand = Morphism(x.rep, y.rep, {v: monos[v][k] for v in verts})
        data.cofibrations.append(
            Cofibration(
                x.index, y.index, cand, coker, q, cls,
                split=_is_split(data, x, y, cls),
            )
        )


def _split_cofibration(data, x: WObject, y: WObject):
    """Record the canonical block inclusion when y dominates x summand-wise."""
    mono = _split_inclusion(data, x, y)
    if mono is None:
        return
    coker, q = cokernel(mono)
    cls = _weak_class(data, coker)
    if cls is None:
        raise CertificateError("split complement must stay in the closure")
    _verify_exact(mono, q)
    data.cofibrations.append(
        Cofibration(x.index, y.index, mono, coker, q, cls, split=True)
    )


def _split_inclusion(data, x: WObject, y: WObject):
    """The canonical inclusion when y dominates x as a summand multiset.

    Objects are sums of their parts in parts_pool order, so at each vertex
    the first x-multiplicity copies of every part sit in y as one diagonal
    0/1 block at that part's offsets; `verify()` certifies the module map
    and the caller certifies exactness.
    """
    xa, ya = x.all_mults, y.all_mults
    if any(xc > yc for xc, yc in zip(xa, ya)):
        return None
    f = data.algebra.field
    blocks = {}
    for v in data.algebra.quiver.vertices:
        block = f.zeros((y.rep.dims[v], x.rep.dims[v]))
        xoff = yoff = 0
        for part, xm, ym in zip(data.parts_pool, xa, ya):
            run = np.arange(xm * part.dims[v])
            block[yoff + run, xoff + run] = f.canon(1)
            xoff += len(run)
            yoff += ym * part.dims[v]
        blocks[v] = block
    return Morphism(x.rep, y.rep, blocks).verify()


def _is_split(data, x: WObject, y: WObject, coker_cls: int) -> bool:
    # informational: weak classes add up exactly as in a split sequence
    xv = data.classes[x.weak_class]
    yv = data.classes[y.weak_class]
    cv = data.classes[coker_cls]
    return tuple(a + c for a, c in zip(xv, cv)) == yv


def _verify_exact(mono: Morphism, q: Morphism):
    """Certify 0 -> X -> Y -> Z -> 0 for one pair: the stack of one."""
    _verify_exact_stack(
        mono.domain.field,
        {v: b[None] for v, b in mono.blocks.items()},
        {v: b[None] for v, b in q.blocks.items()},
    )


def _verify_exact_stack(f, monos: dict, quots: dict):
    """Certify 0 -> X -> Y -> Z -> 0 for every pair (monos[v][k],
    quots[v][k]) of the (N, dim Y_v, dim X_v) and (N, dim Z_v, dim Y_v)
    stacks: every mono injective, every q onto, q . mono = 0 and
    dim Y = dim X + dim Z.  One rank test of each stack per vertex."""
    if any(np.any(exactla.rank_stack(f, m) != m.shape[2]) for m in monos.values()):
        raise CertificateError("cofibration is not a monomorphism")
    if any(np.any(exactla.rank_stack(f, q) != q.shape[1]) for q in quots.values()):
        raise CertificateError("quotient map is not an epimorphism")
    for v in monos:
        if np.any(quots[v] @ monos[v] % f.char != 0):
            raise CertificateError("quotient does not vanish on the cofibration")
    ydim, xdim = (sum(m.shape[i] for m in monos.values()) for i in (1, 2))
    if ydim != xdim + sum(q.shape[1] for q in quots.values()):
        raise CertificateError("dimensions of the sequence do not add up")


def k0_oracle(data: FiniteWaldhausenData) -> AbelianGroupDescription:
    """Grothendieck group: weak classes modulo [Y] = [X] + [Z] per simplex.

    Generators are the classes referenced by the enumerated objects and
    cofibrations; classes registered later by pushout probes (gluing checks)
    are not part of the presentation.
    """
    used = sorted(
        {o.weak_class for o in data.objects}
        | {c.coker_class for c in data.cofibrations}
    )
    index = {cls: i for i, cls in enumerate(used)}
    labels = [f"w{cls}" for cls in used]
    rows = []
    for c in data.cofibrations:
        row = [0] * len(used)
        row[index[data.objects[c.dst].weak_class]] += 1
        row[index[data.objects[c.src].weak_class]] -= 1
        row[index[c.coker_class]] -= 1
        rows.append(row)
    return group_from_presentation(labels, rows)


# ---------------------------------------------------------------------------
# the gluing axiom


def _induced_pushout_map(q: Morphism, qp: Morphism, vy: Morphism, vz: Morphism):
    """Unique map P -> P' with (map) . q = q' . (vy + vz)."""
    f = q.domain.field
    ladder = Morphism(q.domain, qp.domain, {
        v: block_diag(f, [vy.blocks[v], vz.blocks[v]]) for v in q.blocks
    })
    return descend(q, qp.compose(ladder))


@dataclass
class GluingReport:
    trials: int
    counterexamples: list
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _random_hom(x: Representation, z: Representation, rng: Random):
    hs = hom_basis(x, z)
    if hs.dim == 0:
        return zero_morphism(x, z)
    f = x.field
    return hs.element([f.random_scalar(rng) for _ in range(hs.dim)])


def _random_automorphism(x: Representation, rng: Random):
    if x.is_zero:
        return identity_morphism(x)
    hs = hom_basis(x, x)
    f = x.field
    for _ in range(16):
        cand = hs.element([f.random_scalar(rng) for _ in range(hs.dim)])
        if cand.is_iso():
            return cand
    return identity_morphism(x)


def gluing_check(data: FiniteWaldhausenData, trials: int = 100, seed: int = 0) -> GluingReport:
    """Random ladders of pushout squares: verify the induced map of pushouts
    is a weak equivalence and that pushouts stay inside the catalog closure."""
    rng = Random(seed)
    a = data.algebra
    report = GluingReport(trials=trials, counterexamples=[])
    nontrivial = [c for c in data.cofibrations if not data.objects[c.src].is_zero]
    pool = nontrivial or data.cofibrations
    verts = a.quiver.vertices
    for t in range(trials):
        c = pool[rng.randrange(len(pool))]
        x = data.objects[c.src].rep
        y = data.objects[c.dst].rep
        z = data.objects[rng.randrange(len(data.objects))].rep
        attach = _random_hom(x, z, rng)
        q = pushout(c.mono, attach)
        kind = t % 3
        if kind == 0:
            # conjugate by automorphisms of x and y (isomorphism verticals)
            u = _random_automorphism(x, rng)
            w = _random_automorphism(y, rng)
            uinv = u.inverse()
            mono2 = w.compose(c.mono).compose(uinv)
            attach2 = attach.compose(uinv)
            vy, vz = w, identity_morphism(z)
        elif kind == 1:
            # pad y with a projective
            pad = projective(a, verts[t % len(verts)])
            _, injs, _ = direct_sum([y, pad])
            mono2, attach2 = injs[0].compose(c.mono), attach
            vy, vz = injs[0], identity_morphism(z)
        else:
            # pad z with a projective
            pad = projective(a, verts[t % len(verts)])
            _, injs, _ = direct_sum([z, pad])
            mono2, attach2 = c.mono, injs[0].compose(attach)
            vy, vz = identity_morphism(y), injs[0]
        if not mono2.is_mono():
            raise CertificateError("modified cofibration is not a monomorphism")
        q2 = pushout(mono2, attach2)
        phi = _induced_pushout_map(q, q2, vy, vz)
        if not is_stable_iso(phi):
            report.counterexamples.append(
                {"trial": t, "kind": kind, "reason": "induced map not a weak equivalence"}
            )
            continue
        # only a non-GP summand is a counterexample; a failed certificate or
        # an internal error raises
        if _weak_class(data, q.codomain) is None:
            report.counterexamples.append(
                {"trial": t, "kind": kind, "reason": "pushout left the closure: non-GP summand"}
            )
    report.notes.append(
        f"{trials} ladders over {len(pool)} cofibrations; "
        f"{len(report.counterexamples)} counterexamples"
    )
    return report


# ---------------------------------------------------------------------------
# S3 flags and the simplicial face identities


@dataclass
class SnSimplex:
    """A flag of cofibrations with chosen subquotients.

    For n = 3: objects (c1, c2, c3), monos (m12, m23, m13), subquotients
    (c12, c13, c23) with their quotient maps, and the induced mono
    iota: c12 -> c13 whose cokernel is the remaining subquotient c23.
    """

    objects: tuple
    monos: tuple
    subquotients: tuple
    quotients: tuple
    iota: Morphism


def sample_s3_flags(data: FiniteWaldhausenData, count: int = 32, seed: int = 0):
    """Composable cofibration pairs upgraded to full 3-flags."""
    rng = Random(seed)
    by_src = {}
    for c in data.cofibrations:
        by_src.setdefault(c.src, []).append(c)
    order = list(range(len(data.cofibrations)))
    rng.shuffle(order)
    flags = []
    for idx in order:
        if len(flags) == count:
            break
        c = data.cofibrations[idx]
        conts = by_src.get(c.dst)
        if not conts:
            continue
        d = conts[rng.randrange(len(conts))]
        m12, m23 = c.mono, d.mono
        m13 = m23.compose(m12)
        c13, q13 = cokernel(m13)
        iota = descend(c.quotient, q13.compose(m23))
        if not iota.is_mono():
            raise CertificateError("induced subquotient map is not mono")
        flags.append(
            SnSimplex(
                objects=(
                    data.objects[c.src].rep,
                    data.objects[c.dst].rep,
                    data.objects[d.dst].rep,
                ),
                monos=(m12, m23, m13),
                subquotients=(c.coker, c13, d.coker),
                quotients=(c.quotient, q13, d.quotient),
                iota=iota,
            )
        )
    return flags


def s3_face_identities(flag: SnSimplex):
    """Check d_i d_j = d_{j-1} d_i for i < j on one 3-flag.

    Faces of the flag are S2 simplices (sub, total, quotient); faces of an
    S2 simplex are objects with d2 = sub, d1 = total, d0 = quotient.
    Returns the list of failed identity pairs (empty = all hold); the only
    non-literal comparison is coker(iota) against c23, settled up to
    isomorphism.
    """
    c1, c2, c3 = flag.objects
    c12, c13, c23 = flag.subquotients
    coker_iota, _ = cokernel(flag.iota)
    s2 = {
        0: (c12, c13, coker_iota),
        1: (c2, c3, c23),
        2: (c1, c3, c13),
        3: (c1, c2, c12),
    }

    def s1(face, k):
        x, y, z = face
        return {2: x, 1: y, 0: z}[k]

    failures = []
    for j in range(1, 4):
        for i in range(j):
            lhs = s1(s2[j], i)
            rhs = s1(s2[i], j - 1)
            if lhs.key() == rhs.key():
                continue
            ok, _ = is_isomorphic(lhs, rhs)
            if not ok:
                failures.append((i, j, lhs.dim_vector, rhs.dim_vector))
    return failures
