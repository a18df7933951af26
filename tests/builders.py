"""Constructors for the worked example algebras used across the test suite."""

import numpy as np

from gpktheory.exactla import FieldSpec, invert
from gpktheory.presentation import Quiver, RelationElem, build_algebra
from gpktheory.rep import Representation, zero_morphism

GF2 = FieldSpec(2)


def two_cycle(field=GF2, power=2, max_len=12):
    """Arrows a: 1 -> 2 and b: 2 -> 1 with (b*a)^power = 0."""
    q = Quiver.make(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    rels = [RelationElem.from_written(q, [(1, ["b", "a"] * power)])]
    return build_algebra(q, rels, field, max_len=max_len)


def alg61a(field=GF2):
    return two_cycle(field, 2)


def alg61b(field=GF2):
    """1 <-> 2 with a loop z at 2; y*x = z*x = y*z = 0, z*z = x*y."""
    q = Quiver.make(
        ["1", "2"], [("x", "1", "2"), ("y", "2", "1"), ("z", "2", "2")]
    )
    rels = [
        RelationElem.from_written(q, [(1, ["y", "x"])]),
        RelationElem.from_written(q, [(1, ["z", "x"])]),
        RelationElem.from_written(q, [(1, ["y", "z"])]),
        RelationElem.from_written(q, [(1, ["z", "z"]), (-1, ["x", "y"])]),
    ]
    return build_algebra(q, rels, field)


def alg62a(field=GF2):
    """Oriented 3-cycle with c*b*a = 0 and b*a*c*b = 0."""
    q = Quiver.make(
        ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")]
    )
    rels = [
        RelationElem.from_written(q, [(1, ["c", "b", "a"])]),
        RelationElem.from_written(q, [(1, ["b", "a", "c", "b"])]),
    ]
    return build_algebra(q, rels, field)


def alg62b(field=GF2):
    """1 <-> 2 <-> 3; d*r = s*r = s*t = 0 and r*s = t*d."""
    q = Quiver.make(
        ["1", "2", "3"],
        [("r", "1", "2"), ("s", "2", "1"), ("d", "2", "3"), ("t", "3", "2")],
    )
    rels = [
        RelationElem.from_written(q, [(1, ["d", "r"])]),
        RelationElem.from_written(q, [(1, ["s", "r"])]),
        RelationElem.from_written(q, [(1, ["s", "t"])]),
        RelationElem.from_written(q, [(1, ["r", "s"]), (-1, ["t", "d"])]),
    ]
    return build_algebra(q, rels, field)


def loop_square_zero(field=GF2):
    """One vertex, loop x, x*x = 0."""
    q = Quiver.make(["1"], [("x", "1", "1")])
    rels = [RelationElem.from_written(q, [(1, ["x", "x"])])]
    return build_algebra(q, rels, field)


def truncated_polynomials(field=GF2, n=3):
    """k[x]/(x^n)."""
    q = Quiver.make(["1"], [("x", "1", "1")])
    return build_algebra(q, [RelationElem.from_written(q, [(1, ["x"] * n)])], field)


def semisimple_two(field=GF2):
    """Two vertices, no arrows."""
    q = Quiver.make(["1", "2"], [])
    return build_algebra(q, [], field)


def nakayama(field=GF2, n=2, length=2):
    """Oriented n-cycle 1 -> 2 -> ... -> n -> 1 with every path of the
    given length zero (a self-injective Nakayama algebra)."""
    names = [str(i + 1) for i in range(n)]
    labels = [f"a{i + 1}" for i in range(n)]
    q = Quiver.make(names, [(labels[i], names[i], names[(i + 1) % n]) for i in range(n)])
    rels = [
        RelationElem.from_written(
            q, [(1, [labels[(i + j) % n] for j in reversed(range(length))])]
        )
        for i in range(n)
    ]
    return build_algebra(q, rels, field)


def random_matrix(f, rng, shape):
    """A matrix of f.random_scalar draws from rng, filled row by row."""
    a = f.zeros(shape)
    for i in range(shape[0]):
        for j in range(shape[1]):
            a[i, j] = f.random_scalar(rng)
    return a


def twisted(m, rng):
    """m transported along a random invertible change of basis per vertex."""
    f = m.field
    basis = {}
    for v, d in m.dims.items():
        while True:
            t = random_matrix(f, rng, (d, d))
            if invert(f, t) is not None:
                basis[v] = t
                break
    maps = {
        arw.label: f.matmul(
            basis[arw.target],
            f.matmul(m.maps[arw.label], invert(f, basis[arw.source])),
        )
        for arw in m.algebra.quiver.arrows
    }
    return Representation(m.algebra, dict(m.dims), maps)


def matrix_power(f, mat, k):
    """mat^k by repeated squaring: the reference power of the Fitting tests."""
    out = f.eye(mat.shape[0])
    base = mat
    while k:
        if k & 1:
            out = f.matmul(out, base)
        base = f.matmul(base, base)
        k >>= 1
    return out


def seeded_sums(a, rng):
    """Two direct sums of catalog items and projectives, one of them twisted."""
    from gpktheory.gorenstein import gp_catalog
    from gpktheory.rep import direct_sum, projective

    pool = list(gp_catalog(a).items) + [projective(a, v) for v in a.quiver.vertices]
    two = direct_sum([rng.choice(pool) for _ in range(2)])[0]
    three = direct_sum([rng.choice(pool) for _ in range(3)])[0]
    return [twisted(two, rng), three]


def all_coeff_vectors(p, n):
    """Every vector of GF(p)^n as a list, in increasing base-p order (entry i
    is digit i): the pure-Python reference for exactla.coeff_vectors."""
    for x in range(p**n):
        out = []
        for _ in range(n):
            out.append(x % p)
            x //= p
        yield out


def every_coeff_vector(f, n, **_):
    """Stand-in for exactla.coeff_vectors on an exhaustive space: every
    nonzero vector, not one per line.  The reference for the searches that
    take one vector per line."""
    return [v for v in all_coeff_vectors(f.char, n) if any(v)], True


def reference_find_isomorphism(m, n):
    """(index, map): the isomorphism search one candidate at a time, as
    rep._find_isomorphism ran before it tested them in batches: the first
    row of `coeff_vectors(f, dim Hom(m, n), tries=128)` whose map passes
    `is_iso`, with its index, or (None, None)."""
    from gpktheory.exactla import coeff_vectors
    from gpktheory.rep import hom_basis

    hs = hom_basis(m, n)
    coeffs, _ = coeff_vectors(m.field, hs.dim, tries=128)
    for i, c in enumerate(coeffs):
        g = hs.element(c)
        if g.is_iso():
            return i, g
    return None, None


def reference_assemble(m, n, left, right):
    """(f: m -> n, g: n -> m) summed in one pass over `summands` triples of
    m (left) and of n (right), as `rep.assemble` built both maps before the
    map back was split off: each piece x takes the first unused piece y
    isomorphic to it, w the `is_isomorphic` witness, f sums
    incl_y w proj_x and g sums incl_x w^-1 proj_y."""
    from gpktheory.rep import is_isomorphic

    f, g = zero_morphism(m, n), zero_morphism(n, m)
    used = set()
    for x, incl_x, proj_x in left:
        for j, (y, incl_y, proj_y) in enumerate(right):
            if j not in used:
                ok, w = is_isomorphic(x, y)
                if ok:
                    break
        used.add(j)
        f = f.add(incl_y.compose(w).compose(proj_x))
        g = g.add(incl_x.compose(w.inverse()).compose(proj_y))
    return f, g


def reference_is_stable_iso(f):
    """Stable invertibility of f: m -> n by the linear solve alone, with no
    certificate: the route `stable.is_stable_iso` falls back to."""
    from gpktheory.rep import hom_basis
    from gpktheory.stable import _solve_stable_inverse, _space_cache

    m, n = f.domain, f.codomain
    back = hom_basis(n, m)
    return _solve_stable_inverse(f, _space_cache(m, m), _space_cache(n, n), back) is not None


def stable_witness_reference(m, n):
    """(f, g) mutually inverse stable morphisms m -> n -> m, or None: a
    search for a stable witness, the reference that reaches the answer of
    `stable.is_weakly_equivalent` without decomposing.

    Candidates are the zero map, then one coset representative per line of
    the stable Hom, from `coeff_vectors`: stable invertibility of f depends
    only on its stable class, and f and c*f (c != 0) are invertible
    together, so the search is complete.  Each candidate is solved
    linearly for its stable inverse.  A stable Hom past the exhaustive cap
    raises ValueError."""
    from itertools import chain

    from gpktheory.exactla import coeff_vectors
    from gpktheory.rep import HomSpace
    from gpktheory.stable import _solve_stable_inverse, _space_cache

    fwd, back = _space_cache(m, n), _space_cache(n, m)
    end_m, end_n = _space_cache(m, m), _space_cache(n, n)
    coeffs, exhaustive = coeff_vectors(m.field, fwd.dim)
    if not exhaustive:
        raise ValueError(f"stable Hom of dimension {fwd.dim} is past the exhaustive cap")
    coset = HomSpace(m, n, tuple(fwd.coset_basis()))
    for cand in chain([zero_morphism(m, n)], map(coset.element, coeffs)):
        g = _solve_stable_inverse(cand, end_m, end_n, back.hom)
        if g is not None:
            return cand, g
    return None


def reference_k0_harvest(a, catalog):
    """The K0 relation harvest as it ran apart from the catalog, kept as a
    reference for the rows gp_catalog records.

    Ends are the catalog items and the indecomposable projectives.  Every
    ordered pair (Z, X) of ends gives a split row [X + Z] - [X] - [Z], and,
    when Z is not projective, one row [E] - [X] - [Z] per line of
    Ext^1(Z, X).  Rows are in catalog item coordinates.  Returns (split
    rows, extension rows, number of Ext^1 classes from an item to a
    projective).
    """
    from gpktheory.exactla import coeff_vectors
    from gpktheory.rep import (
        HomSpace,
        decompose,
        direct_sum,
        ext1_class_reps,
        is_isomorphic,
        is_projective,
        middle_term,
        projective,
    )

    items = list(catalog.items)

    def row_of(x, z, e):
        row = [0] * len(items)
        for part, mult in decompose(e):
            if not (part.is_zero or is_projective(part)):
                row[_match(part)] += mult
        for end in (x, z):
            if not is_projective(end):
                row[_match(end)] -= 1
        return tuple(row)

    def _match(part):
        for i, item in enumerate(items):
            if is_isomorphic(part, item)[0]:
                return i
        raise AssertionError(f"summand of dims {part.dim_vector} is not a catalog item")

    ends = items + [projective(a, v) for v in a.quiver.vertices]
    split, extension, item_to_projective = [], [], 0
    for z in ends:
        for x in ends:
            split.append(row_of(x, z, direct_sum([x, z])[0]))
            if is_projective(z):
                continue
            classes, enclosing = ext1_class_reps(z, x)
            if is_projective(x):
                item_to_projective += len(classes)
            if not classes:
                continue
            ext = HomSpace(classes[0].domain, classes[0].codomain, tuple(classes))
            for coeffs in coeff_vectors(a.field, len(classes), tries=128)[0]:
                e = middle_term(z, x, ext.element(coeffs), enclosing)[0]
                extension.append(row_of(x, z, e))
    return split, extension, item_to_projective


# shared expensive builds, memoized for the whole pytest run ----------------

_WDATA_CACHE = {}


def cached_wdata(name):
    """Waldhausen data for the standard examples, built once per session."""
    if name not in _WDATA_CACHE:
        from gpktheory.gorenstein import gp_catalog
        from gpktheory.waldhausen import build_wdata

        makers = {
            "kx2_gf2": (lambda: loop_square_zero(FieldSpec(2)), 2),
            "semisimple2_gf2": (lambda: semisimple_two(FieldSpec(2)), 2),
            "61a_gf5": (lambda: alg61a(FieldSpec(5)), 2),
            "kx2_gf2_d1": (lambda: loop_square_zero(FieldSpec(2)), 1),
            "61b_gf3_d1": (lambda: alg61b(FieldSpec(3)), 1),
            "62a_gf3": (lambda: alg62a(FieldSpec(3)), 2),
        }
        make, depth = makers[name]
        _WDATA_CACHE[name] = build_wdata(gp_catalog(make()), depth=depth)
    return _WDATA_CACHE[name]


# references for the vectorized product checks -------------------------------


def reference_associativity_failures(a):
    """Every basis triple (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k), found
    by a pure-Python triple loop over sparse products of a.structure."""
    f = a.field
    e = a.dim
    one = f.canon(1)
    table = [
        [[(k, a.structure[i, j, k]) for k in np.flatnonzero(a.structure[i, j])] for j in range(e)]
        for i in range(e)
    ]

    def mult_sparse(x, y):
        out = {}
        for i, ci in x.items():
            for j, cj in y.items():
                for k, ck in table[i][j]:
                    out[k] = out.get(k, 0) + ci * cj * ck
        return {k: f.canon(v) for k, v in out.items() if f.canon(v) != 0}

    return [
        (i, j, k)
        for i in range(e)
        for j in range(e)
        for k in range(e)
        if mult_sparse(mult_sparse({i: one}, {j: one}), {k: one})
        != mult_sparse({i: one}, mult_sparse({j: one}, {k: one}))
    ]


def reference_hom_element(hs, coeffs):
    """sum_i coeffs[i] basis[i] of a HomSpace, one scale and one add per
    nonzero coefficient."""
    f = hs.domain.field
    out = zero_morphism(hs.domain, hs.codomain)
    for c, b in zip(coeffs, hs.basis):
        if f.canon(c) != 0:
            out = out.add(b.scale(c))
    return out


# reference for the stacked quotient builder --------------------------------


def reference_quotient_by_rows(m, rows):
    """rep.quotient_by_rows with its fills written as loops: the projection
    has 1 at each free column and -R[i, c] at each pivot, the lift 1 at each
    free column, and each arrow map is P_w M_a L_u."""
    from gpktheory.exactla import rref
    from gpktheory.rep import Morphism

    f = m.field
    proj, lift, dims = {}, {}, {}
    for v in m.algebra.quiver.vertices:
        r = rows.get(v)
        red, piv = rref(f, r) if r is not None and len(r) else (f.zeros((0, m.dims[v])), [])
        free = [c for c in range(m.dims[v]) if c not in set(piv)]
        dims[v] = len(free)
        pr = f.zeros((len(free), m.dims[v]))
        lf = f.zeros((m.dims[v], len(free)))
        for k, c in enumerate(free):
            pr[k, c] = f.canon(1)
            lf[c, k] = f.canon(1)
            for i, pc in enumerate(piv):
                pr[k, pc] = f.canon(-red[i, c])
        proj[v], lift[v] = pr, lf
    maps = {
        arw.label: f.matmul(proj[arw.target], f.matmul(m.maps[arw.label], lift[arw.source]))
        for arw in m.algebra.quiver.arrows
    }
    q = Representation(m.algebra, dims, maps, check=False)
    return q, Morphism(m, q, proj)


# reference for the direct-sum structure maps ---------------------------------


def reference_direct_sum_blocks(reps):
    """rep.direct_sum's injection and projection blocks filled one entry at
    a time: (injections, projections), one {vertex: block} dict per summand."""
    a = reps[0].algebra
    f = a.field
    dims = {v: sum(r.dims[v] for r in reps) for v in a.quiver.vertices}
    off = {v: 0 for v in a.quiver.vertices}
    injections, projections = [], []
    for r in reps:
        inj, prj = {}, {}
        for v in a.quiver.vertices:
            inj[v] = f.zeros((dims[v], r.dims[v]))
            prj[v] = f.zeros((r.dims[v], dims[v]))
            for i in range(r.dims[v]):
                inj[v][off[v] + i, i] = f.canon(1)
                prj[v][i, off[v] + i] = f.canon(1)
            off[v] += r.dims[v]
        injections.append(inj)
        projections.append(prj)
    return injections, projections


# references for the pushout constructions -----------------------------------


def reference_middle_term(m, n, cls, enclosing):
    """rep.middle_term's (E, include_n, onto_m) built from the direct sum
    p0 + n: E is the cokernel of w |-> (incl w, -cls w), and onto_m is
    epi . pr_0 . L for L the right inverse of the quotient that
    solve_matrix gives."""
    from gpktheory.exactla import solve_matrix
    from gpktheory.rep import Morphism, cokernel, direct_sum

    omega, incl, p0, epi = enclosing
    f = m.field
    _, injs, prjs = direct_sum([p0, n])
    glue = injs[0].compose(incl).add(injs[1].compose(cls.scale(f.canon(-1))))
    e, proj = cokernel(glue)
    onto = {}
    for v in m.algebra.quiver.vertices:
        lift = solve_matrix(f, proj.blocks[v], f.eye(e.dims[v]))
        onto[v] = f.matmul(epi.blocks[v], f.matmul(prjs[0].blocks[v], lift))
    return e, proj.compose(injs[1]), Morphism(e, m, onto)


def reference_induced_pushout_map(q, qp, vy, vz):
    """waldhausen._induced_pushout_map with its ladder composed from the
    structure maps of two direct sums, inj_0 vy pr_0 + inj_1 vz pr_1, and
    each block of the map solved from map . q = q' . ladder."""
    from gpktheory.exactla import solve_matrix
    from gpktheory.rep import Morphism, direct_sum

    f = q.domain.field
    _, _, prjs = direct_sum([vy.domain, vz.domain])
    _, injs, _ = direct_sum([vy.codomain, vz.codomain])
    legs = [inj.compose(v).compose(prj) for inj, v, prj in zip(injs, (vy, vz), prjs)]
    blocks = {}
    for v in q.blocks:
        rhs = f.matmul(qp.blocks[v], f.add(legs[0].blocks[v], legs[1].blocks[v]))
        blocks[v] = solve_matrix(f, q.blocks[v].T, rhs.T).T
    return Morphism(q.codomain, qp.codomain, blocks)


# references for the vectorized kernel and solver fills -----------------------


def reference_kernel(field, a):
    """exactla.kernel with its fill written as one loop per free column and
    pivot: entry 1 at free column f, -R[i, f] at each pivot column."""
    from gpktheory.exactla import rref

    ncols = a.shape[1]
    red, pivots = rref(field, a)
    free = [c for c in range(ncols) if c not in set(pivots)]
    out = field.zeros((len(free), ncols))
    for k, f in enumerate(free):
        out[k, f] = 1
        for i, pc in enumerate(pivots):
            out[k, pc] = (-int(red[i, f])) % field.char
    return out


def reference_solve(solver, b):
    """LinearSolver.solve with one loop over the pivots: a nonzero entry at a
    pivot in the identity block means b is outside the column space."""
    f = solver.field
    tb = f.matmul(solver.transform, b.reshape(-1, 1)).reshape(-1)
    x = f.zeros((solver.k,))
    for i, pc in enumerate(solver.pivots):
        if pc >= solver.k:
            if tb[i] != 0:
                return None
        else:
            x[pc] = tb[i]
    return x


# references for the right-hand bimodule views --------------------------------


def _reference_row_module(m, u):
    """The right-algebra module on the left-vertex-u slice of m, over the
    opposite of the right algebra."""
    from gpktheory.morita import _rname, _tv
    from gpktheory.presentation import opposite

    op = opposite(m.right)
    dims = {v: m.rep.dims[_tv(u, v)] for v in m.right.quiver.vertices}
    maps = {al.label: m.rep.maps[_rname(u, al.label)] for al in op.quiver.arrows}
    return Representation(op, dims, maps, check=True)


def reference_right_module_of(m):
    """morita.right_module_of written out: the right arrows act blockwise
    over the left algebra's vertices."""
    from gpktheory.morita import _rname, _tv
    from gpktheory.presentation import opposite
    from gpktheory.rep import block_diag

    b, a = m.left, m.right
    op = opposite(a)
    bvs = b.quiver.vertices
    dims = {v: sum(m.rep.dims[_tv(u, v)] for u in bvs) for v in a.quiver.vertices}
    maps = {
        al.label: block_diag(a.field, [m.rep.maps[_rname(u, al.label)] for u in bvs])
        for al in op.quiver.arrows
    }
    return Representation(op, dims, maps, check=True)


def reference_right_dual(m):
    """morita.right_dual written out: the component at (v, u) is Hom over the
    opposite of the right algebra from the u-row of m to the opposite
    projective at v; the right algebra acts by right multiplication on the
    projectives, the left algebra by precomposing with its action on rows."""
    from gpktheory.morita import Bimodule, _lname, _rname, _tv, tensor_algebra
    from gpktheory.presentation import opposite
    from gpktheory.rep import (
        Morphism,
        _right_mult_on_projectives,
        hom_basis,
        hom_family_rep,
        projective,
    )

    b, a = m.left, m.right
    t = tensor_algebra(a, b)
    op = opposite(a)
    rows = {u: _reference_row_module(m, u) for u in b.quiver.vertices}
    projs = {v: projective(op, v) for v in a.quiver.vertices}
    homs = {
        _tv(v, u): hom_basis(rows[u], projs[v])
        for v in a.quiver.vertices
        for u in b.quiver.vertices
    }
    actions = {}
    for al in a.quiver.arrows:
        w, v = al.source, al.target
        for u in b.quiver.vertices:
            rho = _right_mult_on_projectives(projs[w], projs[v], al.label)
            actions[_lname(al.label, u)] = (_tv(w, u), _tv(v, u), lambda g, r=rho: r.compose(g))
    for v in a.quiver.vertices:
        for be in b.quiver.arrows:
            u0, u1 = be.source, be.target
            left_act = Morphism(
                rows[u0],
                rows[u1],
                {v2: m.rep.maps[_lname(be.label, v2)] for v2 in a.quiver.vertices},
            )
            actions[_rname(v, be.label)] = (
                _tv(v, u1),
                _tv(v, u0),
                lambda g, la=left_act: g.compose(la),
            )
    return Bimodule(a, b, hom_family_rep(t, homs, actions))
