"""Benchmark inputs: algebra families, seeded presentations and references.

Every input is a stratum (family, parameters, field).  The strata are the
same for every seed; the seed only draws the presentation of each one:
vertex and arrow names and a nonzero scalar on each monomial relation.
Those choices change the `.alg` text but neither the algebra nor the order
of its basis, so every seed asks the same questions at the same cost.

The references here are independent of the route under test:

- the cokernel of the Cartan matrix (K0 of the stable GP category of a
  Gorenstein algebra, Buchweitz 1986 and Happel 1991), built from the
  dimension vectors of the indecomposable projectives of a separate
  algebra instance;
- the catalog size of a self-injective Nakayama algebra with n vertices and
  Loewy length L, which is n(L-1) (k[x]/(x^n) is the case of one vertex);
- K1 = (Z/(p-1))^n when L = 2, since the stable endomorphism algebra of
  the catalog sum is then a product of n copies of GF(p);
- the verdicts and groups the package's tests fix for the shipped files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import gpktheory as gpk

FIELDS = (2, 3, 5, 7)
ARROW_NAMES = "abcdefghkmnpqrstuwxyz"


@dataclass(frozen=True)
class Stratum:
    family: str
    params: tuple  # ((name, value), ...)
    p: int

    @property
    def key(self) -> str:
        ps = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}({ps})/GF({self.p})"

    def param(self, name):
        return dict(self.params)[name]


@dataclass
class Presentation:
    """A quiver with monomial or binomial relations, in library terms.

    arrows: [(label, source, target)], relations: [[(coeff, written word)]].
    """

    name: str
    p: int
    vertices: list
    arrows: list
    relations: list

    def build(self):
        q = gpk.Quiver.make(self.vertices, self.arrows)
        rels = [gpk.RelationElem.from_written(q, terms) for terms in self.relations]
        return q, rels, gpk.build_algebra(q, rels, gpk.FieldSpec(self.p))


# ---------------------------------------------------------------------------
# families, as (vertices, arrows, relations) with canonical labels


def _cycle_paths(n, length):
    """Arrow indices of the path of the given length starting at each vertex."""
    return [[(i + j) % n for j in range(length)] for i in range(n)]


def _family(stratum: Stratum):
    """(vertex count, [(src, tgt)], [[(coeff, arrow indices in application order)]])."""
    f = stratum.family
    if f == "kxn":
        n = stratum.param("n")
        return 1, [(0, 0)], [[(1, [0] * n)]]
    if f == "two_cycle":
        k = stratum.param("power")
        return 2, [(0, 1), (1, 0)], [[(1, [0, 1] * k)]]
    if f == "nakayama":
        n, length = stratum.param("n"), stratum.param("L")
        arrows = [(i, (i + 1) % n) for i in range(n)]
        return n, arrows, [[(1, path)] for path in _cycle_paths(n, length)]
    if f == "gentle_cycle":
        # oriented n-cycle with zero relations on the listed consecutive
        # pairs; never all of them, so the algebra has finite global dimension
        n = stratum.param("n")
        arrows = [(i, (i + 1) % n) for i in range(n)]
        rels = [[(1, [i, (i + 1) % n])] for i in stratum.param("zero_at")]
        return n, arrows, rels
    if f == "gentle_arm":
        # a 2-cycle with both composites zero (a Gorenstein but not
        # self-injective gentle algebra) and a linear arm of the given length
        # leaving vertex 1; consecutive arm arrows compose to zero
        m = stratum.param("arm")
        arrows = [(0, 1), (1, 0)] + [(1 + i, 2 + i) for i in range(m)]
        rels = [[(1, [0, 1])], [(1, [1, 0])]]
        rels += [[(1, [2 + i, 3 + i])] for i in range(m - 1)]
        return 2 + m, arrows, rels
    raise ValueError(f"unknown family {f}")


def generated_strata():
    strata = []
    for p in FIELDS:
        strata += [Stratum("kxn", (("n", n),), p) for n in range(2, 7)]
        strata += [Stratum("two_cycle", (("power", k),), p) for k in (1, 2, 3)]
        strata += [
            Stratum("nakayama", (("n", n), ("L", length)), p)
            for n, length in ((2, 2), (3, 2), (2, 3), (2, 4))
        ]
        strata += [
            Stratum("gentle_cycle", (("n", 3), ("zero_at", (0,))), p),
            Stratum("gentle_cycle", (("n", 4), ("zero_at", (0, 2))), p),
            Stratum("gentle_arm", (("arm", 1),), p),
            Stratum("gentle_arm", (("arm", 2),), p),
        ]
    return strata


def known_defect(stratum: Stratum) -> bool:
    """Strata the package fails on at the commit the benchmark was added on.

    k[x]/(x^n) for n >= 4 and Nakayama with L = 4 end in the catalog-closure
    RuntimeError; k[x]/(x^3), (ba)^3 and Nakayama with L = 3 end in
    NoncommutativeStableEnd while computing K1.
    """
    f = stratum.family
    return ((f == "kxn" and stratum.param("n") >= 3)
            or (f == "two_cycle" and stratum.param("power") == 3)
            or (f == "nakayama" and stratum.param("L") >= 3))


def draw_presentation(stratum: Stratum, rng: random.Random) -> Presentation:
    """A seeded presentation of the stratum's algebra.

    Names are drawn in increasing order and the arrow lines keep their
    order, so the package builds the same basis and does the same work for
    every seed; only the text differs.
    """
    nv, arrows, rels = _family(stratum)
    offset = rng.randrange(1, 6)
    style = rng.choice(("{}", "v{}", "q{}"))
    vnames = [style.format(offset + i) for i in range(nv)]
    labels = sorted(rng.sample(ARROW_NAMES, len(arrows)))
    arrow_lines = [(labels[i], vnames[s], vnames[t]) for i, (s, t) in enumerate(arrows)]
    relations = []
    for terms in rels:
        scalar = rng.randrange(1, stratum.p)
        relations.append(
            [(c * scalar, [labels[i] for i in reversed(path)]) for c, path in terms]
        )
    name = stratum.family + "".join(f"_{v}" for _, v in stratum.params)
    name = name.replace("(", "").replace(")", "").replace(",", "").replace(" ", "")
    return Presentation(name, stratum.p, vnames, arrow_lines, relations)


# ---------------------------------------------------------------------------
# the shipped examples, as the package's data files present them


SHIPPED = {
    "kx2": (["1"], [("x", "1", "1")], [[(1, ["x", "x"])]], 2),
    "semisimple2": (["1", "2"], [], [], 2),
    "example61A": (
        ["1", "2"], [("a", "1", "2"), ("b", "2", "1")], [[(1, ["b", "a", "b", "a"])]], 5,
    ),
    "example61B": (
        ["1", "2"],
        [("x", "1", "2"), ("y", "2", "1"), ("z", "2", "2")],
        [
            [(1, ["y", "x"])],
            [(1, ["z", "x"])],
            [(1, ["y", "z"])],
            [(1, ["z", "z"]), (-1, ["x", "y"])],
        ],
        3,
    ),
    "example62A": (
        ["1", "2", "3"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")],
        [[(1, ["c", "b", "a"])], [(1, ["b", "a", "c", "b"])]],
        3,
    ),
    "example62B": (
        ["1", "2", "3"],
        [("r", "1", "2"), ("s", "2", "1"), ("d", "2", "3"), ("t", "3", "2")],
        [
            [(1, ["d", "r"])],
            [(1, ["s", "r"])],
            [(1, ["s", "t"])],
            [(1, ["r", "s"]), (-1, ["t", "d"])],
        ],
        3,
    ),
}

# verdict, catalog size and K1 invariant factors as the package's tests fix
# them (tests/test_cli.py, tests/test_acceptance.py); K0 is checked against
# the Cartan cokernel instead, because the one acceptance check that names a
# K0 for the 61A/61B pair is the deliberately red one
SHIPPED_EXPECTED = {
    "kx2": ("CMFinite", 1, ()),
    "semisimple2": ("CMFree", 0, ()),
    "example61A": ("CMFinite", 1, (4,)),
    "example61B": ("CMFinite", 1, (2,)),
    "example62A": ("CMFree", 0, ()),
    "example62B": ("CMFree", 0, ()),
}


def shipped(name: str, p: int = None) -> Presentation:
    vertices, arrows, relations, own = SHIPPED[name]
    return Presentation(name, p or own, vertices, arrows, relations)


# ---------------------------------------------------------------------------
# references


def cartan_k0(a):
    """coker of the Cartan matrix, as (free rank, invariant factors)."""
    rows = [gpk.projective(a, v).dim_vector for v in a.quiver.vertices]
    g = gpk.group_from_presentation(a.quiver.vertices, rows)
    return g.free_rank, tuple(g.invariant_factors)


def expected_catalog_size(stratum: Stratum):
    if stratum.family == "kxn":
        return stratum.param("n") - 1
    if stratum.family == "nakayama":
        return stratum.param("n") * (stratum.param("L") - 1)
    return None


def expected_k1(stratum: Stratum):
    """K1 invariant factors where they are known in closed form, else None."""
    n = None
    if stratum.family == "kxn" and stratum.param("n") == 2:
        n = 1
    if stratum.family == "nakayama" and stratum.param("L") == 2:
        n = stratum.param("n")
    if n is None:
        return None
    return (stratum.p - 1,) * n if stratum.p > 2 else ()
