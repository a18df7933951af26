"""Path algebra construction: bases, normal forms, opposites, admissibility."""

import importlib.util
import sys
from pathlib import Path as FilePath
from random import Random

import numpy as np
import pytest

from gpktheory import presentation
from gpktheory.cli import DATA_DIR, load_algebra_file
from gpktheory.exactla import CertificateError, FieldSpec
from gpktheory.morita import tensor_algebra
from gpktheory.presentation import (
    InvalidRelation,
    NotAdmissibleWithinBound,
    Path,
    Quiver,
    RelationElem,
    _reverse_path,
    build_algebra,
    enumerate_paths,
    opposite,
    path_from_written,
)

from builders import (
    alg61a,
    alg61b,
    alg62a,
    alg62b,
    loop_square_zero,
    reference_associativity_failures,
    semisimple_two,
)

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)


def test_path_written_order():
    q = Quiver.make(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    # written b*a means "a first, then b": a path from 1 back to 1
    p = path_from_written(q, ["b", "a"])
    assert p.source == "1" and p.target == "1"
    assert p.arrows == ("a", "b")
    assert str(p) == "b*a"


def test_enumerate_paths_two_cycle():
    q = Quiver.make(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    ps = enumerate_paths(q, 3)
    # lengths 0..3, exactly one path per (source, length)
    assert len(ps) == 8
    assert [p.length for p in ps] == [0, 0, 1, 1, 2, 2, 3, 3]


def test_two_cycle_algebra_structure():
    a = alg61a()
    # basis: e1, e2, a, b, b*a, a*b, a*b*a, b*a*b, a*b*a*b
    assert a.dim == 9
    # a*b*a*b survives at length 4; every length-5 path vanishes
    assert a.loewy_length == 5
    assert a.is_monomial
    names = sorted(str(p) for p in a.basis)
    assert names == sorted(
        ["e_1", "e_2", "a", "b", "b*a", "a*b", "a*b*a", "b*a*b", "a*b*a*b"]
    )
    # b*a*b*a and everything longer is zero
    assert not a.element_from_str("b*a*b*a").any()
    top = a.zero()
    top[a.index[path_from_written(a.quiver, ["a", "b", "a", "b"])]] = 1
    assert (a.element_from_str("a*b*a*b") == top).all()
    # projective bases: paths out of 1 have dims (2, 2); out of 2 have (2, 3)
    out1 = [a.basis[i] for i in a.paths_with_source("1")]
    out2 = [a.basis[i] for i in a.paths_with_source("2")]
    assert len(out1) == 4 and len(out2) == 5
    assert sum(1 for p in out1 if p.target == "1") == 2
    assert sum(1 for p in out2 if p.target == "1") == 2
    assert sum(1 for p in out2 if p.target == "2") == 3


def _rewrite_oracle_61b():
    """Independent string rewriting for the loop algebra: z*z -> x*y, drop zeros.

    Words are written-order strings over arrows x: 1->2, y: 2->1, z: 2->2.
    Returns the set of normal-form words (plus trivial paths).
    """
    arrows = {"x": ("1", "2"), "y": ("2", "1"), "z": ("2", "2")}

    def composable(w):
        # w is written order: rightmost applies first
        for right, left in zip(reversed(w), list(reversed(w))[1:]):
            if arrows[right][1] != arrows[left][0]:
                return False
        return True

    def reduce(word):
        # kill y*x, z*x, y*z; rewrite z*z -> x*y; iterate to a fixed point
        w = word
        while True:
            if any(bad in w for bad in ("yx", "zx", "yz")):
                return None
            if "zz" in w:
                w = w.replace("zz", "xy", 1)
                continue
            return w

    words = {""}
    frontier = {""}
    while frontier:
        nxt = set()
        for w in frontier:
            for lab in arrows:
                cand = lab + w
                if not composable(cand):
                    continue
                red = reduce(cand)
                if red is None:
                    continue
                if red == cand and cand not in words:
                    words.add(cand)
                    nxt.add(cand)
                # rewritten words coincide with shorter normal forms already seen
        frontier = nxt
    return words


def test_loop_algebra_dimension_against_rewriting_oracle():
    b = alg61b()
    oracle_words = _rewrite_oracle_61b()
    # oracle counts normal-form written words; the empty word stands for
    # both trivial paths, so algebra dim = words - 1 + #vertices
    assert b.dim == len(oracle_words) - 1 + 2
    assert b.dim == 6
    names = sorted(str(p) for p in b.basis)
    assert names == sorted(["e_1", "e_2", "x", "y", "z", "x*y"])
    # z*z rewrites to the surviving parallel word x*y
    zz = b.element_from_str("z*z")
    xy = b.element_from_str("x*y")
    assert (zz == xy).all() and np.count_nonzero(xy) == 1


def test_loop_algebra_not_monomial():
    b = alg61b()
    assert not b.is_monomial
    assert b.loewy_length == 3


def test_three_cycle_structure():
    a = alg62a()
    assert a.dim == 11
    assert a.loewy_length == 4
    # projective dims by source: 3, 4, 4
    assert [len(a.paths_with_source(v)) for v in "123"] == [3, 4, 4]


def test_three_vertex_pair_structure():
    b = alg62b()
    assert b.dim == 9
    assert not b.is_monomial
    # projective dims by source: 2, 4, 3
    assert [len(b.paths_with_source(v)) for v in "123"] == [2, 4, 3]
    # r*s and t*d are identified
    assert (b.element_from_str("r*s") == b.element_from_str("t*d")).all()


def test_loop_square_zero_and_semisimple():
    a = loop_square_zero()
    assert a.dim == 2 and a.loewy_length == 2
    s = semisimple_two()
    assert s.dim == 2 and s.loewy_length == 2
    assert s.is_monomial


def test_mult_table_associativity_exhaustive():
    for a in (alg62b(GF3), alg61b(GF2), alg61a(GF5)):
        assert reference_associativity_failures(a) == []
        a.certify()


def test_opposite_involution_and_products():
    a = alg61b(GF3)
    op = opposite(a)
    assert opposite(op) is a
    assert op.dim == a.dim
    # reversed arrows
    assert {ar.label: (ar.source, ar.target) for ar in op.quiver.arrows} == {
        "x": ("2", "1"),
        "y": ("1", "2"),
        "z": ("2", "2"),
    }
    # op product x *op y = (y x)^rev computed in a
    assert (op.structure == a.structure.transpose(1, 0, 2)).all()
    # a contiguous copy, so products reshape it without copying
    assert op.structure.flags.c_contiguous


@pytest.mark.parametrize(
    "make", [lambda: alg61b(GF3), lambda: alg61a(GF5)], ids=["61B/GF(3)", "61A/GF(5)"]
)
def test_action_is_the_block_of_multiplication(make):
    """action(k, rows, cols, side) is the matrix of multiplication by b_k
    between the paths with one end fixed, and the product has no
    coordinates outside cols."""
    a = make()
    eye = a.field.eye(a.dim)
    ends = [(p.source, p.target) for p in a.basis]

    def paths(source, target):
        return [i for i, e in enumerate(ends) if e == (source, target)]

    for k, (u, w) in enumerate(ends):
        for s in a.quiver.vertices:
            for side, rows, cols in (
                ("left", paths(s, u), paths(s, w)),
                ("right", paths(w, s), paths(u, s)),
            ):
                block = a.action(k, rows, cols, side)
                assert block.shape == (len(cols), len(rows))
                for n, r in enumerate(rows):
                    prod = a.mult(eye[k], eye[r]) if side == "left" else a.mult(eye[r], eye[k])
                    assert (prod[cols] == block[:, n]).all()
                    assert not np.delete(prod, cols).any()


def test_not_admissible_reported():
    q = Quiver.make(["1"], [("x", "1", "1")])
    with pytest.raises(NotAdmissibleWithinBound):
        build_algebra(q, [], FieldSpec(2), max_len=6)


def _outcome(q, relations, field, max_len=12):
    """What build_algebra gives: the algebra's basis, table, Loewy length,
    flags and bound, or the type and message of what it raised."""
    try:
        a = build_algebra(q, relations, field, max_len=max_len)
    except Exception as err:
        return type(err), str(err)
    return a.basis, a.structure.tolist(), a.loewy_length, a.is_monomial, a.max_len


def _bounded_outcome(q, relations, field, max_len=12):
    """_outcome with every input sent through the bounded saturation."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(presentation, "_saturate_graded", presentation._saturate_bounded)
        return _outcome(q, relations, field, max_len)


def _opposite_presentation(q, relations):
    rels = [RelationElem(tuple((c, _reverse_path(p)) for c, p in r.terms)) for r in relations]
    return q.reverse(), rels


def _load_corpus():
    path = FilePath(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _homogeneous_presentations():
    """(name, quiver, relations, field): every shipped file at GF(2), GF(3),
    GF(5) and GF(7), and every benchmark corpus stratum of seeds 1-3."""
    out = []
    for path in sorted(DATA_DIR.glob("*.alg")):
        af = load_algebra_file(str(path))
        out += [(f"{af.name}/GF({p})", af.quiver, af.relations, FieldSpec(p)) for p in (2, 3, 5, 7)]
    corpus = _load_corpus()
    for seed in (1, 2, 3):
        rng = Random(seed)
        for stratum in corpus.generated_strata():
            pres = corpus.draw_presentation(stratum, rng)
            q = Quiver.make(pres.vertices, pres.arrows)
            rels = [RelationElem.from_written(q, terms) for terms in pres.relations]
            out.append((f"{stratum.key}#{seed}", q, rels, FieldSpec(pres.p)))
    return out


def test_graded_build_equals_the_bounded_saturation():
    """On length-homogeneous relations, the degree-by-degree saturation
    gives the bounded saturation's basis, table, Loewy length and flags, or
    the same exception with the same message; also on each opposite."""
    cases = _homogeneous_presentations()
    cases += [(f"{n}^op", *_opposite_presentation(q, rels), f) for n, q, rels, f in cases]
    built = 0
    for name, q, rels, field in cases:
        got = _outcome(q, rels, field)
        assert got == _bounded_outcome(q, rels, field), name
        built += len(got) > 2
    assert len(cases) == 432 and built == 428


@pytest.mark.parametrize("name", ["example61B", "example62B", "example61A", "kx2", "semisimple2"])
def test_graded_build_does_not_follow_the_bound(name):
    """A homogeneous build stops at its nilpotency degree: at max_len 40,
    where the bounded saturation would enumerate every path up to length
    40, it gives the max_len-12 algebra; at max_len -1..2 it gives what the
    bounded saturation gives."""
    af = load_algebra_file(f"{name}.alg")
    q, rels, f = af.quiver, af.relations, af.field
    at12 = _outcome(q, rels, f)
    assert _outcome(q, rels, f, max_len=40) == at12[:-1] + (40,)
    for max_len in (-1, 0, 1, 2):
        assert _outcome(q, rels, f, max_len) == _bounded_outcome(q, rels, f, max_len), max_len


def test_mixed_length_relations_take_the_bounded_route(monkeypatch):
    """Pins the bounded route's outputs on relations that mix lengths."""
    routes = []

    def spy(route):
        def saturate(*args):
            routes.append(route.__name__)
            return route(*args)
        return saturate

    for route in (presentation._saturate_graded, presentation._saturate_bounded):
        monkeypatch.setattr(presentation, route.__name__, spy(route))
    # loops x, y with x*y = y*x = 0, x*x = y*y*y and y^4 = 0
    q = Quiver.make(["1"], [("x", "1", "1"), ("y", "1", "1")])
    rels = [
        RelationElem.from_written(q, [(1, ["x", "y"])]),
        RelationElem.from_written(q, [(1, ["y", "x"])]),
        RelationElem.from_written(q, [(1, ["x", "x"]), (-1, ["y", "y", "y"])]),
        RelationElem.from_written(q, [(1, ["y"] * 4)]),
    ]
    a = build_algebra(q, rels, GF3)
    # y*y*y = x*x survives at length 3, so every path of length >= 4 vanishes
    assert (a.dim, a.loewy_length) == (5, 4)
    assert [str(p) for p in a.basis] == ["e_1", "x", "y", "x*x", "y*y"]
    assert (a.element_from_str("y*y*y") == a.element_from_str("x*x")).all()
    assert not a.is_monomial
    # x^4 = x*(x*x*x) is reached from the reduced row x*x*x of x*(x*x - y*y*y),
    # so a bound equal to the nilpotency degree suffices
    at_four = build_algebra(q, rels, GF3, max_len=4)
    assert (at_four.dim, at_four.loewy_length) == (5, 4)
    assert at_four.basis == a.basis and (at_four.structure == a.structure).all()
    loop = Quiver.make(["1"], [("x", "1", "1")])
    with pytest.raises(NotAdmissibleWithinBound, match="no nilpotency degree <= 12 witnessed"):
        build_algebra(loop, [RelationElem.from_written(loop, [(1, ["x", "x"]), (-1, ["x"] * 3)])], GF3)
    assert routes == ["_saturate_bounded"] * 3


def test_invalid_relations_rejected():
    q = Quiver.make(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    with pytest.raises(InvalidRelation):
        # length-1 term is not inside rad^2
        build_algebra(q, [RelationElem.from_written(q, [(1, ["a"])])], GF2)
    with pytest.raises(InvalidRelation):
        # non-parallel combination
        build_algebra(
            q,
            [
                RelationElem.from_written(
                    q, [(1, ["b", "a"]), (1, ["a", "b"])]
                )
            ],
            GF2,
        )


def test_unit_and_idempotents():
    a = alg62a(GF3)
    one = a.unit
    assert (a.mult(one, one) == one).all()
    e1 = a.element_from_str("e_1")
    e2 = a.element_from_str("e_2")
    assert not a.mult(e1, e2).any()
    assert (a.mult(e1, e1) == e1).all()


def test_structure_certificates_raise():
    a = alg61a(GF3)
    e1, e2 = a.e_index["1"], a.e_index["2"]
    a.structure[e1, e2, e1] = 1
    with pytest.raises(CertificateError, match="orthogonal idempotents"):
        a.certify()
    a = alg61a(GF3)
    x = next(i for i in range(a.dim) if i not in (e1, e2))
    a.structure[e1, x], a.structure[e2, x] = 0, 0
    with pytest.raises(CertificateError, match="left unit"):
        a.certify()


def test_product_leaving_its_end_vertices_raises():
    for field in (GF3, GF5):
        a = alg61a(field)
        arrow_a = a.arrow_index["a"]  # a: 1 -> 2, so a*a does not compose
        a.structure[arrow_a, arrow_a, a.arrow_index["b"]] = field.canon(1)
        with pytest.raises(CertificateError, match="leaves the end vertices"):
            a.certify()


def _graded_positions(a):
    """(i, j, l) with b_i b_j composable, b_l parallel to it and no trivial
    path among them: the constants a corruption can change while the
    idempotent, unit and grading checks still pass."""
    return [
        (i, j, l)
        for i, pi in enumerate(a.basis)
        for j, pj in enumerate(a.basis)
        for l, pl in enumerate(a.basis)
        if not (pi.is_trivial or pj.is_trivial or pl.is_trivial)
        and pj.target == pi.source
        and (pl.source, pl.target) == (pj.source, pi.target)
    ]


def _certify_raises(a) -> bool:
    try:
        a.certify()
    except CertificateError as err:
        assert "associativity fails at" in str(err)
        return True
    return False


def test_certify_agrees_with_reference_over_qq():
    """Each graded structure constant of 61A over GF(5), raised by 1 in
    turn: certify raises exactly when the reference finds a failing
    triple."""
    a = alg61a(GF5)
    positions = _graded_positions(a)
    raised = 0
    for i, j, l in positions:
        old = a.structure[i, j, l]
        a.structure[i, j, l] = (old + 1) % 5
        failures = reference_associativity_failures(a)
        assert _certify_raises(a) == bool(failures), (i, j, l)
        raised += bool(failures)
        a.structure[i, j, l] = old
    assert 0 < raised < len(positions)
    a.certify()


@pytest.fixture(scope="module")
def tensor61b():
    a = alg61b(GF3)
    return tensor_algebra(a, a)


# single-constant corruptions structure[i, j, l] += 1 of the dim-36 tensor
# algebra, by the basis paths (b_i, b_j, b_l), and whether the product stays
# associative
CORRUPTIONS = [
    ("y@2", "2~y", "y@2*2~y", False),
    ("z@2", "x@2", "x@2*1~y*1~x", False),
    ("2~y*2~x", "z@2*2~y", "2~y", False),
    ("2~z", "2~y*2~x", "x@2*y@2*2~y*2~x", False),
    ("x@2", "y@2", "x@2*y@2*2~y*2~x", True),
    ("2~z", "2~z", "x@2*y@2*2~z", True),
]


def _corrupt(t, names):
    at = {str(p): n for n, p in enumerate(t.basis)}
    pos = tuple(at[name] for name in names)
    old = t.structure[pos]
    t.structure[pos] = (old + 1) % t.field.char
    return pos, old


@pytest.mark.parametrize("names, associative", [(c[:3], c[3]) for c in CORRUPTIONS])
def test_certify_agrees_with_reference_on_tensor_corruptions(tensor61b, names, associative):
    t = tensor61b
    assert t.dim == 36
    pos, old = _corrupt(t, names)
    try:
        failures = reference_associativity_failures(t)
        assert (not failures) == associative
        assert _certify_raises(t) == bool(failures)
    finally:
        t.structure[pos] = old
    t.certify()


def test_certify_catches_a_corruption_a_triple_sample_misses(tensor61b):
    """The product check is exhaustive above dim 16: this corruption breaks
    associativity on two triples, and 1000 triples drawn from Random(0), the
    sample that used to certify algebras of this size, contain neither."""
    t = tensor61b
    rng = Random(0)
    sample = {tuple(rng.randrange(t.dim) for _ in range(3)) for _ in range(1000)}
    pos, old = _corrupt(t, CORRUPTIONS[0][:3])
    try:
        failures = reference_associativity_failures(t)
        assert len(failures) == 2 and not set(failures) & sample
        with pytest.raises(CertificateError, match="associativity fails at"):
            t.certify()
    finally:
        t.structure[pos] = old
