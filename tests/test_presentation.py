"""Path algebra construction: bases, normal forms, opposites, admissibility."""

from random import Random

import pytest

from gpktheory.exactla import CertificateError, FieldSpec
from gpktheory.presentation import (
    InvalidRelation,
    NotAdmissibleWithinBound,
    Path,
    Quiver,
    RelationElem,
    build_algebra,
    enumerate_paths,
    opposite,
    path_from_written,
)

from builders import alg61a, alg61b, alg62a, alg62b, loop_square_zero, semisimple_two

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


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
    assert a.element_from_str("b*a*b*a") == {}
    assert a.element_from_str("a*b*a*b") == {a.index[path_from_written(a.quiver, ["a", "b", "a", "b"])]: 1}
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
    assert zz == xy and len(xy) == 1


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
    assert b.element_from_str("r*s") == b.element_from_str("t*d")


def test_loop_square_zero_and_semisimple():
    a = loop_square_zero()
    assert a.dim == 2 and a.loewy_length == 2
    s = semisimple_two()
    assert s.dim == 2 and s.loewy_length == 2
    assert s.is_monomial


def test_mult_table_associativity_sampled():
    a = alg62b(GF3)
    rng = Random(9)
    one = a.field.canon(1)
    for _ in range(200):
        i, j, k = (rng.randrange(a.dim) for _ in range(3))
        left = a.mult_sparse(a.mult_sparse({i: one}, {j: one}), {k: one})
        right = a.mult_sparse({i: one}, a.mult_sparse({j: one}, {k: one}))
        assert left == right


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
    one = 1
    for i in range(a.dim):
        for j in range(a.dim):
            assert op.mult_basis(i, j) == a.mult_basis(j, i)


def test_not_admissible_reported():
    q = Quiver.make(["1"], [("x", "1", "1")])
    with pytest.raises(NotAdmissibleWithinBound):
        build_algebra(q, [], FieldSpec(2), max_len=6)


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
    one = a.unit_sparse()
    assert a.mult_sparse(one, one) == one
    e1 = {a.e_index["1"]: 1}
    e2 = {a.e_index["2"]: 1}
    assert a.mult_sparse(e1, e2) == {}
    assert a.mult_sparse(e1, e1) == e1


def test_structure_certificates_raise():
    a = alg61a(GF3)
    e1, e2 = a.e_index["1"], a.e_index["2"]
    a._mult[e1][e2] = ((e1, 1),)
    with pytest.raises(CertificateError, match="orthogonal idempotents"):
        a._verify()
    a = alg61a(GF3)
    x = next(i for i in range(a.dim) if i not in (e1, e2))
    a._mult[e1][x], a._mult[e2][x] = (), ()
    with pytest.raises(CertificateError, match="left unit"):
        a._verify()
