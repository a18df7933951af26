"""End-to-end acceptance checks for the shipped guarantees.

Each test evaluates every sub-condition of one guarantee, prints exactly one
PASS/FAIL line naming it (visible under ``pytest -s`` or in failure output),
and then asserts, so the run doubles as a checklist.  All tolerances are
exact: group isomorphism, verdict strings, and dimension integers.
"""

from random import Random

import pytest

from gpktheory.exactla import FieldSpec
from gpktheory.gorenstein import dimension_report, gp_catalog
from gpktheory.ktheory import (
    FiniteCommutativeRing,
    NotInvertible,
    k0_gorenstein,
    k1_gorenstein,
    whitehead_reduce,
)
from gpktheory.morita import (
    check_semt,
    check_unit_counit_pd,
    compare_invariants,
    regular_bimodule,
)
from gpktheory.presentation import Quiver, build_algebra
from gpktheory.rep import (
    cyclic_module,
    direct_sum,
    identity_morphism,
    is_projective,
    projective,
    simple,
)
from gpktheory.stable import is_weakly_equivalent, stable_hom
from gpktheory.waldhausen import (
    gluing_check,
    k0_oracle,
    s3_face_identities,
    sample_s3_flags,
)

from builders import (
    alg61a,
    alg61b,
    alg62a,
    alg62b,
    cached_wdata,
    loop_square_zero,
    stable_witness_reference,
)

GF3 = FieldSpec(3)
GF5 = FieldSpec(5)


def _report(label, failures):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " — " + "; ".join(failures)
    print(f"[{status}] {label}{detail}")
    assert not failures, f"{label}:\n" + "\n".join(failures)


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


# ---------------------------------------------------------------------------
# two-cycle algebra over GF(5): Gorenstein dimensions and the GP catalog


def test_acceptance_two_cycle_dimensions_and_catalog():
    failures = []
    a = alg61a(GF5)
    rep = dimension_report(a)
    _check(
        failures,
        rep.gorenstein_status == "yes",
        f"gorenstein status {rep.gorenstein_status!r} != 'yes'",
    )
    _check(
        failures,
        rep.self_inj_dim_left == 2 and rep.self_inj_dim_right == 2,
        f"self-injective dimensions "
        f"({rep.self_inj_dim_left}, {rep.self_inj_dim_right}) != (2, 2)",
    )
    cat = gp_catalog(a)
    _check(
        failures,
        len(cat.items) == 1,
        f"{len(cat.items)} indecomposable non-projective GP classes, expected 1",
    )
    if cat.items:
        item = cat.items[0]
        _check(failures, not is_projective(item), "catalog item is projective")
        g = cyclic_module(a, a.element_from_str("b*a"))[0]
        ok, _ = is_weakly_equivalent(item, g)
        _check(
            failures,
            ok,
            "catalog item is not stably isomorphic to the cyclic module on b*a",
        )
    _report("two-cycle over GF(5): dimensions and GP catalog", failures)


# ---------------------------------------------------------------------------
# the stably equivalent pair over GF(q), q in {3, 5, 7}: K0, K1, stable End


def test_acceptance_pair_k_groups_and_stable_end():
    failures = []
    for q in (3, 5, 7):
        field = FieldSpec(q)
        for name, maker in (("two-cycle", alg61a), ("loop-ladder", alg61b)):
            a = maker(field)
            cat = gp_catalog(a)
            k0 = k0_gorenstein(a, cat)
            _check(
                failures,
                k0.free_rank == 1 and not k0.invariant_factors,
                f"K0 of {name} over GF({q}) is {k0}, expected Z",
            )
            k1 = k1_gorenstein(a, cat)
            _check(
                failures,
                k1.group.free_rank == 0
                and k1.group.invariant_factors == (q - 1,),
                f"K1 of {name} over GF({q}) is {k1.group}, "
                f"expected cyclic of order {q - 1}",
            )
            _check(
                failures,
                k1.lambda_dim == 1,
                f"stable End over GF({q}) for {name} has dimension "
                f"{k1.lambda_dim}, expected 1",
            )
    _report("stably equivalent pair: K0, K1, stable End dimension", failures)


# ---------------------------------------------------------------------------
# the CM-free pair over GF(3): finite global dimension, trivial K-groups


def test_acceptance_cm_free_pair():
    failures = []
    for name, maker in (("three-cycle", alg62a), ("zigzag", alg62b)):
        a = maker(GF3)
        rep = dimension_report(a)
        _check(
            failures,
            isinstance(rep.global_dim, int),
            f"{name}: global dimension {rep.global_dim} is not finite",
        )
        cat = gp_catalog(a)
        _check(
            failures,
            cat.verdict == "CMFree",
            f"{name}: verdict {cat.verdict!r} != 'CMFree'",
        )
        k0 = k0_gorenstein(a, cat)
        _check(failures, k0.is_trivial, f"{name}: K0 is {k0}, expected trivial")
        k1 = k1_gorenstein(a, cat)
        _check(
            failures,
            k1.group.is_trivial,
            f"{name}: K1 is {k1.group}, expected trivial",
        )
    _report("CM-free pair over GF(3): global dimension and trivial K-groups", failures)


# ---------------------------------------------------------------------------
# direct K0 vs the simplicial enumeration oracle


def test_acceptance_k0_routes_agree():
    failures = []
    for label, key in (
        ("two-cycle over GF(5)", "61a_gf5"),
        ("three-cycle over GF(3)", "62a_gf3"),
        ("loop algebra over GF(2)", "kx2_gf2"),
        ("semisimple pair over GF(2)", "semisimple2_gf2"),
    ):
        data = cached_wdata(key)
        direct = k0_gorenstein(data.algebra, data.catalog)
        oracle = k0_oracle(data)
        _check(
            failures,
            direct.same_group(oracle),
            f"{label}: direct K0 {direct} != oracle K0 {oracle}",
        )
        if key == "kx2_gf2":
            _check(
                failures,
                direct.invariant_factors == (2,)
                and oracle.invariant_factors == (2,),
                f"loop algebra: routes give {direct} and {oracle}, expected Z/2",
            )
    _report("K0 agrees between the direct route and the enumeration oracle", failures)


# ---------------------------------------------------------------------------
# stable isomorphism by Krull-Schmidt vs an exhaustive witness search, 200 pairs


def _stably_identity(h):
    """Whether an endomorphism h of x is the identity modulo maps through
    projectives, read on the stable Hom of `stable_hom(x, x)`: when that
    space is zero, every endomorphism is."""
    x = h.domain
    dim, basis = stable_hom(x, x)
    return dim == 0 or basis[0].space.is_stably_zero(h.sub(identity_morphism(x)))


def test_acceptance_witness_agrees_with_stripping():
    failures = []
    a = alg61a(GF3)
    cat = gp_catalog(a)
    pool = list(cat.items) + [projective(a, v) for v in a.quiver.vertices]
    rng = Random(2024)
    disagreements = not_inverse = 0
    for trial in range(200):
        left = [pool[rng.randrange(len(pool))] for _ in range(rng.randrange(1, 4))]
        right = [pool[rng.randrange(len(pool))] for _ in range(rng.randrange(1, 4))]
        x = direct_sum(left)[0]
        y = direct_sum(right)[0]
        by_stripping, witness = is_weakly_equivalent(x, y)
        by_search = stable_witness_reference(x, y) is not None
        if by_stripping != by_search:
            disagreements += 1
            if disagreements <= 3:
                failures.append(
                    f"trial {trial}: stripping route says {by_stripping}, "
                    f"witness search says {by_search}"
                )
        if by_stripping:
            f, g = witness
            if not (_stably_identity(g.compose(f)) and _stably_identity(f.compose(g))):
                not_inverse += 1
    _check(failures, disagreements == 0, f"{disagreements} disagreements in 200 pairs")
    _check(failures, not_inverse == 0, f"{not_inverse} witnesses not stably inverse")
    _report("stable isomorphism: stripping route vs witness search, 200 pairs", failures)


# ---------------------------------------------------------------------------
# matrix class invariants over GF(5) and GF(3)[t]/(t^2), 100 matrices each


def _random_invertible(ring, n, rng):
    while True:
        mat = [
            [
                tuple(int(ring.field.random_scalar(rng)) for _ in range(ring.dim))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        try:
            return mat, whitehead_reduce(mat, ring)
        except NotInvertible:
            continue


def _ring_matmul(ring, a, b):
    n = len(a)
    f = ring.field
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ring.zero()
            for t in range(n):
                acc = f.add(
                    acc, ring.mult(ring.canon_el(a[i][t]), ring.canon_el(b[t][j]))
                )
            row.append(tuple(int(c) for c in acc))
        out.append(row)
    return out


def _random_elementary(ring, n, rng):
    i = rng.randrange(n)
    j = (i + 1 + rng.randrange(n - 1)) % n
    lam = tuple(int(ring.field.random_scalar(rng)) for _ in range(ring.dim))
    one = tuple(int(c) for c in ring.unit)
    zero = tuple(int(c) for c in ring.zero())
    return [
        [one if r == c else (lam if (r, c) == (i, j) else zero) for c in range(n)]
        for r in range(n)
    ]


def test_acceptance_matrix_class_suite():
    failures = []
    rings = (
        ("GF(5)", FiniteCommutativeRing.from_field(GF5)),
        ("GF(3)[t]/(t^2)", FiniteCommutativeRing.dual_numbers(GF3)),
    )
    for label, ring in rings:
        rng = Random(99)
        bad = 0
        mats = [_random_invertible(ring, 3, rng) for _ in range(100)]
        for idx in range(0, 100, 2):
            (m1, c1), (m2, c2) = mats[idx], mats[idx + 1]
            if whitehead_reduce(_ring_matmul(ring, m1, m2), ring) != c1.mul(c2):
                bad += 1
        for m, cls in mats:
            e = _random_elementary(ring, 3, rng)
            if whitehead_reduce(_ring_matmul(ring, e, m), ring) != cls:
                bad += 1
            if whitehead_reduce(_ring_matmul(ring, m, e), ring) != cls:
                bad += 1
        _check(failures, bad == 0, f"{label}: {bad} failures across 100 matrices")
    _report(
        "matrix classes: products multiply, elementary factors vanish", failures
    )


# ---------------------------------------------------------------------------
# pushout/gluing checks and 3-flag face identities


def test_acceptance_gluing_and_face_identities():
    failures = []
    for label, key in (
        ("loop algebra over GF(2)", "kx2_gf2"),
        ("two-cycle over GF(5)", "61a_gf5"),
    ):
        data = cached_wdata(key)
        report = gluing_check(data, trials=100, seed=17)
        _check(
            failures,
            report.trials == 100 and report.ok,
            f"{label}: {len(report.counterexamples)} gluing counterexamples "
            f"in {report.trials} ladders",
        )
        flags = sample_s3_flags(data, count=32, seed=3)
        _check(failures, bool(flags), f"{label}: no 3-flags sampled")
        broken = sum(1 for flag in flags if s3_face_identities(flag))
        _check(
            failures,
            broken == 0,
            f"{label}: face identities fail on {broken} of {len(flags)} 3-flags",
        )
    _report("gluing ladders and 3-flag face identities", failures)


# ---------------------------------------------------------------------------
# bimodule checks: identity pairs, unit/counit defects, invariant comparison


def _arrow_algebra(field):
    q = Quiver.make(["1", "2"], [("a", "1", "2")])
    return build_algebra(q, [], field)


def test_acceptance_bimodule_suite():
    failures = []
    pairs = (
        ("identity pair on the arrow algebra", _arrow_algebra(GF3)),
        ("regular bimodules on the loop algebra", loop_square_zero(FieldSpec(2))),
    )
    for label, a in pairs:
        reg = regular_bimodule(a)
        semt = check_semt(reg, reg)
        _check(failures, semt.passed, f"{label}: check failed ({semt.reason})")
        _check(
            failures,
            semt.p.dim == 0 and semt.q.dim == 0,
            f"{label}: complements have dimensions {semt.p.dim}, {semt.q.dim}",
        )
        samples = [simple(a, v) for v in a.quiver.vertices]
        samples += [projective(a, v) for v in a.quiver.vertices]
        uc = check_unit_counit_pd(reg, reg, samples)
        _check(failures, uc.passed, f"{label}: unit/counit check failed")
        _check(
            failures,
            all(e["defect_projective"] for e in uc.entries),
            f"{label}: non-projective unit/counit defect",
        )
    for label, first, second in (
        ("stably equivalent pair", alg61a(GF3), alg61b(GF3)),
        ("CM-free pair", alg62a(GF3), alg62b(GF3)),
    ):
        comp = compare_invariants(first, second)
        _check(
            failures,
            comp.all_predicted_equal,
            f"{label}: invariants differ "
            f"(k0 {comp.k0_equal}, k1 {comp.k1_equal}, cm {comp.cm_equal})",
        )
    _report("bimodule suite: identity pairs and invariant comparison", failures)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
