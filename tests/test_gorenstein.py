"""Dimension reports, GP certificates, and the catalog search."""

import contextlib
import io
import json

import pytest

from gpktheory import cli, exactla
from gpktheory.exactla import FieldSpec, group_from_presentation
from gpktheory.gorenstein import (
    AtLeast,
    certify_gp,
    co_syzygy,
    dimension_report,
    gp_catalog,
    is_gp,
)
from gpktheory.ktheory import CatalogUnknown, k0_gorenstein
from gpktheory.rep import (
    cyclic_module,
    is_isomorphic,
    is_projective,
    projective,
    simple,
    syzygy,
)

from builders import (
    alg61a,
    alg61b,
    alg62a,
    alg62b,
    loop_square_zero,
    nakayama,
    semisimple_two,
    truncated_polynomials,
)

GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)


def test_report_two_cycle_golden():
    a = alg61a(GF5)
    r = dimension_report(a)
    assert r.gorenstein_status == "yes"
    assert r.gorenstein_dim == 2
    assert r.self_inj_dim_left == 2
    assert r.self_inj_dim_right == 2
    assert r.proj_dims["2"] == 1
    assert r.proj_dims["1"] == AtLeast(16)
    assert not isinstance(r.global_dim, int)


def test_report_loop_algebra():
    b = alg61b()
    r = dimension_report(b)
    assert r.gorenstein_status == "yes"
    assert r.gorenstein_dim == 2
    assert not isinstance(r.global_dim, int)


def test_report_finite_global_dimension():
    for make in (alg62a, alg62b):
        a = make(GF3)
        r = dimension_report(a)
        assert isinstance(r.global_dim, int)
        assert r.gorenstein_status == "yes"
        assert r.gorenstein_dim <= r.global_dim


def test_report_self_injective_cases():
    r = dimension_report(loop_square_zero())
    assert r.is_self_injective
    assert r.gorenstein_dim == 0
    r2 = dimension_report(semisimple_two())
    assert r2.is_self_injective
    assert r2.global_dim == 0


def test_is_gp_golden_periodic_module():
    a = alg61a()
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    v = is_gp(g)
    assert v.is_gp
    assert v.criterion == "ext-vanishing"
    assert v.data["range"] == 2
    # projectives are GP outright
    assert is_gp(projective(a, "1")).criterion == "projective"
    # the syzygy of a GP module is GP
    assert is_gp(syzygy(g)).is_gp


def test_is_gp_rejects_finite_pd_nonprojective():
    a = alg61a()
    s2 = simple(a, "2")  # pd 1, not projective
    v = is_gp(s2)
    assert v.status == "NotGP"
    assert v.criterion == "ext-witness"
    assert v.data["dimension"] >= 1
    # re-verify the witness degree
    from gpktheory.rep import ext_data, regular

    assert ext_data(s2, regular(a), v.data["degree"])[0] == v.data["dimension"]


def test_is_gp_periodicity_route():
    # force the unknown-status strategy and let periodicity certify
    a = alg61a()
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    r = dimension_report(a)
    import dataclasses

    blind = dataclasses.replace(r, gorenstein_status="no_within_bound", gorenstein_dim=None)
    v = is_gp(g, report=blind, bound=6)
    assert v.is_gp
    assert v.criterion == "syzygy-periodicity"
    assert v.data["low"] < v.data["high"]


def test_self_injective_everything_gp():
    a = loop_square_zero()
    k = simple(a, "1")
    assert is_gp(k).criterion == "self-injective-algebra"


def test_catalog_two_cycle():
    a = alg61a(GF5)
    cat = gp_catalog(a)
    assert cat.verdict == "CMFinite"
    assert len(cat.items) == 1
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    ok, _ = is_isomorphic(cat.items[0], g)
    assert ok
    assert cat.certificates[0].is_gp
    # closure sanity: syzygy and co-syzygy stay in the catalog
    ok, _ = is_isomorphic(syzygy(cat.items[0]), cat.items[0])
    assert ok
    ok, _ = is_isomorphic(co_syzygy(cat.items[0]), cat.items[0])
    assert ok


def test_catalog_loop_algebra():
    b = alg61b()
    cat = gp_catalog(b)
    assert cat.verdict == "CMFinite"
    assert len(cat.items) == 1
    w = syzygy(simple(b, "2"))
    ok, _ = is_isomorphic(cat.items[0], w)
    assert ok


def test_catalog_cm_free_pair():
    for make in (alg62a, alg62b):
        cat = gp_catalog(make(GF3))
        assert cat.verdict == "CMFree"
        assert cat.items == []


def test_catalog_square_zero_loop():
    a = loop_square_zero()
    cat = gp_catalog(a)
    assert cat.verdict == "CMFinite"
    assert len(cat.items) == 1
    assert cat.items[0].total_dim == 1
    ok, _ = is_isomorphic(cat.items[0], simple(a, "1"))
    assert ok


def test_catalog_semisimple_free():
    cat = gp_catalog(semisimple_two())
    assert cat.verdict == "CMFree"


def test_certify_cache_consistency():
    a = alg61a()
    g = cyclic_module(a, a.element_from_str("b*a"))[0]
    v1 = certify_gp(g)
    v2 = certify_gp(g)
    assert v1 is v2 and v1.is_gp


def test_certify_gp_memo_holds_default_bound_verdicts_only():
    """The gp_certificates memo is keyed on module bytes alone, so certify_gp
    takes no bound: a bound-1 verdict stored there would be returned for every
    later query.  The simple at 1 of 61A over GF(3) is Inconclusive at bound 1
    and NotGP (an Ext^2 witness) at the default bound."""
    s = simple(alg61a(FieldSpec(3)), "1")
    assert is_gp(s, bound=1).status == "Inconclusive"
    with pytest.raises(TypeError):
        certify_gp(s, bound=1)
    v = certify_gp(s)
    assert (v.status, v.criterion, v.data["degree"]) == ("NotGP", "ext-witness", 2)
    assert certify_gp(s) is v


def test_dim_cap_forces_unknown():
    a = alg61a()
    cat = gp_catalog(a, dim_cap=1)
    assert cat.verdict == "Unknown"
    assert any("cap" in n for n in cat.notes)


@pytest.mark.parametrize("caps", [{"dim_cap": 0}, {"iter_cap": 0}, {"dim_cap": -3}])
def test_caps_below_one_raise(caps):
    with pytest.raises(ValueError, match="must be at least 1"):
        gp_catalog(alg61a(), **caps)


# ---------------------------------------------------------------------------
# closure under extensions


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("n", range(2, 7))
def test_catalog_truncated_polynomials_closes_under_extensions(n, p):
    """k[x]/(x^n) is self-injective with the n - 1 non-projective
    indecomposables k[x]/(x^i), 0 < i < n; syzygies alone reach only
    k[x]/(x) and k[x]/(x^(n-1)), the extensions reach the rest.  K0 of the
    stable category is Z/n."""
    a = truncated_polynomials(FieldSpec(p), n)
    cat = gp_catalog(a)
    assert cat.verdict == "CMFinite"
    assert [item.total_dim for item in cat.items] == list(range(1, n))
    g = k0_gorenstein(a, cat)
    assert (g.free_rank, g.invariant_factors) == (0, (n,))


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("length,expected", [(3, (0, (3,))), (4, (1, (2,)))])
def test_catalog_nakayama_closes_under_extensions(p, length, expected):
    """Self-injective Nakayama(2, L) has n(L - 1) non-projective
    indecomposables, all GP; K0 of the stable category is the cokernel of
    the Cartan matrix."""
    a = nakayama(FieldSpec(p), 2, length)
    cat = gp_catalog(a)
    assert cat.verdict == "CMFinite"
    assert len(cat.items) == 2 * (length - 1)
    cartan = [projective(a, v).dim_vector for v in a.quiver.vertices]
    coker = group_from_presentation(a.quiver.vertices, cartan)
    g = k0_gorenstein(a, cat)
    assert (g.free_rank, g.invariant_factors) == expected
    assert g.same_group(coker)


@pytest.mark.parametrize(
    "make",
    [lambda: truncated_polynomials(GF3, 4), lambda: nakayama(GF2, 2, 4), lambda: alg61a(GF3)],
    ids=["k[x]/(x^4)/GF(3)", "nakayama(2,4)/GF(2)", "61A/GF(3)"],
)
def test_catalog_seed_leaves_items_and_relations(make):
    first, second = gp_catalog(make(), seed=0), gp_catalog(make(), seed=99)
    assert [item.key() for item in first.items] == [item.key() for item in second.items]
    assert set(first.relations) == set(second.relations)
    assert first.verdict == second.verdict == "CMFinite"


def test_iteration_cap_counts_extension_rounds():
    """k[x]/(x^4), seeded with k: round 1 finds k[x]/(x^3) by syzygy, round 2
    finds nothing new, round 3 extends the two items and finds k[x]/(x^2),
    round 4 takes its syzygies and round 5 its extensions, which close the
    catalog."""
    a = truncated_polynomials(GF3, 4)
    for cap, items in ((2, 2), (4, 3)):
        cat = gp_catalog(a, iter_cap=cap)
        assert (cat.verdict, len(cat.items)) == ("Unknown", items)
        assert f"iteration cap {cap} hit with catalog still growing" in cat.notes
    cat = gp_catalog(a, iter_cap=5)
    assert (cat.verdict, len(cat.items), cat.notes) == ("CMFinite", 3, [])


def test_sampled_ext_classes_are_noted(monkeypatch, tmp_path):
    """When Ext^1 has several lines and is too large to list, its classes are
    sampled, the catalog says so in its notes, which `--json` reports as
    warnings, and its verdict is Unknown: a class left out could extend to a
    new GP summand.  k[x]/(x^4) over GF(5) with the cap at 5 lists the
    one-line spaces and samples Ext^1(k[x]/(x^2), k[x]/(x^2)) = GF(5)^2."""
    a = truncated_polynomials(GF5, 4)
    exhaustive = gp_catalog(a)
    b = truncated_polynomials(GF5, 4)
    monkeypatch.setattr(exactla, "EXHAUSTIVE_CAP", 5)
    sampled = gp_catalog(b)
    note = "ext classes sampled (dimension 2) for a pair of dims (2,) -> (2,)"
    assert sampled.notes == [note] and exhaustive.notes == []
    assert [item.key() for item in sampled.items] == [item.key() for item in exhaustive.items]
    assert (sampled.verdict, exhaustive.verdict) == ("Unknown", "CMFinite")
    with pytest.raises(CatalogUnknown):
        k0_gorenstein(b, sampled)
    path = tmp_path / "kx4.alg"
    path.write_text(
        "algebra kx4 over GF(5)\nvertices 1\narrow x : 1 -> 1\nrelation x*x*x*x = 0\n"
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", str(path), "--json"]) == 2
    answer = json.loads(out.getvalue())
    assert note in answer["warnings"]
    assert (answer["k0"], answer["k1"]) == (None, None)


def test_one_line_ext_is_listed_at_any_prime(monkeypatch):
    """A one-line Ext^1 is spanned by its unit vector whatever p is, so it
    is listed, not sampled: 61A over GF(65521) (p > EXHAUSTIVE_CAP) gets the
    complete catalog and the K0 it gets over GF(5), with no note."""
    small = alg61a(GF5)
    big = alg61a(FieldSpec(65521))
    cat, ref = gp_catalog(big), gp_catalog(small)
    assert (cat.verdict, cat.notes) == ("CMFinite", [])
    assert [item.dim_vector for item in cat.items] == [item.dim_vector for item in ref.items]
    assert k0_gorenstein(big, cat) == k0_gorenstein(small, ref)
    # every pair of 61A has Ext^1 of dimension 0 or 1, so even a cap of 1
    # lists them all
    monkeypatch.setattr(exactla, "EXHAUSTIVE_CAP", 1)
    assert gp_catalog(alg61a(GF5)).notes == []
