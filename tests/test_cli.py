"""Algebra file parsing, serialization, and the command line interface."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from gpktheory.cli import AlgebraFile, CliError, main, make_parser, parse, serialize
from gpktheory.cli import DATA_DIR
from gpktheory.exactla import FieldSpec
from gpktheory.presentation import Quiver, RelationElem

GF5_61A = (DATA_DIR / "example61A.alg").read_text()
GF3_61B = (DATA_DIR / "example61B.alg").read_text()


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv + ["--json"])
    assert err == ""
    return code, json.loads(out)


def tmp_file(text, suffix=".alg"):
    f = tempfile.NamedTemporaryFile("w", suffix=suffix, delete=False)
    f.write(text)
    f.close()
    return f.name


def test_parse_two_vertex_cycle():
    af = parse(GF5_61A)
    assert af.name == "example61A"
    assert af.field.char == 5
    assert af.quiver.vertices == ("1", "2")
    assert [a.label for a in af.quiver.arrows] == ["a", "b"]
    assert len(af.relations) == 1
    (c, p), = af.relations[0].terms
    assert c == 1
    assert p.arrows == ("a", "b", "a", "b")  # b*a*b*a, rightmost first
    assert p.source == "1" and p.target == "1"


def test_parse_signs_and_coefficients():
    af = parse(GF3_61B)
    assert len(af.relations) == 4
    last = af.relations[3]
    assert [c for c, _ in last.terms] == [1, 2]  # z*z - x*y: -1 is 2 over GF(3)
    af2 = parse(
        "algebra t over GF(5)\nvertices 1\narrow x : 1 -> 1\n"
        "relation 2*x*x + 3*x*x = 0\n"
    )
    assert [c for c, _ in af2.relations[0].terms] == [2, 3]


def test_parse_options_and_comments():
    af = parse(
        "# leading comment\nalgebra t over GF(2)  # trailing\nvertices 1\n"
        "arrow x : 1 -> 1\nrelation x*x = 0\noption max_len 9\noption seed 3\n"
        "option dim_cap 4\noption iter_cap 5\noption depth 1\n"
    )
    assert af.options == {"max_len": 9, "seed": 3, "dim_cap": 4, "iter_cap": 5, "depth": 1}


def test_parse_errors_name_the_line():
    with pytest.raises(CliError, match="line 3, column 1: unknown statement"):
        parse("algebra t over GF(3)\nvertices 1\ngarbage here\n")
    with pytest.raises(CliError, match="line 4, column 12: unknown arrow 'q'"):
        parse("algebra t over GF(3)\nvertices 1\narrow x : 1 -> 1\nrelation x*q = 0\n")
    with pytest.raises(CliError, match="line 3, column 16: undeclared vertex"):
        parse("algebra t over GF(3)\nvertices 1\narrow x : 1 -> 2\n")
    with pytest.raises(CliError, match="line 1: malformed field"):
        parse("algebra t over GF(six)\n")
    with pytest.raises(CliError, match="line 1: .*must be a prime"):
        parse("algebra t over GF(4)\n")
    with pytest.raises(CliError, match="line 1: .*must be a prime"):
        parse("algebra t over GF(0)\n")
    with pytest.raises(CliError, match="line 2: field QQ is not supported: .*finite prime field"):
        parse("# rationals\nalgebra t over QQ\n")
    with pytest.raises(CliError, match="line 2: 'vertices' before"):
        parse("# hi\nvertices 1\n")
    with pytest.raises(CliError, match="line 4: relation must end"):
        parse("algebra t over GF(3)\nvertices 1\narrow x : 1 -> 1\nrelation x*x\n")
    with pytest.raises(CliError, match="line 4: .*dangling sign"):
        parse(
            "algebra t over GF(3)\nvertices 1\narrow x : 1 -> 1\n"
            "relation x*x + = 0\n"
        )
    with pytest.raises(CliError, match="line 5: option value"):
        parse(
            "algebra t over GF(3)\nvertices 1\narrow x : 1 -> 1\n"
            "relation x*x = 0\noption seed zero\n"
        )
    with pytest.raises(CliError, match="line 4: unknown option 'dimcap' .accepted: max_len, "):
        parse("algebra t over GF(3)\nvertices 1\narrow x : 1 -> 1\noption dimcap 1\n")
    with pytest.raises(CliError, match="missing 'algebra"):
        parse("# nothing here\n")
    with pytest.raises(CliError, match="non-parallel"):
        parse(
            "algebra t over GF(3)\nvertices 1 2\narrow x : 1 -> 2\n"
            "arrow y : 2 -> 1\nrelation y*x + x*y = 0\n"
        )


def test_serialize_round_trips_the_corpus():
    for name in sorted(os.listdir(DATA_DIR)):
        if not name.endswith(".alg"):
            continue
        text = (DATA_DIR / name).read_text()
        once = serialize(parse(text))
        assert serialize(parse(once)) == once
        af1, af2 = parse(text), parse(once)
        assert af1.name == af2.name
        assert af1.field == af2.field
        assert af1.quiver == af2.quiver
        assert [r.terms for r in af1.relations] == [r.terms for r in af2.relations]
        assert af1.options == af2.options


@pytest.mark.parametrize("fld", ["GF(5)"])
def test_serialize_round_trips_negative_coefficients(fld):
    """A commutative square and a relation that opens with a negative term:
    parsing makes every coefficient a residue of GF(5)."""
    text = (
        f"algebra square over {fld}\n"
        "vertices 1 2 3 4\n"
        "arrow a : 1 -> 2\n"
        "arrow b : 2 -> 4\n"
        "arrow c : 1 -> 3\n"
        "arrow d : 3 -> 4\n"
        "relation b*a - d*c = 0\n"
    )
    once = serialize(parse(text))
    want = "b*a + 4*d*c"
    assert once.endswith(f"relation {want} = 0\n")
    # str() of a relation is the text serialize writes, so error messages
    # quote relations in the syntax the parser reads
    assert [str(r) for r in parse(text).relations] == [f"{want} = 0"]
    assert serialize(parse(once)) == once
    assert [r.terms for r in parse(once).relations] == [r.terms for r in parse(text).relations]
    lead = parse(text.replace("b*a - d*c", "-2*d*c + b*a"))
    assert [r.terms for r in parse(serialize(lead)).relations] == [r.terms for r in lead.relations]
    assert str(lead.relations[0]) == "3*d*c + b*a = 0"


def test_serialize_writes_a_negative_written_coefficient():
    """A relation built from written coefficients keeps its -1, so serialize
    writes the sign, then the absolute coefficient; parsing the text back
    gives the canonical residues of GF(5)."""
    q = Quiver.make(
        ["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")]
    )
    square = RelationElem.from_written(q, [(1, ["b", "a"]), (-1, ["d", "c"])])
    assert str(square) == "b*a - d*c = 0"
    text = serialize(AlgebraFile("square", FieldSpec(5), q, [square]))
    assert text.endswith("relation b*a - d*c = 0\n")
    canonical = RelationElem.from_written(q, [(1, ["b", "a"]), (4, ["d", "c"])])
    assert [r.terms for r in parse(text).relations] == [canonical.terms]


def test_serialize_canonical_form():
    assert serialize(parse(GF3_61B)) == (
        "algebra example61B over GF(3)\n"
        "vertices 1 2\n"
        "arrow x : 1 -> 2\n"
        "arrow y : 2 -> 1\n"
        "arrow z : 2 -> 2\n"
        "relation y*x = 0\n"
        "relation z*x = 0\n"
        "relation y*z = 0\n"
        "relation z*z + 2*x*y = 0\n"
    )


def test_analyze_kx2_json_golden():
    code, j = run_json(["analyze", "kx2.alg"])
    assert code == 0
    assert j["algebra"]["dimension"] == 2
    assert j["algebra"]["field"] == "GF(2)"
    assert j["dimension_report"]["gorenstein_status"] == "yes"
    assert j["dimension_report"]["gorenstein_dim"] == 0
    assert j["gp_catalog"]["verdict"] == "CMFinite"
    assert [it["dims"] for it in j["gp_catalog"]["items"]] == [[1]]
    assert j["k0"] == {"free_rank": 0, "invariant_factors": [2], "generators": ["G0"]}
    assert j["k1"]["invariant_factors"] == []


def test_analyze_61a_dimension_golden():
    code, j = run_json(["analyze", "example61A.alg"])
    assert code == 0
    assert j["algebra"]["dimension"] == 9
    assert j["dimension_report"]["self_inj_dim_left"] == 2
    assert j["dimension_report"]["self_inj_dim_right"] == 2
    assert j["gp_catalog"]["verdict"] == "CMFinite"
    assert [it["dims"] for it in j["gp_catalog"]["items"]] == [[1, 1]]


def test_unknown_verdict_exits_two():
    code, j = run_json(["analyze", "example61A.alg", "--dim-cap", "1"])
    assert code == 2
    assert j["k0"] is None
    assert j["k1"] is None
    assert any("Unknown" in w for w in j["warnings"])
    code, j = run_json(["k0", "example61A.alg", "--dim-cap", "1"])
    assert code == 2
    assert j["k0"] is None


def test_k1_beyond_the_old_enumeration_cap():
    # self-injective Nakayama(6, 2): stable End is GF(7)^6, 7^6 > 65536 elements
    lines = ["algebra nak6 over GF(7)", "vertices 1 2 3 4 5 6"]
    lines += [f"arrow a{i} : {i} -> {i % 6 + 1}" for i in range(1, 7)]
    lines += [f"relation a{i % 6 + 1}*a{i} = 0" for i in range(1, 7)]
    path = tmp_file("\n".join(lines) + "\n")
    try:
        code, j = run_json(["k1", path])
    finally:
        os.unlink(path)
    assert code == 0
    assert j["k1"]["free_rank"] == 0
    assert j["k1"]["invariant_factors"] == [6] * 6


def test_k1_field_override():
    for q, order in ((3, 2), (5, 4), (7, 6)):
        code, j = run_json(["k1", "example61A.alg", "--field", str(q)])
        assert code == 0
        expected = [order] if order > 1 else []
        assert j["k1"]["invariant_factors"] == expected


def test_oracle_agreement_on_all_shipped_files():
    depths = {
        "kx2.alg": 2,
        "semisimple2.alg": 2,
        "example61A.alg": 1,
        "example61B.alg": 1,
        "example62A.alg": 1,
        "example62B.alg": 1,
    }
    for name, depth in sorted(depths.items()):
        code, j = run_json(["oracle-k0", name, "--depth", str(depth)])
        assert code == 0, name
        assert j["oracle_agreement"] is True, name
        # Generator labels are route-specific; the group itself must match.
        assert j["k0"]["free_rank"] == j["oracle_k0"]["free_rank"], name
        assert (
            j["k0"]["invariant_factors"] == j["oracle_k0"]["invariant_factors"]
        ), name


def test_oracle_kx2_both_z2():
    code, j = run_json(["oracle-k0", "kx2.alg"])
    assert code == 0
    assert j["k0"]["invariant_factors"] == [2]
    assert j["oracle_k0"]["invariant_factors"] == [2]


def test_compare_both_pairs():
    code, j = run_json(["compare", "example62A.alg", "example62B.alg"])
    assert code == 0
    assert j["comparison"]["all_predicted_equal"] is True
    assert j["first"]["gp_catalog"]["verdict"] == "CMFree"
    assert j["second"]["gp_catalog"]["verdict"] == "CMFree"
    assert j["first"]["k0"]["invariant_factors"] == []
    code, j = run_json(["compare", "example61A.alg", "example61B.alg", "--field", "3"])
    assert code == 0
    assert j["comparison"]["all_predicted_equal"] is True
    assert j["comparison"]["gorenstein_equal"] is True


def test_compare_uses_each_files_own_caps(monkeypatch):
    from gpktheory import cli

    calls = []
    real = cli.side_invariants

    def recording(a, dim_cap=None, iter_cap=32, seed=0):
        calls.append((dim_cap, iter_cap, seed))
        return real(a, dim_cap=dim_cap, iter_cap=iter_cap, seed=seed)

    monkeypatch.setattr(cli, "side_invariants", recording)
    second = tmp_file(GF3_61B + "option dim_cap 1\noption seed 5\n")
    try:
        code, j = run_json(["compare", "example61A.alg", second, "--field", "3"])
    finally:
        os.unlink(second)
    # one computation per side, each with its own file's options
    assert calls == [(None, 32, 0), (1, 32, 5)]
    assert code == 2
    assert j["first"]["gp_catalog"]["verdict"] == "CMFinite"
    assert j["second"]["gp_catalog"]["verdict"] == "Unknown"
    assert j["second"]["k0"] is None
    assert j["comparison"]["cm_equal"] is None
    assert j["comparison"]["k0_equal"] is None
    assert j["comparison"]["all_predicted_equal"] is False


def test_semt_regular_bimodule_files():
    code, j = run_json(
        ["semt", "kx2.alg", "kx2.alg", "kx2_regular.bim", "kx2_regular.bim"]
    )
    assert code == 0
    assert j["passed"] is True
    assert j["complement_p_dim"] == 0
    assert j["complement_q_dim"] == 0


def test_semt_field_override_applies_to_both_files():
    code, j = run_json(
        ["semt", "kx2.alg", "kx2.alg", "kx2_regular.bim", "kx2_regular.bim", "--field", "3"]
    )
    assert code == 0
    assert j["passed"] is True
    assert j["first"]["field"] == j["second"]["field"] == "GF(3)"


def test_semt_explicit_bimodule_file():
    bim = tmp_file(
        "bimodule reg\ncomponent 1 1 2\n"
        "leftmap x 1 : 0 0 ; 1 0\nrightmap 1 x : 0 0 ; 1 0\n",
        suffix=".bim",
    )
    code, j = run_json(["semt", "kx2.alg", "kx2.alg", bim, bim])
    os.unlink(bim)
    assert code == 0
    assert j["passed"] is True


def test_semt_noncommuting_bimodule_rejected():
    bim = tmp_file(
        "bimodule bad\ncomponent 1 1 2\n"
        "leftmap x 1 : 0 0 ; 1 0\nrightmap 1 x : 0 1 ; 0 0\n",
        suffix=".bim",
    )
    code, _, err = run(["semt", "kx2.alg", "kx2.alg", bim, bim])
    os.unlink(bim)
    assert code == 1
    assert "relation" in err


def test_missing_file_exits_one():
    code, _, err = run(["k0", "no_such_algebra.alg"])
    assert code == 1
    assert "no such file" in err


@pytest.mark.parametrize("command", ["analyze", "gp", "k0", "k1", "oracle-k0", "semt", "compare"])
def test_rational_field_exits_one_without_traceback(command):
    files = {"semt": ["kx2.alg", "kx2.alg", "kx2_regular.bim", "kx2_regular.bim"],
             "compare": ["kx2.alg", "kx2.alg"]}.get(command, ["kx2.alg"])
    code, out, err = run([command, *files, "--field", "0"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite prime field" in err


def test_field_above_exact_range_exits_one():
    code, out, err = run(["analyze", "kx2.alg", "--field", "65537"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "65521" in err


@pytest.mark.parametrize(
    "power", [4, 3], ids=["closed-catalog-noncommutative-stable-end", "noncommutative-stable-end"]
)
def test_internal_error_exits_one_with_one_line(power):
    """k[x]/(x^4) and k[x]/(x^3) have a noncommutative stable End over
    GF(3), outside what K1 computes: a fault of the package, reported as
    one line with exit 1 and no traceback."""
    path = tmp_file(
        "algebra kx over GF(3)\nvertices 1\narrow x : 1 -> 1\n"
        f"relation {'*'.join(['x'] * power)} = 0\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "gpktheory.cli", "analyze", path, "--json"],
        env=env, capture_output=True, text=True,
    )
    os.unlink(path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: internal NoncommutativeStableEnd: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("max_len", ["-1", "0", "1", "2"])
def test_max_len_below_the_nilpotency_degree_exits_one(max_len):
    """61B has nilpotency degree 3: a smaller bound is bad input, reported
    as one line with exit 1."""
    code, out, err = run(["analyze", "example61B.alg", "--max-len", max_len])
    assert code == 1
    assert out == ""
    assert err.startswith("error: example61B: ") and err.count("\n") == 1
    expected = "no nilpotency degree <= 2" if max_len == "2" else f"longer than max_len={max_len}"
    assert expected in err


@pytest.mark.parametrize("argv, message", [
    (["analyze", "kx2.alg", "--bogus"], "unrecognized arguments: --bogus"),
    (["analyze", "kx2.alg", "--depth", "x"], "argument --depth: invalid int value: 'x'"),
    (["bogus", "kx2.alg"], "argument command: invalid choice: 'bogus'"),
    (["oracle-k0", "kx2.alg", "--depth", "0"], "depth must be at least 1, got 0"),
    (["oracle-k0", "kx2.alg", "--depth", "-1"], "depth must be at least 1, got -1"),
    (["analyze", "kx2.alg", "--dim-cap", "0"], "dim_cap must be at least 1, got 0"),
    (["k0", "kx2.alg", "--iter-cap", "0"], "iter_cap must be at least 1, got 0"),
])
def test_bad_command_lines_exit_one_with_one_line(argv, message):
    """A command line argparse rejects and a cap below 1 are bad input:
    one `error:` line and exit 1, never argparse's exit 2, which is the
    code of Unknown, nor an answer from an empty object universe."""
    code, out, err = run(argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_unknown_option_key_exits_one():
    path = tmp_file("algebra t over GF(3)\nvertices 1\narrow x : 1 -> 1\n"
                    "relation x*x = 0\noption dimcap 1\n")
    try:
        code, out, err = run(["analyze", path])
    finally:
        os.unlink(path)
    assert (code, out) == (1, "")
    assert "line 5: unknown option 'dimcap'" in err and err.count("\n") == 1


def test_help_still_exits_zero():
    with pytest.raises(SystemExit) as exit_:
        run(["analyze", "--help"])
    assert exit_.value.code == 0


def test_k0_of_a_catalog_closed_under_extensions():
    # k[x]/(x^4): the catalog holds k[x]/(x^i) for i = 1, 2, 3, and K0 = Z/4
    path = tmp_file(
        "algebra kx over GF(3)\nvertices 1\narrow x : 1 -> 1\nrelation x*x*x*x = 0\n"
    )
    code, j = run_json(["k0", path])
    os.unlink(path)
    assert code == 0
    assert (j["k0"]["free_rank"], j["k0"]["invariant_factors"]) == (0, [4])
    assert j["warnings"] == []


def test_json_output_is_byte_reproducible():
    runs = [run(["analyze", "example61A.alg", "--json", "--seed", "0"]) for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [run(["k0", "kx2.alg", "--json"]) for _ in range(2)]
    assert runs[0] == runs[1]


def test_reused_parser_carries_no_option_between_calls():
    """The parser is built once per process; each call in one process
    prints what the same command prints run alone."""
    assert make_parser() is make_parser()
    commands = [
        ["analyze", "example61A.alg", "--json", "--field", "3"],  # the file says GF(5)
        ["analyze", "example61A.alg", "--json"],
        ["k1", "kx2.alg", "--json"],
    ]
    in_process = [run(argv) for argv in commands]
    assert in_process[0] != in_process[1]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    for argv, got in zip(commands, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "gpktheory.cli", *argv],
            env=env, capture_output=True, text=True,
        )
        assert got == (proc.returncode, proc.stdout, proc.stderr)


def test_text_output_mentions_verdict_and_groups():
    code, out, _ = run(["analyze", "kx2.alg"])
    assert code == 0
    assert "CMFinite" in out
    assert "K0 (stable): Z/2" in out
    assert "Gorenstein: yes, dimension 0" in out


# ---------------------------------------------------------------------------
# golden outputs: stdout, stderr and exit code of fixed commands, byte for byte

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def golden_cases():
    """(name, argv) of every command whose output is kept in tests/golden."""
    cases = [
        (f"analyze-{Path(n).stem}", ["analyze", n, "--json"])
        for n in ("example61A.alg", "example61B.alg", "example62A.alg",
                  "example62B.alg", "kx2.alg", "semisimple2.alg")
    ]
    for a, b in (("61A", "61B"), ("62A", "62B")):
        for p in (3, 5, 7):
            cases.append((f"compare-{a}-{b}-gf{p}", [
                "compare", f"example{a}.alg", f"example{b}.alg", "--json", "--field", str(p)]))
    for n in ("kx2.alg", "example61A.alg", "example62B.alg"):
        cases.append((f"oracle-k0-{Path(n).stem}",
                      ["oracle-k0", n, "--json", "--depth", "1"]))
    for p in (2, 3, 0):
        cases.append((f"semt-kx2-regular-field{p}", [
            "semt", "kx2.alg", "kx2.alg", "kx2_regular.bim", "kx2_regular.bim",
            "--json", "--field", str(p)]))
    # bad input: one stderr line, exit 1
    cases.append(("oracle-k0-kx2-depth0", ["oracle-k0", "kx2.alg", "--depth", "0"]))
    cases.append(("analyze-kx2-bogus-flag", ["analyze", "kx2.alg", "--bogus"]))
    return cases


def write_golden():
    """Rewrite tests/golden from the current code: <name>.stdout per case and
    index.json with each case's argv, exit code and stderr."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    index = {}
    for name, argv in golden_cases():
        code, out, err = run(argv)
        (GOLDEN_DIR / f"{name}.stdout").write_text(out)
        index[name] = {"argv": argv, "exit": code, "stderr": err}
    (GOLDEN_DIR / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("name, argv", golden_cases(), ids=[c[0] for c in golden_cases()])
def test_golden_output(name, argv):
    kept = json.loads((GOLDEN_DIR / "index.json").read_text())[name]
    assert kept["argv"] == argv
    code, out, err = run(argv)
    assert (code, err) == (kept["exit"], kept["stderr"])
    assert out == (GOLDEN_DIR / f"{name}.stdout").read_text()


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_cli.py rewrites the golden files
    write_golden()
