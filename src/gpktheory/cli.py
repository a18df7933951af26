"""Command line interface: parse algebra files, run analyses, emit reports.

The input format is line-oriented with '#' comments:

    algebra <name> over GF(<p>)
    vertices <v1> <v2> ...
    arrow <name> : <src> -> <tgt>
    relation <term> (+|-) <term> ... = 0
    option <key> <int>

where a relation term is [coeff*]arrow(*arrow)* read right to left (the
rightmost arrow acts first).  Bimodule files for the semt command either
say `regular` (the algebra over itself) or give explicit components:

    bimodule <name>
    component <u> <v> <dim>
    leftmap <arrow> <v> : <row> ; <row> ...
    rightmap <u> <arrow> : <row> ; <row> ...

The option keys are those of OPTION_KEYS; a flag of the same name
(--max-len, ...) overrides the file.

Commands emit a human-readable report by default and a schema-stable JSON
object with --json; the exit code is 0 on success, 2 when a verdict is
Unknown, and 1 on errors: bad input, a command line argparse rejects
included, reported as one "error: <message>" line, or an internal error
reported as one "error: internal <Type>: <message>" line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .exactla import FieldSpec
from .gorenstein import AtLeast, gp_catalog
from .ktheory import k0_gorenstein, k1_gorenstein
from .morita import (
    Bimodule,
    _lname,
    _rname,
    _tv,
    check_semt,
    compare_sides,
    regular_bimodule,
    side_invariants,
    tensor_algebra,
)
from .presentation import (
    FiniteDimAlgebra,
    InvalidRelation,
    NotAdmissibleWithinBound,
    Quiver,
    RelationElem,
    build_algebra,
)
from .rep import Representation
from .waldhausen import build_wdata, k0_oracle

DATA_DIR = Path(__file__).parent / "data"

# the keys an `option` line may set, with their defaults (dim_cap None:
# gp_catalog picks one from the algebra's dimension)
OPTION_KEYS = ("max_len", "dim_cap", "iter_cap", "seed", "depth")
_OPTION_DEFAULTS = (12, None, 32, 0, 2)


class CliError(Exception):
    """A user-facing error with optional file/line context."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# algebra files


@dataclass
class AlgebraFile:
    name: str
    field: FieldSpec
    quiver: Quiver
    relations: list
    options: dict = field(default_factory=dict)


def _split_terms(expr: str, lineno: int):
    """Split a relation body into (sign, term-text, column) triples."""
    terms = []
    sign = 1
    buf = []
    start = 0
    for i, ch in enumerate(expr):
        if ch in "+-":
            text = "".join(buf).strip()
            if text:
                terms.append((sign, text, start))
            elif terms or ch == "+":
                raise CliError(
                    f"line {lineno}, column {i + 1}: empty relation term", lineno
                )
            sign = 1 if ch == "+" else -1
            buf = []
            start = i + 1
        else:
            buf.append(ch)
    text = "".join(buf).strip()
    if not text:
        raise CliError(f"line {lineno}: relation ends with a dangling sign", lineno)
    terms.append((sign, text, start))
    return terms


def _parse_term(sign, text, q, f, lineno, line):
    coeff = sign
    labels = []
    for tok in text.split("*"):
        tok = tok.strip()
        if not tok:
            raise CliError(f"line {lineno}: empty factor in term '{text}'", lineno)
        if tok.lstrip("-").isdigit():
            coeff *= int(tok)
        else:
            try:
                q.arrow(tok)
            except KeyError:
                col = line.find(tok) + 1
                raise CliError(
                    f"line {lineno}, column {col}: unknown arrow '{tok}'", lineno
                )
            labels.append(tok)
    if not labels:
        raise CliError(f"line {lineno}: term '{text}' has no arrows", lineno)
    return f.canon(coeff), labels


def parse(text: str) -> AlgebraFile:
    """Parse an algebra description; raises CliError with line context."""
    name = None
    fld = None
    vertices = []
    arrows = []
    relation_lines = []
    options = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "algebra":
            if len(parts) != 4 or parts[2] != "over":
                raise CliError(
                    f"line {lineno}: expected 'algebra <name> over <field>'", lineno
                )
            name = parts[1]
            spec = parts[3]
            if spec == "QQ":
                raise CliError(
                    f"line {lineno}: field QQ is not supported: gpk computes "
                    "over a finite prime field GF(p)",
                    lineno,
                )
            if spec.startswith("GF(") and spec.endswith(")"):
                body = spec[3:-1]
                if not body.isdigit():
                    raise CliError(
                        f"line {lineno}: malformed field '{spec}'", lineno
                    )
                try:
                    fld = FieldSpec(int(body))
                except ValueError as e:
                    raise CliError(f"line {lineno}: {e}", lineno)
            else:
                raise CliError(f"line {lineno}: malformed field '{spec}'", lineno)
        elif head == "vertices":
            if name is None:
                raise CliError(
                    f"line {lineno}: 'vertices' before the algebra line", lineno
                )
            if len(parts) < 2:
                raise CliError(f"line {lineno}: no vertices named", lineno)
            vertices = parts[1:]
        elif head == "arrow":
            if len(parts) != 6 or parts[2] != ":" or parts[4] != "->":
                raise CliError(
                    f"line {lineno}: expected 'arrow <name> : <src> -> <tgt>'",
                    lineno,
                )
            label, src, tgt = parts[1], parts[3], parts[5]
            for v in (src, tgt):
                if v not in vertices:
                    col = line.find(v, line.find(":")) + 1
                    raise CliError(
                        f"line {lineno}, column {col}: undeclared vertex '{v}'",
                        lineno,
                    )
            arrows.append((label, src, tgt))
        elif head == "relation":
            relation_lines.append((lineno, line))
        elif head == "option":
            if len(parts) != 3:
                raise CliError(
                    f"line {lineno}: expected 'option <key> <int>'", lineno
                )
            if parts[1] not in OPTION_KEYS:
                raise CliError(
                    f"line {lineno}: unknown option '{parts[1]}' "
                    f"(accepted: {', '.join(OPTION_KEYS)})",
                    lineno,
                )
            try:
                options[parts[1]] = int(parts[2])
            except ValueError:
                raise CliError(
                    f"line {lineno}: option value '{parts[2]}' is not an integer",
                    lineno,
                )
        else:
            raise CliError(
                f"line {lineno}, column 1: unknown statement '{head}'", lineno
            )
    if name is None or fld is None:
        raise CliError("missing 'algebra <name> over <field>' line")
    if not vertices:
        raise CliError("missing 'vertices' line")
    try:
        quiver = Quiver.make(vertices, arrows)
    except ValueError as e:
        raise CliError(str(e))
    relations = []
    for lineno, line in relation_lines:
        body = line[len("relation") :].strip()
        if not body.endswith("= 0") and not body.endswith("=0"):
            raise CliError(f"line {lineno}: relation must end with '= 0'", lineno)
        body = body[: body.rfind("=")].strip()
        if not body:
            raise CliError(f"line {lineno}: empty relation", lineno)
        terms = []
        for sign, text_, col in _split_terms(body, lineno):
            coeff, labels = _parse_term(sign, text_, quiver, fld, lineno, line)
            terms.append((coeff, labels))
        try:
            rel = RelationElem.from_written(quiver, terms)
        except (ValueError, KeyError) as e:
            raise CliError(f"line {lineno}: {e}", lineno)
        ends = {(p.source, p.target) for _, p in rel.terms}
        if len(ends) != 1:
            raise CliError(
                f"line {lineno}: non-parallel relation terms "
                f"(endpoints {sorted(ends)})",
                lineno,
            )
        relations.append(rel)
    return AlgebraFile(name, fld, quiver, relations, options)


def serialize(af: AlgebraFile) -> str:
    """Canonical text form; parse(serialize(af)) reproduces af."""
    lines = [f"algebra {af.name} over {af.field.label}"]
    lines.append("vertices " + " ".join(af.quiver.vertices))
    for a in af.quiver.arrows:
        lines.append(f"arrow {a.label} : {a.source} -> {a.target}")
    lines.extend(f"relation {r}" for r in af.relations)
    for k in sorted(af.options):
        lines.append(f"option {k} {af.options[k]}")
    return "\n".join(lines) + "\n"


def load_algebra_file(path: str) -> AlgebraFile:
    """Read and parse an algebra file; bare corpus names resolve to the
    shipped data directory."""
    p = Path(path)
    if not p.exists() and (DATA_DIR / path).exists():
        p = DATA_DIR / path
    if not p.exists():
        raise CliError(f"no such file: {path}")
    try:
        return parse(p.read_text())
    except CliError as e:
        raise CliError(f"{p.name}: {e}")


def _override_field(af: AlgebraFile, args):
    if args.field is not None:
        af.field = FieldSpec(args.field)


def build_from_file(af: AlgebraFile, args) -> FiniteDimAlgebra:
    _override_field(af, args)
    try:
        return build_algebra(
            af.quiver, af.relations, af.field, max_len=_caps(af, args)["max_len"]
        )
    except (InvalidRelation, NotAdmissibleWithinBound) as e:
        raise CliError(f"{af.name}: {e}")


def _caps(af: AlgebraFile, args) -> dict:
    """Each of OPTION_KEYS: the flag's value, else the file's option, else
    its default."""
    return {
        key: af.options.get(key, default) if getattr(args, key) is None else getattr(args, key)
        for key, default in zip(OPTION_KEYS, _OPTION_DEFAULTS)
    }


# ---------------------------------------------------------------------------
# bimodule files


def parse_bimodule(text: str, left: FiniteDimAlgebra, right: FiniteDimAlgebra):
    """Parse a bimodule description over the two given algebras."""
    name = None
    is_regular = False
    comps = {}
    matmaps = {}
    t = tensor_algebra(left, right)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "bimodule":
            if len(parts) != 2:
                raise CliError(f"line {lineno}: expected 'bimodule <name>'", lineno)
            name = parts[1]
        elif head == "regular":
            is_regular = True
        elif head == "component":
            if len(parts) != 4:
                raise CliError(
                    f"line {lineno}: expected 'component <u> <v> <dim>'", lineno
                )
            u, v, d = parts[1], parts[2], parts[3]
            if u not in left.quiver.vertices:
                raise CliError(
                    f"line {lineno}: undeclared left vertex '{u}'", lineno
                )
            if v not in right.quiver.vertices:
                raise CliError(
                    f"line {lineno}: undeclared right vertex '{v}'", lineno
                )
            comps[_tv(u, v)] = int(d)
        elif head in ("leftmap", "rightmap"):
            try:
                spec, body = line.split(":", 1)
            except ValueError:
                raise CliError(f"line {lineno}: missing ':' in map line", lineno)
            bits = spec.split()
            if len(bits) != 3:
                raise CliError(
                    f"line {lineno}: expected '{head} <a> <b> : rows'", lineno
                )
            if head == "leftmap":
                key = _lname(bits[1], bits[2])
            else:
                key = _rname(bits[1], bits[2])
            if key not in t.arrow_index:
                raise CliError(
                    f"line {lineno}: no such action '{bits[1]} {bits[2]}'", lineno
                )
            try:
                rows = [
                    [int(x) for x in row.split()]
                    for row in body.split(";")
                    if row.strip()
                ]
            except ValueError:
                raise CliError(f"line {lineno}: non-integer matrix entry", lineno)
            matmaps[key] = rows
        else:
            raise CliError(
                f"line {lineno}, column 1: unknown statement '{head}'", lineno
            )
    if name is None:
        raise CliError("missing 'bimodule <name>' line")
    if is_regular:
        if left is not right:
            raise CliError(
                f"{name}: 'regular' needs the two algebras to be the same"
            )
        return regular_bimodule(left)
    try:
        rep = Representation(t, comps, matmaps, check=True)
    except ValueError as e:
        raise CliError(f"{name}: {e}")
    return Bimodule(left, right, rep)


def load_bimodule_file(path: str, left, right):
    p = Path(path)
    if not p.exists() and (DATA_DIR / path).exists():
        p = DATA_DIR / path
    if not p.exists():
        raise CliError(f"no such file: {path}")
    try:
        return parse_bimodule(p.read_text(), left, right)
    except CliError as e:
        raise CliError(f"{p.name}: {e}")


# ---------------------------------------------------------------------------
# report assembly


def _dim_value(x):
    if isinstance(x, AtLeast):
        return str(x)
    return x


def _algebra_json(af: AlgebraFile, a: FiniteDimAlgebra):
    return {
        "name": af.name,
        "field": af.field.label,
        "dimension": a.dim,
        "vertices": list(a.quiver.vertices),
        "arrows": [
            {"label": x.label, "source": x.source, "target": x.target}
            for x in a.quiver.arrows
        ],
    }


def _dimension_json(rep):
    return {
        "projective_dims_of_simples": {
            v: _dim_value(d) for v, d in sorted(rep.proj_dims.items())
        },
        "global_dim": _dim_value(rep.global_dim),
        "self_inj_dim_left": _dim_value(rep.self_inj_dim_left),
        "self_inj_dim_right": _dim_value(rep.self_inj_dim_right),
        "gorenstein_status": rep.gorenstein_status,
        "gorenstein_dim": rep.gorenstein_dim,
    }


def _catalog_json(cat):
    return {
        "verdict": cat.verdict,
        "items": [
            {"dims": list(item.dim_vector), "certificate": cert.criterion}
            for item, cert in zip(cat.items, cat.certificates)
        ],
    }


def _group_json(g):
    return {
        "free_rank": g.free_rank,
        "invariant_factors": list(g.invariant_factors),
        "generators": list(g.generators),
    }


def _analyze_bundle(af, a, args):
    """The analyze report of one algebra, and the side invariants behind it."""
    caps = _caps(af, args)
    side = side_invariants(
        a, dim_cap=caps["dim_cap"], iter_cap=caps["iter_cap"], seed=caps["seed"]
    )
    cat = side.catalog
    out = {
        "algebra": _algebra_json(af, a),
        "dimension_report": _dimension_json(cat.report),
        "gp_catalog": _catalog_json(cat),
        "warnings": list(cat.notes),
    }
    if cat.verdict == "Unknown":
        out["k0"] = None
        out["k1"] = None
        out["warnings"].append("catalog verdict Unknown: K-groups not computed")
    else:
        out["k0"] = _group_json(side.k0)
        out["k1"] = _group_json(side.k1.group)
    return out, side


def _render_group(g):
    if g is None:
        return "not computed"
    parts = []
    if g["free_rank"] == 1:
        parts.append("Z")
    elif g["free_rank"] > 1:
        parts.append(f"Z^{g['free_rank']}")
    parts.extend(f"Z/{d}" for d in g["invariant_factors"])
    return " + ".join(parts) if parts else "0"


def _render_analyze(out):
    d = out["dimension_report"]
    lines = [
        f"algebra {out['algebra']['name']} over {out['algebra']['field']}: "
        f"dimension {out['algebra']['dimension']}",
        f"global dimension: {d['global_dim']}",
        f"self-injective dimensions (left, right): "
        f"({d['self_inj_dim_left']}, {d['self_inj_dim_right']})",
        f"Gorenstein: {d['gorenstein_status']}"
        + (
            f", dimension {d['gorenstein_dim']}"
            if d["gorenstein_status"] == "yes"
            else ""
        ),
        f"GP catalog: {out['gp_catalog']['verdict']}, "
        f"{len(out['gp_catalog']['items'])} non-projective item(s)",
    ]
    for item in out["gp_catalog"]["items"]:
        lines.append(f"  item dims {tuple(item['dims'])} [{item['certificate']}]")
    if "k0" in out:
        lines.append(f"K0 (stable): {_render_group(out['k0'])}")
    if "k1" in out:
        lines.append(f"K1 (stable): {_render_group(out['k1'])}")
    for w in out["warnings"]:
        lines.append(f"warning: {w}")
    return lines


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(args):
    af = load_algebra_file(args.file)
    a = build_from_file(af, args)
    out, side = _analyze_bundle(af, a, args)
    return out, _render_analyze(out), (2 if side.catalog.verdict == "Unknown" else 0)


def _cataloged(args):
    """Load, build and catalog args.file under its caps: (af, a, cat, depth,
    out), out holding the algebra and the catalog's notes."""
    af = load_algebra_file(args.file)
    a = build_from_file(af, args)
    caps = _caps(af, args)
    cat = gp_catalog(a, dim_cap=caps["dim_cap"], iter_cap=caps["iter_cap"], seed=caps["seed"])
    out = {"algebra": _algebra_json(af, a), "warnings": list(cat.notes)}
    return af, a, cat, caps["depth"], out


def _not_computed(out, keys, command):
    """The answer of a K-group command on an Unknown catalog: keys null, exit 2."""
    out.update(dict.fromkeys(keys))
    out["warnings"].append("catalog verdict Unknown: K-groups not computed")
    return out, [f"{command}: not computed (catalog Unknown)"], 2


def cmd_gp(args):
    _, _, cat, _, out = _cataloged(args)
    out["dimension_report"] = _dimension_json(cat.report)
    out["gp_catalog"] = _catalog_json(cat)
    return out, _render_analyze(out), (2 if cat.verdict == "Unknown" else 0)


def _k_command(args, which):
    af, a, cat, _, out = _cataloged(args)
    if cat.verdict == "Unknown":
        return _not_computed(out, [which], which)
    if which == "k0":
        out["k0"] = _group_json(k0_gorenstein(a, cat))
    else:
        out["k1"] = _group_json(k1_gorenstein(a, cat).group)
    lines = [
        f"algebra {af.name} over {af.field.label}",
        f"{which.upper()} (stable): {_render_group(out[which])}",
    ]
    lines.extend(f"warning: {w}" for w in out["warnings"])
    return out, lines, 0


def cmd_k0(args):
    return _k_command(args, "k0")


def cmd_k1(args):
    return _k_command(args, "k1")


def cmd_oracle_k0(args):
    af, a, cat, depth, out = _cataloged(args)
    if cat.verdict == "Unknown":
        return _not_computed(out, ["k0", "oracle_k0", "oracle_agreement"], "oracle-k0")
    g = k0_gorenstein(a, cat)
    data = build_wdata(cat, depth=depth)
    og = k0_oracle(data)
    out["k0"] = _group_json(g)
    out["oracle_k0"] = _group_json(og)
    out["oracle_agreement"] = g.same_group(og)
    out["warnings"].extend(data.notes)
    lines = [
        f"algebra {af.name} over {af.field.label}",
        f"K0 (stable): {_render_group(out['k0'])}",
        f"K0 (flag-presentation oracle, depth {depth}): "
        f"{_render_group(out['oracle_k0'])}",
        f"agreement: {out['oracle_agreement']}",
    ]
    lines.extend(f"warning: {w}" for w in out["warnings"])
    return out, lines, 0


def cmd_compare(args):
    af1 = load_algebra_file(args.file)
    af2 = load_algebra_file(args.file2)
    a1 = build_from_file(af1, args)
    a2 = build_from_file(af2, args)
    # each side once, with its own file's caps and seed
    first, side1 = _analyze_bundle(af1, a1, args)
    second, side2 = _analyze_bundle(af2, a2, args)
    cmpres = compare_sides(side1, side2)
    out = {
        "first": first,
        "second": second,
        "comparison": {
            "k0_equal": cmpres.k0_equal,
            "k1_equal": cmpres.k1_equal,
            "cm_equal": cmpres.cm_equal,
            "gorenstein_equal": cmpres.gorenstein_equal,
            "all_predicted_equal": cmpres.all_predicted_equal,
        },
    }
    lines = [f"--- {af1.name} ---"]
    lines.extend(_render_analyze(first))
    lines.append(f"--- {af2.name} ---")
    lines.extend(_render_analyze(second))
    lines.append("--- comparison ---")
    lines.append(cmpres.describe())
    return out, lines, (2 if "Unknown" in cmpres.cm else 0)


def cmd_semt(args):
    af1 = load_algebra_file(args.file)
    af2 = load_algebra_file(args.file2)
    # both files at the --field override before they are compared
    _override_field(af2, args)
    a1 = build_from_file(af1, args)
    if serialize(af2) == serialize(af1):
        a2 = a1
    else:
        a2 = build_from_file(af2, args)
    m = load_bimodule_file(args.bimodule_m, a1, a2)
    n = load_bimodule_file(args.bimodule_n, a2, a1)
    report = check_semt(m, n)
    out = {
        "first": {"name": af1.name, "field": af1.field.label},
        "second": {"name": af2.name, "field": af2.field.label},
        "passed": report.passed,
        "reason": report.reason,
        "complement_p_dim": report.p.dim if report.p is not None else None,
        "complement_q_dim": report.q.dim if report.q is not None else None,
        "warnings": [],
    }
    return out, [report.describe()], 0


# ---------------------------------------------------------------------------
# entry point


def _add_common(sp):
    sp.add_argument("--max-len", type=int, default=None)
    sp.add_argument("--dim-cap", type=int, default=None)
    sp.add_argument("--iter-cap", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--field", type=int, default=None)
    sp.add_argument("--json", action="store_true")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise CliError, so a bad command
    line ends in one `error:` line with exit 1 (argparse would print the
    usage and exit 2, the code of Unknown); --help still exits 0."""

    def error(self, message):
        raise CliError(message)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The `gpk` parser, built once per process; each parse_args call
    still returns a fresh Namespace."""
    p = _Parser(
        prog="gpk",
        description="Gorenstein projective catalogs and stable K-groups "
        "of path algebras with admissible relations.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn, nfiles in (
        ("analyze", cmd_analyze, 1),
        ("gp", cmd_gp, 1),
        ("k0", cmd_k0, 1),
        ("k1", cmd_k1, 1),
        ("oracle-k0", cmd_oracle_k0, 1),
        ("compare", cmd_compare, 2),
        ("semt", cmd_semt, 4),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("file")
        if nfiles >= 2:
            sp.add_argument("file2")
        if nfiles == 4:
            sp.add_argument("bimodule_m")
            sp.add_argument("bimodule_n")
        _add_common(sp)
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        out, lines, code = args.fn(args)
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        # a fault of the package, not of the input: one line, no traceback
        message = str(e).replace("\n", " ")
        print(f"error: internal {type(e).__name__}: {message}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
