"""Source checks on the package: no assert statements (they vanish under
`python -O`), only exactla compares against EXHAUSTIVE_CAP (one
exhaustive-or-sampled policy), per-algebra caches go through the one
memo, README's module table names every memo site, no module assigns a
dict, list or set at module level, each module-map primitive has one
definition, in rep.py, every field is GF(p): nothing imports
`fractions` and no `.char` is read as a truth value, only waldhausen.py
uses the sampled isomorphism search, only stable.py names the stable
inverse solve, stable.py uses no coefficient search, and no module names
numpy's kron."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gpktheory"


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _referenced_name(node):
    """The name a Name, Attribute or import alias node refers to, else None."""
    field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node))
    return getattr(node, field) if field else None


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_package_has_no_assert_statements():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/gpktheory: {found}"


def test_only_exactla_compares_against_the_exhaustive_cap():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        if name != "exactla.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and "EXHAUSTIVE_CAP" in _names(node)
    ]
    assert not found, f"EXHAUSTIVE_CAP compared outside exactla: {found}"


def test_algebra_caches_are_read_only_by_the_memo():
    """`._caches` belongs to FiniteDimAlgebra.memo (presentation.py); every
    other cache, the tensor-algebra cache included, is a memo site."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        if name != "presentation.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_caches"
    ]
    assert not found, f"._caches read outside the memo: {found}"


def test_every_memo_site_is_named_in_the_readme_module_table():
    table = "\n".join(
        line for line in (ROOT / "README.md").read_text().splitlines()
        if line.startswith("| `")
    )
    sites = {
        (name, node.args[0].value)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "memo"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }
    assert sites, "no memo sites found"
    missing = sorted(f"{name}: {site}" for name, site in sites if f"`{site}`" not in table)
    assert not missing, f"memo sites missing from README's module table: {missing}"


def test_module_map_primitives_are_defined_once_in_rep():
    """The pushout, the descent through an epi and the block-diagonal
    matrix have one definition each, in rep.py; a private copy of one
    (`_descend`, `_block_diag`) counts as a second."""
    primitives = ("pushout", "descend", "block_diag")
    homes = {
        name: sorted(
            f"{file}:{node.lineno}"
            for file, tree in _trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name.lstrip("_") == name
        )
        for name in primitives
    }
    misplaced = {name: where for name, where in homes.items()
                 if len(where) != 1 or not where[0].startswith("rep.py:")}
    assert not misplaced, f"primitives not defined exactly once, in rep.py: {misplaced}"


def test_no_module_level_mutable_containers():
    """No module of the package assigns a dict, list or set at module level
    (`__all__` aside): a cache is either a per-algebra memo site or a
    `functools.cache` function, so no hand-made cache dict outlives its
    algebras unseen."""
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    builders = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
    found = []
    for name, tree in _trees():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target.id] if isinstance(node.target, ast.Name) else []
            else:
                continue
            value = node.value
            mutable = isinstance(value, containers) or (
                isinstance(value, ast.Call) and _names(value.func) & builders
            )
            if mutable and targets != ["__all__"]:
                found.append(f"{name}:{node.lineno} {', '.join(targets)}")
    assert not found, f"module-level dict, list or set in src/gpktheory: {found}"


def test_every_field_is_a_prime_field():
    """A FieldSpec is GF(p) with p prime, so no module imports `fractions`
    and no `.char` is read as a truth value: the test of an `if` or a
    conditional expression, under `not`, in `and`/`or`, or in `bool(...)`.
    Such a test would pick a branch for characteristic 0, which no
    FieldSpec has."""

    def is_char(node):
        return isinstance(node, ast.Attribute) and node.attr == "char"

    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                modules = []
            if "fractions" in modules:
                found.append(f"{name}:{node.lineno} imports fractions")
            if isinstance(node, (ast.If, ast.IfExp, ast.While)):
                tested = [node.test]
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                tested = [node.operand]
            elif isinstance(node, ast.BoolOp):
                tested = node.values
            elif isinstance(node, ast.Call) and _names(node.func) == {"bool"}:
                tested = node.args
            else:
                tested = []
            if any(map(is_char, tested)):
                found.append(f"{name}:{node.lineno} tests .char for truth")
    assert not found, f"a rational-field branch in src/gpktheory: {found}"


def test_only_waldhausen_uses_the_sampled_isomorphism_search():
    """`rep._find_isomorphism` samples Hom(m, n) past the exhaustive cap, so
    a miss says nothing.  Apart from its definition only waldhausen.py
    names it: `rep.is_isomorphic` and `stable.is_weakly_equivalent` build
    their witnesses from the summands' split maps."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        if name != "waldhausen.py"
        for node in ast.walk(tree)
        if _referenced_name(node) == "_find_isomorphism"
    ]
    assert not found, f"_find_isomorphism referenced outside waldhausen.py: {found}"


def test_only_stable_names_the_stable_inverse_solve():
    """Whether a map is a stable isomorphism is asked of
    `stable.is_stable_iso`, which tries its split-cokernel certificate
    before the linear solve: apart from stable.py no module names
    `_solve_stable_inverse` or the stable Hom memo `_space_cache`."""
    private = {"_solve_stable_inverse", "_space_cache"}
    found = [
        f"{name}:{node.lineno} {_referenced_name(node)}"
        for name, tree in _trees()
        if name != "stable.py"
        for node in ast.walk(tree)
        if _referenced_name(node) in private
    ]
    assert not found, f"stable-inverse internals named outside stable.py: {found}"


def test_stable_isomorphism_rests_on_no_search():
    """`stable.is_weakly_equivalent` decides by Krull-Schmidt on certified
    decompositions, so stable.py names neither coefficient search."""
    tree = ast.parse((SRC / "stable.py").read_text())
    searches = {"coeff_vectors", "sampled_coeff_vectors"}
    found = [
        f"stable.py:{node.lineno}"
        for node in ast.walk(tree)
        if _referenced_name(node) in searches
    ]
    assert not found, f"a coefficient search in stable.py: {found}"


def test_no_numpy_kron_in_the_package():
    """`morita._kron` (one broadcast product) and `rep._hom_system` (views
    filled in place) are the only Kronecker builders: no module names
    np.kron or numpy.kron, by attribute or by import."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if _referenced_name(node) == "kron"
    ]
    assert not found, f"kron referenced in src/gpktheory: {found}"
