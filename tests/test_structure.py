"""Module-graph guard: the package's modules import each other in one fixed
order, only at module top level, and shared helpers are defined once."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopfwords"

# a module may import only modules listed before it; the package entry
# points (__init__, __main__) may import anything and are imported by none
ORDER = ["errors", "freealg", "linalg", "rep", "dualforms", "sweedler", "cli"]
ENTRY_POINTS = {"__init__", "__main__"}


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _imports(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def _package_targets(node):
    """The package modules an import statement names, relative or absolute."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    elif node.level:
        if node.module:
            return [node.module.split(".")[0]]
        return [alias.name for alias in node.names]
    elif node.module == "hopfwords":
        dotted = [f"hopfwords.{alias.name}" for alias in node.names]
    else:
        dotted = [node.module]
    return [d.split(".")[1] for d in dotted if d.startswith("hopfwords.")]


def test_every_module_has_a_place_in_the_order():
    assert set(_trees()) == set(ORDER) | ENTRY_POINTS


def test_imports_are_at_module_top_level():
    # no function-local or TYPE_CHECKING imports patching over a cycle
    for name, tree in _trees().items():
        top = {id(node) for node in tree.body}
        for node in _imports(tree):
            assert id(node) in top, f"{name}.py line {node.lineno}: nested import"


def test_import_edges_follow_the_module_order():
    for name, tree in _trees().items():
        for node in _imports(tree):
            for target in _package_targets(node):
                assert target not in ENTRY_POINTS, f"{name} imports {target}"
                if name in ENTRY_POINTS:
                    continue
                assert ORDER.index(target) < ORDER.index(name), (
                    f"{name}.py line {node.lineno} imports {target}, "
                    f"which comes after it in {ORDER}"
                )


def test_same_alphabet_is_defined_once():
    found = [
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_same_alphabet"
    ]
    assert found == ["freealg"]


def test_antipode_domain_guard_is_written_once():
    # freealg, rep, sweedler and cli refuse the antipode through one helper
    message = "no antipode: group-like letters present"
    found = [path.stem for path in PACKAGE.glob("*.py") if message in path.read_text()]
    assert found == ["freealg"]


def test_linear_combinations_share_one_body():
    # NCPoly, Tensor2 and Tensor3 differ only in their arity: construction,
    # arithmetic and printing are written once, as is the term parser
    tree = _trees()["freealg"]
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    shared = {"__init__", "__eq__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "scale", "__str__"}
    for name in ("NCPoly", "Tensor2", "Tensor3"):
        defined = {node.name for node in classes[name].body if isinstance(node, ast.FunctionDef)}
        assert not defined & shared, f"{name} defines {sorted(defined & shared)}"
    functions = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert functions.count("_canonical") == 1
    assert [f for f in functions if f.startswith("_parse") and f.endswith("term")] == ["_parse_term"]


def test_term_order_is_written_once():
    # the canonical term order has one implementation, the first read of
    # LinComb.terms; construction, sums and the kernels sort nothing
    tree = _trees()["freealg"]
    users = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name != "_text_order"
        and any(isinstance(n, ast.Name) and n.id == "_text_order" for n in ast.walk(node))
    ]
    assert users == ["terms"]


def test_only_freealg_reads_the_term_store():
    # a LinComb keeps its terms unordered in _terms; every other module
    # reads the ordered `terms`
    readers = {
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_terms"
    }
    assert readers == {"freealg"}


def test_only_freealg_reads_the_stored_symbol_string():
    # a Word stores its symbol string once; every other module goes through
    # Word(alphabet, letters), which checks, and reads w.symbols() or w.letters
    for name, tree in _trees().items():
        if name == "freealg":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_symbols":
                raise AssertionError(f"{name}.py line {node.lineno} reads ._symbols")


def test_word_has_one_stored_form_and_one_constructor():
    from hopfwords.freealg import Word

    assert Word.__slots__ == ("alphabet", "_symbols", "_hash")
    code = Word.__init__.__code__
    assert code.co_varnames[: code.co_argcount] == ("self", "alphabet", "letters")
    assert not Word.__init__.__defaults__


def test_importing_the_package_pulls_in_no_numeric_dependency():
    # the library promises zero dependencies: numpy and sympy may be
    # installed, but importing hopfwords or its CLI must not load them;
    # nor dataclasses and inspect, which cost every CLI run about 10 ms
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = (
        "import sys, hopfwords, hopfwords.cli; print(sorted(m for m in "
        "('numpy', 'sympy', 'dataclasses', 'inspect') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
