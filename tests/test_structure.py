"""Module-graph guard: the package's modules import each other in one fixed
order, only at module top level, and shared helpers are defined once. A
layer loaded on first use is named by a string literal, in the export table
of __init__ or in a call of cli's _layer helper; those targets follow the
same order. The package's __getattr__ is the one place that calls
__import__, and no module uses importlib, so no edge hides from the order
check."""

import ast
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from cli_cases import CASES, FIXTURES

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopfwords"

# a module may import only modules listed before it; the package entry
# points (__init__, __main__) may import anything and are imported by none
ORDER = ["errors", "freealg", "linalg", "rep", "dualforms", "sweedler", "cli"]
ENTRY_POINTS = {"__init__", "__main__"}
# the one function that may call __import__: __init__ resolves the names of
# its _EXPORTS table; cli's _layer reaches a layer through it
DEFERRAL_HELPERS = {"__init__": "__getattr__"}
# the modules that name a layer loaded on first use
DEFERRING = ("__init__", "cli")


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


def _deferred_targets(name, tree):
    """(line, target) for each layer a module loads on first use: the keys
    of __init__'s _EXPORTS table, the arguments of cli's _layer calls."""
    if name == "__init__":
        (table,) = [
            node.value
            for node in tree.body
            if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_EXPORTS"]
        ]
        keys = table.keys
    else:
        keys = [
            node.args[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_layer"
        ]
    for key in keys:
        assert isinstance(key, ast.Constant) and isinstance(key.value, str), (
            f"{name}.py line {key.lineno}: a deferred layer is named by a string literal"
        )
    return [(key.lineno, key.value) for key in keys]


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
        edges = [(node.lineno, target) for node in _imports(tree) for target in _package_targets(node)]
        if name in DEFERRING:
            deferred = _deferred_targets(name, tree)
            assert deferred, f"{name}.py names no deferred layer"
            edges += deferred
        for lineno, target in edges:
            assert target not in ENTRY_POINTS, f"{name} imports {target}"
            assert target in ORDER, f"{name}.py line {lineno} imports unknown module {target}"
            if name in ENTRY_POINTS:
                continue
            assert ORDER.index(target) < ORDER.index(name), (
                f"{name}.py line {lineno} imports {target}, "
                f"which comes after it in {ORDER}"
            )
        # importlib, or __import__ anywhere else, would load a module that
        # the edges above never list
        for node in _imports(tree):
            modules = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            assert "importlib" not in {(m or "").split(".")[0] for m in modules}, (
                f"{name}.py line {node.lineno} imports importlib"
            )
        for scope in tree.body:
            helper = scope.name if isinstance(scope, ast.FunctionDef) else None
            for node in ast.walk(scope):
                used = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if used in ("__import__", "import_module"):
                    assert helper is not None and helper == DEFERRAL_HELPERS.get(name), (
                        f"{name}.py line {node.lineno}: {used} outside the deferral helper"
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
    # a LinComb keeps its terms unordered in _terms, as integer numerators
    # over _den; every other module reads the ordered `terms`, or the
    # numerators through freealg._numerators
    readers = {
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("_terms", "_den")
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
    # every layer is imported by name, since the package and its CLI load
    # layers on first use
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = (
        f"import sys, hopfwords, {', '.join(f'hopfwords.{m}' for m in ORDER)}; print(sorted(m for m in "
        "('numpy', 'sympy', 'dataclasses', 'inspect') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# the layers a CLI run loads beyond hopfwords and hopfwords.cli: every
# subcommand parses an alphabet (freealg); --help and usage errors load no more
_FREEALG = {"errors", "freealg"}
_REP = _FREEALG | {"linalg", "rep"}
_DUAL = _REP | {"dualforms"}
_ALL = _DUAL | {"sweedler"}
LAYERS_BY_SUBCOMMAND = {
    "coprod": _FREEALG,
    "mul": _FREEALG,
    "counit": _FREEALG,
    "antipode": _FREEALG,
    "check-coassoc": _FREEALG,
    "check-antipode": _FREEALG,
    "tensor": _REP,
    "dsum": _REP,
    "eval": _REP,
    "pair": _DUAL,
    "conv": _DUAL,
    "check-dual-assoc": _DUAL,
    "hankel": _ALL,
    "rank": _ALL,
    "learn": _ALL,
    "split": _ALL,
    "dualS": _ALL,
    "check-conv-oracle": _ALL,
}
_LOADED_PROBE = (
    "import sys, hopfwords.cli\n"
    "try:\n"
    "    code = hopfwords.cli.run(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "print()\n"
    "print(code, *sorted(m for m in sys.modules if m.partition('.')[0] == 'hopfwords'))\n"
)


def _probe(code, *args):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=FIXTURES, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_every_subcommand_has_its_layer_set():
    from hopfwords.cli import _COMMANDS

    assert set(LAYERS_BY_SUBCOMMAND) == set(_COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [pytest.param(args, id=name) for name, args in CASES]
    + [pytest.param([command, "--help"], id=f"{command}-help") for command in LAYERS_BY_SUBCOMMAND],
)
def test_a_cli_run_loads_only_the_layers_its_subcommand_calls(argv):
    layers = _FREEALG if argv[-1] == "--help" else LAYERS_BY_SUBCOMMAND[argv[0]]
    code, *loaded = _probe(_LOADED_PROBE, *argv).split()
    assert code == "0"
    assert set(loaded) == {"hopfwords", "hopfwords.cli"} | {f"hopfwords.{layer}" for layer in layers}


# today's public names by defining module; __all__ lists them sorted
PUBLIC = {
    "errors": "DomainError HopfwordsError InconclusiveError InternalInvariantError ParseError",
    "freealg": "Alphabet Letter LetterKind NCPoly Tensor2 Tensor3 Word antipode coassoc_lhs coassoc_rhs "
    "conc coproduct counit poly_mul splittings tensor2_mul",
    "linalg": "Matrix",
    "rep": "LinRep MatRep conv_rep direct_sum dual_action eval_rep eval_word pairing_invariance_check "
    "rep_sum scale_rep tensor_rep trivial_rep zero_rep",
    "dualforms": "FiniteSupportSeries RecognizableSeries Series convolve dual_unit embed_finite pair "
    "reps_equal",
    "sweedler": "HankelSlice behavior_table dual_counit hankel hankel_rank learn shift_left "
    "shift_right split transpose_antipode",
}


def test_the_public_api_is_unchanged_by_loading_on_first_use():
    import hopfwords

    names = sorted(name for names in PUBLIC.values() for name in names.split())
    assert len(names) == 53
    assert hopfwords.__all__ == names
    for layer, defined in PUBLIC.items():
        module = importlib.import_module(f"hopfwords.{layer}")
        assert getattr(hopfwords, layer) is module
        for name in defined.split():
            assert getattr(hopfwords, name) is vars(module)[name]
    star: dict = {}
    exec("from hopfwords import *", star)
    assert sorted(star.keys() - {"__builtins__"}) == names
    assert not hasattr(hopfwords, "nope")
    assert set(names) | set(PUBLIC) <= set(dir(hopfwords))
    alphabet = hopfwords.Alphabet.from_decl("a:L,g:G")
    for value in (hopfwords.Word(alphabet, "ga"), hopfwords.NCPoly.from_text(alphabet, "3*ga - 1/2")):
        assert pickle.loads(pickle.dumps(value)) == value
    # a fresh process: the package alone loads no layer, a name loads its
    # defining layer and what that imports, a layer name loads the layer
    probe = (
        "import sys, hopfwords\n"
        "loaded = lambda: [m for m in sorted(sys.modules) if m.startswith('hopfwords.')]\n"
        "first = loaded(); hopfwords.Matrix; second = loaded()\n"
        "print(first, second, hopfwords.sweedler is sys.modules['hopfwords.sweedler'], len(loaded()))\n"
    )
    assert _probe(probe) == "[] ['hopfwords.errors', 'hopfwords.linalg'] True 6"
