"""The package's surface and source hygiene: the public names of lehmer_psi,
the README's library sketch, imports that no module uses, and definitions
that only tests reach."""

import ast
import runpy
import types
from pathlib import Path

import lehmer_psi

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lehmer_psi"


def test_public_names_are_pinned():
    # every public library name; a new one must be added here on purpose
    expected = [
        "BoundReport", "CarmichaelCertificate", "CheckpointError", "ConstantCheck",
        "CounterexampleFound", "Cyclic", "Dihedral", "DomainError", "Factorization",
        "GENERIC_PROFILE", "GroupSpec", "LehmerProfile", "LehmerVerdict", "MinKResult",
        "OrderSpectrum", "PrimalityResult", "Product", "Quaternion8", "ScanCheckpoint",
        "abundancy_bound", "approx_str", "batch_verdicts", "carmichael_in_range",
        "certified_close", "chain_upper", "check_bounds",
        "euler_phi", "exclude_k", "factor",
        "fraction_str", "is_prime", "is_squarefree", "k_ladder", "korselt_check",
        "ladder_condition", "lehmer_check", "make_profile", "min_k", "nilpotent_lower_bound",
        "order_spectrum", "parse_group_spec", "primality", "product",
        "profile_from_factorization", "psi", "psi_cyclic",
        "read_checkpoint", "scan_totient_divisibility", "sigma", "two_power_threshold",
        "upper_coefficient", "verify_constants", "witness_double_prime", "witness_group",
        "witness_lower_bound", "write_checkpoint",
    ]
    public = sorted(
        name for name, value in vars(lehmer_psi).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == expected


def _readme_sketch() -> str:
    readme = (ROOT / "README.md").read_text()
    return readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_sketch_runs():
    # each expression line's comment, up to a double space, is its repr
    block = _readme_sketch()
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        code, _, comment = lines[stmt.end_lineno - 1].partition("#")
        expected = comment.strip().partition("  ")[0]
        assert repr(value) == expected, code.strip()
        checked.append(expected)
    assert {"True", "3", "4", "(189, 24, False)"} <= set(checked)


def test_no_module_imports_a_name_it_never_uses():
    # bench/tracing.py rebinds PATCHES names in the modules it lists, so such
    # a binding is kept even where the module itself does not call it
    patches = runpy.run_path(str(ROOT / "bench" / "tracing.py"))["PATCHES"]
    traced = {(module, attr) for attr, modules in patches.values() for module in modules}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and (path.stem, name) not in traced:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_definition_is_reached_outside_the_tests():
    # a function, class, method or property of src/ is named somewhere a
    # command, the benchmark or the README sketch reaches it; one that only
    # tests name is surface to delete (its test oracle goes to conftest.py)
    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.keyword) and node.arg:
                yield node.arg

    callers = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    callers += sorted((ROOT / "bench").glob("*.py"))
    named = set(names(ast.parse(_readme_sketch())))
    for path in callers:
        named.update(names(ast.parse(path.read_text(), str(path))))
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if node.name not in named:
                unreached.append(f"{path.name}:{node.lineno} {node.name}")
    assert unreached == []
