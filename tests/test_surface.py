"""The package's surface and source hygiene: the public names of lehmer_psi,
the README's library sketch, and imports that no module uses."""

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
        "certified_close", "chain_upper", "check_bounds", "divisor_totient_pairs",
        "eq_lower_constant", "euler_phi", "exclude_k", "exclusion_threshold", "factor",
        "fraction_str", "is_prime", "is_squarefree", "k_ladder", "korselt_check",
        "ladder_condition", "lehmer_check", "make_profile", "min_k", "nilpotent_lower_bound",
        "order_spectrum", "parse_group_spec", "primality", "product",
        "profile_from_factorization", "psi", "psi_cyclic", "psi_double_prime", "psi_prime",
        "read_checkpoint", "scan_totient_divisibility", "sigma", "two_power_threshold",
        "upper_coefficient", "verify_constants", "witness_double_prime", "witness_group",
        "witness_lower_bound", "write_checkpoint",
    ]
    public = sorted(
        name for name, value in vars(lehmer_psi).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == expected


def test_readme_library_sketch_runs():
    # each expression line's comment, up to a double space, is its repr
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
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
