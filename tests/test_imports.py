"""The package's modules reach each other only through public names, and the
engine modules stay independent of the verification harness."""

import ast
import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import coalsim

SOURCE = pathlib.Path(coalsim.__file__).parent


def test_no_module_imports_another_modules_private_name():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [
                    f"{path.name}:{node.lineno} imports {alias.name} from .{node.module}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not found, found


HARNESS = ("oracles", "generators", "properties")
ENUMERATORS = {"subsets", "exhaustive_base", "enumerate_values"}
# liftings holds the engine's one subset enumerator and its one gate.
ALLOWED = {"liftings.py": {"subsets", "exhaustive_base"}}


def _reached(tree):
    """(line, name) of every identifier a module defines, reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((node.lineno, alias.name.rsplit(".", 1)[-1]) for alias in node.names)


def _harness_import(node):
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.split(".")[-1] in HARNESS or any(a.name in HARNESS for a in node.names)
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[-1] in HARNESS for a in node.names)
    return False


def test_engine_modules_stay_out_of_the_harness():
    """Only liftings enumerates subsets; no engine module loads the harness."""
    engine = [p for p in sorted(SOURCE.glob("*.py")) if p.stem not in HARNESS + ("cli",)]
    found = []
    for path in engine:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = ALLOWED.get(path.name, set())
        found += [
            f"{path.name}:{line} reaches {name}"
            for line, name in _reached(tree)
            if name in ENUMERATORS - allowed
        ]
        found += [
            f"{path.name}:{node.lineno} imports the harness"
            for node in ast.walk(tree)
            if _harness_import(node)
        ]
    assert not found, found


DROPPED = (
    "GeneratorConfig", "generate_coalgebra", "random_formula", "random_positive_formula",
    "random_relation", "brute_force_simulation_oracle", "PROPERTIES", "PropertyRunReport",
    "run_property_suite", "theorem_matrix", "lambda_leq", "distinguishing_pair",
    "is_lambda_homomorphism", "enumerate_values", "EnumerationBudget",
)


def test_import_coalsim_loads_no_harness():
    code = (
        "import sys, coalsim; "
        f"print([m for m in {['coalsim.' + h for h in HARNESS]!r} if m in sys.modules]); "
        f"print([n for n in {DROPPED!r} if hasattr(coalsim, n)])"
    )
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out == "[]\n[]\n"


def test_theorem_matrix_exercises_resolve_to_one_function():
    defined = {}
    for info in pkgutil.iter_modules(coalsim.__path__):
        module = importlib.import_module(f"coalsim.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                defined.setdefault(name, []).append(module.__name__)
    matrix = json.loads((SOURCE / "theorem_matrix.json").read_text(encoding="utf-8"))
    names = {n for entry in matrix for n in entry["exercises"]}
    assert names
    unresolved = {n: defined.get(n, []) for n in sorted(names) if len(defined.get(n, [])) != 1}
    assert not unresolved, unresolved
