"""The package's modules reach each other only through public names."""

import ast
import pathlib

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
