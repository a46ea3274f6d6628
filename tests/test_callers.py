"""Every public module-level function and class has a caller in the program.

A name counts as used when some module of the package names it in code (a
name, an attribute, or an import), apart from its own definition; a mention
in a comment or docstring does not count, and neither does a test.

`cli` owns every output format: it is the one module that imports `csv`,
and the only `write_*` function defined elsewhere is `sensing.write_depth_map`,
which runs in the forked frame helpers. Every `write_*` function in `cli`'s
namespace takes the output path as its second argument: perfbench times each
one as `cli.write` and reads the size of the file named by argument 1.
"""
import ast
import inspect
from pathlib import Path

import lanesight
from lanesight import cli

PACKAGE = Path(lanesight.__file__).parent


def _public_definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _names_used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def test_every_public_definition_is_named_elsewhere_in_the_package():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert "fusion.py" in trees and "cli.py" in trees
    used = set().union(*map(_names_used, trees.values()))
    orphans = [f"{module}:{name}" for module, tree in trees.items()
               for name in _public_definitions(tree) if name not in used]
    assert orphans == []


def test_only_cli_imports_csv_or_defines_writers():
    csv_importers, writers = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "csv" in names:
                csv_importers.append(path.name)
        writers += [f"{path.stem}.{node.name}" for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("write_")]
    assert csv_importers == ["cli.py"]
    assert [w for w in writers if not w.startswith("cli.")] == ["sensing.write_depth_map"]


def test_every_writer_in_clis_namespace_takes_the_path_second():
    writers = {name: fn for name, fn in vars(cli).items()
               if name.startswith("write_") and inspect.isfunction(fn)}
    assert "write_curve_csv" in writers
    misplaced = [name for name, fn in writers.items()
                 if list(inspect.signature(fn).parameters)[1:2] != ["path"]]
    assert misplaced == []
