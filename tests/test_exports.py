"""The package's exports: veracity.__all__ lists, sorted and once each,
exactly the public names that veracity/__init__.py imports from the
package's own modules or defines, so a removed name cannot linger there."""

import ast
import inspect

import veracity


def _bound_public_names() -> set[str]:
    names = set()
    for node in ast.parse(inspect.getsource(veracity)).body:
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_all_is_sorted_without_duplicates():
    assert veracity.__all__ == sorted(set(veracity.__all__))


def test_every_listed_name_resolves():
    assert [name for name in veracity.__all__ if not hasattr(veracity, name)] == []


def test_all_is_every_public_name_the_package_binds():
    assert set(veracity.__all__) == _bound_public_names()
