"""Every public name of the package has a user besides the tests.

A public top-level function, class or constant of `src/lflc` must be
referenced outside its own definition somewhere in the package, the
benchmark (`bench/`) or the demos (`demos/`). A name only the tests call
is test code and belongs under `tests/`. Names are matched by identifier
alone, so a name that shares its identifier with a used one passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lflc"
USERS = (PACKAGE, ROOT / "bench", ROOT / "demos")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_names(tree: ast.Module) -> set[str]:
    """Top-level functions, classes and assigned constants not starting with _."""
    names = set()
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def referenced_names(tree: ast.Module) -> dict[str, set[str]]:
    """Identifier -> names of the top-level definitions it is read in ("" for
    module-level code). Reads are loaded names, attribute names and names
    imported by `from ... import`."""
    found: dict[str, set[str]] = {}
    for node in tree.body:
        owner = node.name if isinstance(node, DEFINITIONS) else ""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            elif isinstance(sub, ast.ImportFrom):
                for alias in sub.names:
                    found.setdefault(alias.name, set()).add(owner)
                continue
            else:
                continue
            found.setdefault(name, set()).add(owner)
    return found


def test_every_public_name_has_a_user_outside_the_tests():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for folder in USERS
        for path in sorted(folder.rglob("*.py"))
        if not path.name.startswith("test_")
    }
    references = {path: referenced_names(tree) for path, tree in trees.items()}
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        for name in sorted(public_names(trees[module])):
            users = [
                path
                for path, found in references.items()
                for owner in found.get(name, ())
                if path != module or owner != name
            ]
            if not users:
                unused.append(f"{module.stem}.{name}")
    assert unused == [], f"public names only the tests use: {unused}"
