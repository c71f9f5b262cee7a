"""Import hygiene, in place of a linter: every name a module of the package,
of the tests or of ``bench`` imports at module level is referenced in that
module or listed in its ``__all__``, and every definition in the package is
used by a program, not only by tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items()
            if name not in used and name not in exported]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted([*(ROOT / "src" / "popgraph").glob("*.py"), *(ROOT / "tests").glob("*.py"),
                    *(ROOT / "bench").glob("*.py")])
    assert len(paths) > 10
    assert [unused for path in paths for unused in _unused_imports(path)] == []


def test_numerics_imports_no_package_module_and_no_thread_pool():
    """``numerics`` is the tape engine alone: the graph draw's kernels, its
    block walk and its helper thread live in ``graphgen``, which builds on
    the tape, never the other way round."""
    tree = ast.parse((ROOT / "src" / "popgraph" / "numerics.py").read_text(encoding="utf-8"))
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("popgraph" if node.level else node.module.split(".")[0])
    assert roots.isdisjoint({"popgraph", "concurrent"}), sorted(roots)


def _definitions(path: Path):
    """(name, line) of each top-level function and class of a module and of
    each method of its classes that is not a dunder."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item.lineno) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def _references(path: Path, hooks: bool) -> set:
    """Every name a module reads, as a bare name or as an attribute, and with
    ``hooks`` the last part of each dotted "module.attr" string constant."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif (hooks and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "." in node.value and all(p.isidentifier() for p in node.value.split("."))):
            refs.add(node.value.rsplit(".", 1)[1])
    return refs


def test_every_package_definition_is_used_by_a_program():
    """Each function, class and method defined in the package is referenced
    by the package itself, by ``bench`` or by the ``perfbench`` harness (whose
    hooks name it as a "module.attr" string): code only the tests call
    belongs in the tests, for example in ``tests/oracles.py``."""
    src = sorted((ROOT / "src" / "popgraph").glob("*.py"))
    refs = set().union(*(_references(p, False) for p in [*src, *(ROOT / "bench").glob("*.py")]),
                       *(_references(p, True) for p in (ROOT / "perfbench").glob("*.py")))
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}" for path in src
              for name, line in _definitions(path) if name not in refs]
    assert unused == []
