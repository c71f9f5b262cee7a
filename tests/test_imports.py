"""Import hygiene, in place of a linter: every name a module of the package,
of the tests or of ``bench`` imports at module level is referenced in that
module or listed in its ``__all__``."""

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
