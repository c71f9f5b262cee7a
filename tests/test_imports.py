"""Import hygiene, in place of a linter: every name a module of the package,
of the tests or of ``bench`` imports at module level is referenced in that
module or listed in its ``__all__``, and every definition in the package is
used by a program, not only by tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _exported(tree) -> list:
    """The names a module's ``__all__`` lists (none without one)."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)]


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, exported = {}, set(_exported(tree))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
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


# the functions that may seed a generator: a run's master stream, its derived
# streams, the checkpoint loader's throwaway initial values and the dataset's
# own seeded population and split
SEEDING_FUNCTIONS = {("trainer", "stream_rng"), ("trainer", "train"), ("trainer", "load_run"),
                     ("dataio", "generate_synthetic"), ("dataio", "split")}


def _named(node) -> set:
    """The names a node of a syntax tree reads, imports or passes as a
    keyword argument."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.keyword) and node.arg is not None:
        return {node.arg}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {alias.name.rsplit(".", 1)[-1] for alias in node.names}
    return set()


def test_package_has_one_seed_derivation_scheme():
    """Generators come only from seeds: no module of the package names a
    generator's bit generator, moves one on with ``advance`` or copies one
    with ``deepcopy``, and ``default_rng`` is called only in the functions
    of ``SEEDING_FUNCTIONS``; a draw that needs several streams takes
    children that ``Generator.spawn`` made."""
    found = []
    for path in sorted((ROOT / "src" / "popgraph").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.stem}:{node.lineno}: {name}" for node in ast.walk(tree)
                  for name in _named(node) & {"advance", "bit_generator", "deepcopy"}]
        for top in tree.body:
            if (path.stem, getattr(top, "name", None)) not in SEEDING_FUNCTIONS:
                found += [f"{path.stem}:{node.lineno}: default_rng" for node in ast.walk(top)
                          if isinstance(node, ast.Call) and "default_rng" in _named(node.func)]
    assert found == []


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


def _named_outside_dataio(names: set) -> list:
    """Where a package module other than ``dataio`` names one of ``names``."""
    return [f"{path.stem}:{node.lineno}: {name}"
            for path in sorted((ROOT / "src" / "popgraph").glob("*.py")) if path.stem != "dataio"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            for name in _named(node) & names]


def test_only_dataio_names_the_column_kinds():
    """The population table's column layout has one owner: only ``dataio``
    names the ``KIND_*`` constants, and every other module reads a column's
    kind from ``PopulationDataset.column_kinds``."""
    assert _named_outside_dataio({"KIND_NONIMAGING", "KIND_IMAGING", "KIND_FEATURE"}) == []


def test_only_dataio_names_the_phenotype_layout():
    """Where each phenotype lives has one owner: no module but ``dataio``
    reads a dataset's layout fields or sets them as keyword arguments (as
    ``dataclasses.replace`` would). The others see the phenotypes through
    ``phenotype_matrix``, ``phenotype_names``, ``column_kinds`` and the
    one-block views of ``restrict_phenotypes``."""
    layout = {"nonimaging", "nonimaging_names", "n_nonimaging", "n_imaging",
              "imaging_names", "imaging_cols", "feature_names"}
    assert _named_outside_dataio(layout) == []


def _top_level_definitions(tree) -> set:
    """The names a module's own top-level statements define: its functions,
    classes and assigned names, not what it imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_every_all_lists_only_the_modules_own_definitions():
    """A module's ``__all__`` exports what it defines, never a name it
    imports: a name moved to another module and left behind in the old
    ``__all__`` would otherwise pass ``_unused_imports`` as used."""
    foreign = []
    for path in sorted((ROOT / "src" / "popgraph").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = _top_level_definitions(tree)
        foreign += [f"{path.stem}: {name}" for name in _exported(tree) if name not in own]
    assert foreign == []
