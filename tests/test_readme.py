"""The README's Python example runs as written; its CLI examples parse.

Also guards the package surface: ``__all__`` resolves, the README imports
only exported names, the test oracles stay independent of the package, no
module-level private name outlives its last use in the package, and no
public one is reachable from the tests alone.
"""

import ast
import re
import shlex
from pathlib import Path

import isingring
from isingring.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
PACKAGE = Path(isingring.__file__).resolve().parent
CLI = PACKAGE / "cli.py"
PERFBENCH = README.parent / "perfbench"


def _python_blocks(text: str) -> list:
    return re.findall(r"```python\n(.*?)```", text, re.DOTALL)


def test_readme_python_example_runs(monkeypatch, tmp_path):
    blocks = _python_blocks(README.read_text())
    assert blocks, "README has no Python example"
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_examples_parse():
    """Every ``isingring ...`` line of the README's sh blocks is accepted by
    the CLI parser.  Only parsed: the free-angle N = 5 sweep is far too slow
    to run here."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    commands = [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("isingring ")
    ]
    assert {argv[0] for argv in commands} == {
        "ground-state", "measures", "sweep", "fit"
    }
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_all_names_resolve():
    missing = [name for name in isingring.__all__ if not hasattr(isingring, name)]
    assert not missing


def test_readme_imports_only_exported_names():
    imported = {
        alias.name
        for block in _python_blocks(README.read_text())
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "isingring"
        for alias in node.names
    }
    assert imported, "README imports nothing from isingring"
    assert imported <= set(isingring.__all__), imported - set(isingring.__all__)


def test_oracles_import_nothing_from_the_package():
    modules = set()
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    assert not {m for m in modules if m.split(".")[0] == "isingring"}, modules


def test_cli_reaches_the_measures_through_the_measure_table():
    """The CLI computes measures through ``sweep._MEASURES`` alone: it imports
    nothing from ``pair_measures`` or ``entanglement`` and only the optimizer
    settings from ``global_discord``."""
    imported = set()  # (module, name); name None for a whole module
    for node in ast.walk(ast.parse(CLI.read_text())):
        if isinstance(node, ast.Import):
            imported |= {(a.name.split(".")[-1], None) for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            imported |= {(a.name, None) if module in ("", "isingring")
                         else (module, a.name) for a in node.names}
    modules = {module for module, _ in imported}
    assert not modules & {"pair_measures", "entanglement"}, imported
    assert {n for m, n in imported if m == "global_discord"} == {"OptimizerConfig"}


def _referenced_names(source: str) -> set:
    """Names a module's source loads, reads as attributes or imports."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _module_level_definitions(path: Path) -> set:
    defined = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    return defined


def test_every_private_name_is_used_in_the_package():
    """A module-level private name that nothing in the package references is
    dead code left behind by a refactor; a use in the tests does not count."""
    modules = sorted(PACKAGE.glob("*.py"))
    defined = set().union(*map(_module_level_definitions, modules))
    used = set().union(*(_referenced_names(p.read_text()) for p in modules))
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    assert private <= used, sorted(private - used)


def _code_names(markdown: str) -> set:
    """Identifiers a Markdown text uses as code: the words of its inline
    code spans and the names its Python blocks reference.  Prose, fenced
    blocks of other kinds and comments do not count."""
    outside_blocks = re.sub(r"```.*?```", "", markdown, flags=re.DOTALL)
    names = {word for span in re.findall(r"`([^`]+)`", outside_blocks)
             for word in re.findall(r"\w+", span)}
    return names.union(*map(_referenced_names, _python_blocks(markdown)))


def test_code_names_skip_prose_and_comments():
    text = ("alpha `beta.gamma()` delta\n```python\nimport epsilon  # zeta\n"
            "eta(theta=1)\n```\n```sh\niota `kappa`\n```\n")
    assert _code_names(text) == {"beta", "gamma", "epsilon", "eta"}


def test_every_public_name_is_reachable_without_the_tests():
    """A public module-level name (function, class or constant) must be
    referenced by a package module other than ``__init__`` (whose re-exports
    reach everything), by the benchmark in ``perfbench/`` or by the README's
    code (``_code_names``: not its prose or comments); a name that only the
    tests use is dead code."""
    modules = sorted(PACKAGE.glob("*.py"))
    defined = set().union(*map(_module_level_definitions, modules))
    public = {n for n in defined if not n.startswith("_")}
    callers = [p for p in modules if p.name != "__init__.py"]
    callers += sorted(PERFBENCH.glob("*.py"))
    used = set().union(*(_referenced_names(p.read_text()) for p in callers))
    unreached = public - used - _code_names(README.read_text())
    assert not unreached, sorted(unreached)
