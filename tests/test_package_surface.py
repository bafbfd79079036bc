"""The package exports only what its runs, scripts, benchmark and README use.

Every name in a decopt module's ``__all__``, and every exception class in
``decopt.errors``, must be loaded, imported or raised somewhere in
``src/decopt``, ``scripts/``, ``perfbench/`` or README's library block,
outside its own definition. Code that only the tests call belongs under
``tests/``, where it serves as their oracle. The package forks from one
function, runner.fork_ahead, which it does not export, and the solvers hold
no process code.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "decopt"


def _module_name(path: Path) -> str:
    return "decopt" if path.stem == "__init__" else f"decopt.{path.stem}"


def _sources():
    """(the module a file is, or None outside the package; its parsed tree) for every
    source the scan reads."""
    for path in sorted(PACKAGE.glob("*.py")):
        yield _module_name(path), ast.parse(path.read_text())
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield None, ast.parse(path.read_text())
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, flags=re.S):
        yield None, ast.parse(block)


def _exports():
    """(module, name) for each name in a package module's __all__ and each exception
    class of decopt.errors."""
    for path in sorted(PACKAGE.glob("*.py")):
        module, tree = _module_name(path), ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                yield from ((module, name) for name in ast.literal_eval(node.value))
            if module == "decopt.errors" and isinstance(node, ast.ClassDef):
                yield module, node.name


def _parents(module: str):
    """(package, submodule) for each step of a dotted module path: importing
    decopt.errors uses the name errors of decopt."""
    parts = module.split(".")
    return {(".".join(parts[:i]), parts[i]) for i in range(1, len(parts))}


def _owner(node, aliases: dict) -> str | None:
    """The dotted path that a Name or Attribute chain stands for, when it starts at an
    imported name."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _owner(node.value, aliases)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _uses(here: str | None, tree: ast.Module) -> set:
    """(module, name) pairs that one source loads, imports or raises.

    A module-qualified attribute counts for its module, an import for the
    module it reads from, and a bare name for the module that defines it,
    when it is loaded outside the top-level definition of that name. A
    module's import from itself (the package's ``from . import config``)
    defines the name and does not use it.
    """
    uses, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "decopt" + (f".{node.module}" if node.module else "") if node.level \
                else node.module
            uses |= _parents(module)
            for alias in node.names:
                if module != here:
                    uses.add((module, alias.name))
                aliases[alias.asname or alias.name] = f"{module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                uses |= _parents(alias.name)
                local = alias.asname or alias.name.split(".")[0]
                aliases[local] = alias.name if alias.asname else local
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = _owner(node.value, aliases)
            if owner is not None:
                uses.add((owner, node.attr))
    if here is not None:
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            uses |= {(here, node.id) for node in ast.walk(top) if isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Load) and node.id != own}
    return uses


def test_every_export_is_used_outside_the_tests():
    uses = set().union(*(_uses(here, tree) for here, tree in _sources()))
    exports = list(_exports())
    assert ("decopt.diagnostics", "TraceRecorder") in exports
    unused = sorted(f"{module}.{name}" for module, name in exports
                    if (module, name) not in uses)
    assert not unused, f"used only by the tests, if at all: {unused}"


def test_the_scan_sees_each_kind_of_use():
    tree = ast.parse("import decopt.config\nfrom decopt import runner as r\n"
                     "from decopt.objectives import synth_ridge\n"
                     "r.compare\ndecopt.config.parse_config\n")
    assert {("decopt", "config"), ("decopt", "runner"), ("decopt.objectives", "synth_ridge"),
            ("decopt.runner", "compare"), ("decopt.config", "parse_config")} <= _uses(None, tree)
    own = ast.parse("def f():\n    return f()\n\ndef g():\n    raise E(f)\n")
    assert _uses("decopt.m", own) == {("decopt.m", "E"), ("decopt.m", "f")}


def test_one_fork_helper():
    # every process the package forks comes from runner.fork_ahead, the one helper
    # that starts work ahead in a forked child, and no process leads or kills a group
    calls = {(module, getattr(top, "name", None), node.func.attr)
             for module, tree in _sources() if module is not None
             for top in tree.body for node in ast.walk(top) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("fork", "setpgid", "killpg")}
    assert calls == {("decopt.runner", "fork_ahead", "fork")}
    assert not [(module, name) for module, name in _exports() if "fork" in name]
    # the engines and the grid search know nothing of children: runner forks,
    # reports and joins, and no solvers function takes a child to join
    tree = ast.parse((PACKAGE / "solvers.py").read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module and not node.level}
    assert not imported & {"os", "pickle", "signal"}
    params = {arg.arg for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)}
    assert "state" in params and "ahead" not in params
