"""The demos and the README's library sketch run, every public name
resolves, the benchmark's self-check passes, no module imports a name it
never uses, no module of the package imports another's private name, no
function of the package takes a parameter it never reads, every private
function of the package is used, and every private name that the
package's strings or the README quote is defined.

Each demo is a script against the public API; running it here means a
deleted or renamed name that a demo still uses fails the suite.  The
benchmark harness in perfbench/ calls the package the same way, so its
own test suite runs here too.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import cuspforge as cf

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


def _run_script(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = _run_script([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_sketch_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library sketch", 1)[1]
    sketch = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = _run_script(["-c", sketch], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "NotIsolated"


def test_public_names_resolve():
    for name in cf.__all__:
        assert getattr(cf, name, None) is not None, name


def test_perfbench_self_check_passes():
    proc = subprocess.run([sys.executable, "-m", "pytest", "perfbench", "-q",
                           "-p", "no:cacheprovider"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def _unused_imports(path: pathlib.Path) -> list[str]:
    """The names that `path` imports and never loads, as "line: name".
    `from __future__` imports and `if TYPE_CHECKING:` blocks (whose names
    serve string annotations) are not counted."""
    tree = ast.parse(path.read_text())
    typing_only = {id(n) for node in ast.walk(tree)
                   if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING")
                   for n in ast.walk(node)}
    imported = {}
    for node in ast.walk(tree):
        if id(node) in typing_only or not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{line}: {name}" for name, line in sorted(imported.items()) if name not in loaded]


def test_no_unused_imports():
    # the package's __init__.py imports to re-export, so it is not scanned
    paths = [p for pattern in ("src/cuspforge/*.py", "tests/*.py", "demos/*.py")
             for p in sorted(ROOT.glob(pattern)) if p.name != "__init__.py"]
    assert len(paths) > 20
    unused = {str(p.relative_to(ROOT)): names for p in paths if (names := _unused_imports(p))}
    assert unused == {}


def _private_imports(path: pathlib.Path) -> list[str]:
    """The private names (`_name`, not dunder) that `path` imports from a
    module of the package, as "line: module.name"."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("cuspforge")):
            found += [f"{node.lineno}: {node.module}.{alias.name}" for alias in node.names
                      if re.match(r"_[^_]", alias.name)]
    return found


def test_no_module_imports_a_private_name_of_another():
    # a helper that two modules share is public in one of them
    paths = sorted(ROOT.glob("src/cuspforge/*.py"))
    assert len(paths) > 5
    found = {p.name: names for p in paths if (names := _private_imports(p))}
    assert found == {}


def _unused_parameters(path: pathlib.Path) -> list[str]:
    """The parameters of the functions, methods and lambdas of `path` that
    their bodies never read, as "line: function(parameter)"; `self` and
    `cls` are not counted.  A read in a nested function counts."""
    unused = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if p is not None and p.arg not in ("self", "cls")]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {n.id for stmt in body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        unused += [f"{node.lineno}: {name}({p})" for p in params if p not in loaded]
    return unused


def test_no_unused_parameters():
    # a parameter no body reads is a knob left behind
    paths = sorted(ROOT.glob("src/cuspforge/*.py"))
    assert len(paths) > 5
    unused = {str(p.relative_to(ROOT)): names for p in paths if (names := _unused_parameters(p))}
    assert unused == {}


def _unreferenced_private_functions(paths) -> list[str]:
    """The private functions and methods (`_name`, not dunder) defined in
    `paths` that no code in `paths` names outside their own definition, as
    "file:line: name".  A name counts where it is loaded or read as an
    attribute."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    references = [(n.id if isinstance(n, ast.Name) else n.attr, id(n))
                  for tree in trees.values() for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                  or isinstance(n, ast.Attribute)]
    unreferenced = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.endswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(ref == name and key not in inside for ref, key in references):
                unreferenced.append(f"{path.name}:{node.lineno}: {name}")
    return unreferenced


def test_no_unreferenced_private_functions():
    # a private helper that nothing calls is code left behind
    paths = sorted(ROOT.glob("src/cuspforge/*.py"))
    assert len(paths) > 5
    assert _unreferenced_private_functions(paths) == []


def _undefined_private_names(paths, texts) -> list[str]:
    """The backticked names in the string constants of `paths` and in
    `texts` whose last dotted part starts with one underscore but that no
    code in `paths` defines, as "source: name".  A function, a class and
    an assigned name or attribute count as defined."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    defined = set()
    for n in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(n.name)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            defined.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
            defined.add(n.attr)
    sources = [(path.name, n.value) for path, tree in trees.items() for n in ast.walk(tree)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    sources += [(path.name, path.read_text()) for path in texts]
    undefined = set()
    for source, text in sources:
        for name in re.findall(r"`([A-Za-z_][\w.]*)`", text):
            last = name.split(".")[-1]
            if re.match(r"_[^_]", last) and last not in defined:
                undefined.add(f"{source}: {name}")
    return sorted(undefined)


def test_docs_name_only_defined_private_functions():
    # a docstring or the README that names a renamed or removed helper
    # points the reader at nothing; ROADMAP and CHANGES record history
    paths = sorted(ROOT.glob("src/cuspforge/*.py"))
    assert len(paths) > 5
    assert _undefined_private_names(paths, [ROOT / "README.md"]) == []
