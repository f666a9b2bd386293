"""Every public name in ``bhm`` has a caller inside the package.

A public module-level function or class, or a public method of a
module-level class, that no code in ``src/bhm`` references outside its
own definition is surface that only tests reach.  Such a name is either
deleted or listed below with the reason it stays.

A definition ``f`` of module ``N`` is referenced by ``N.f`` anywhere, and
by a bare ``f`` only inside ``N`` or inside a module that imports ``f``
from ``N``; a method is referenced by any attribute of its name.

``bhm.__all__`` and the imports of ``bhm/__init__.py`` agree: every
listed name resolves, and every public name imported there is listed.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path
import subprocess
import sys

import bhm

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bhm"

#: Names kept without a caller in the package, each with its reason.
ALLOWED = {
    "quantum.run_single": "the protocol exactly as stated; tests hold the runners against it",
    "quantum.mixture_success": "exact oracle that tests hold the sweep's quantum column against",
    "instances.BhmInstance.from_json_dict": "reads gen output back; perfbench's gen check uses it",
    "core.PerfectMatching.edges": "the 1-based view of a matching that the README documents",
    "core.BitString.to_index": "the documented way to index cube tables",
}


#: The modules that ``import bhm.cli`` loads: every module of the package.
CLI_MODULES = [
    "bhm", "bhm.classical", "bhm.cli", "bhm.combinatorics", "bhm.core", "bhm.errors",
    "bhm.fourier", "bhm.instances", "bhm.quantum", "bhm.seeding", "bhm.verify",
]


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, first line, last line) of each public definition."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield (
                        f"{module}.{node.name}.{item.name}",
                        item.name,
                        item.lineno,
                        item.end_lineno,
                    )


def _references(module: str, tree: ast.Module):
    """(key, line) of every name and attribute the module reads or writes.

    A key is (N, name) for each module N whose definition the reference
    can mean, and (".", name) for any attribute, which is how a method is
    referenced.
    """
    imported = {
        alias.name: node.module.rsplit(".", 1)[-1]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 1
        for alias in node.names
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield (module, node.id), node.lineno
            if node.id in imported:
                yield (imported[node.id], node.id), node.lineno
        elif isinstance(node, ast.Attribute):
            yield (".", node.attr), node.lineno
            if isinstance(node.value, ast.Name):
                yield (node.value.id, node.attr), node.lineno


def unreferenced_public_names(trees: dict[str, ast.Module]) -> list[str]:
    refs = {module: list(_references(module, tree)) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for qualified, name, first, last in _definitions(module, tree):
            key = (".", name) if qualified.count(".") == 2 else (module, name)
            used = any(
                ref == key and not (other == module and first <= line <= last)
                for other, module_refs in refs.items()
                for ref, line in module_refs
            )
            if not used:
                unused.append(qualified)
    return unused


def package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_public_name_has_a_caller_in_the_package():
    unused = set(unreferenced_public_names(package_trees()))
    assert sorted(unused - ALLOWED.keys()) == []


def test_every_allowlisted_name_still_exists_without_a_caller():
    # an entry whose name gained a caller or was deleted is stale
    assert sorted(ALLOWED.keys() - set(unreferenced_public_names(package_trees()))) == []


def test_every_exported_name_resolves():
    assert [name for name in bhm.__all__ if not hasattr(bhm, name)] == []


def test_every_public_reexport_is_exported():
    # a stale re-export would otherwise only break ``from bhm import *``
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(public - set(bhm.__all__)) == []


def test_a_bare_name_refers_to_its_own_module_or_an_import():
    trees = {
        "a": ast.parse("def check(): pass\ndef helper(): pass\ndef kept(): pass\n"),
        "b": ast.parse("from .a import helper\ndef check(): pass\ncheck()\nhelper()\n"),
        "c": ast.parse("from . import a\na.kept()\n"),
    }
    # b's bare check() is b.check, not a.check
    assert unreferenced_public_names(trees) == ["a.check"]


def test_importing_the_cli_loads_the_same_bhm_modules():
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, bhm.cli; print(*sorted(m for m in sys.modules if m.startswith('bhm')))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0 and run.stdout.split() == CLI_MODULES
