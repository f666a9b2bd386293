"""Every public name in ``bhm`` has a caller inside the package.

A public module-level function or class, or a public method of a
module-level class, that no code in ``src/bhm`` references (as a name or
an attribute) outside its own definition is surface that only tests
reach.  Such a name is either deleted or listed below with the reason it
stays.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bhm"

#: Names kept without a caller in the package, each with its reason.
ALLOWED = {
    "quantum.run_single": "the protocol exactly as stated; tests hold the runners against it",
    "quantum.mixture_success": "exact oracle that tests hold the sweep's quantum column against",
    "instances.sample_promise_instance": "whole promise instances for acceptance criterion 1",
    "instances.BhmInstance.from_json_dict": "reads gen output back; perfbench's gen check uses it",
    "core.PerfectMatching.edges": "the 1-based view of a matching that the README documents",
    "instances.classify_promise": (
        "object-level promise classification; tests hold the array kernel against it"
    ),
    "fourier.gM_from_set": (
        "BitString front end of the lift-identity route that the README documents"
    ),
}


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


def _references(tree: ast.Module):
    """(name, line) of every name and attribute the module reads or writes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreferenced_public_names() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    refs = {module: list(_references(tree)) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for qualified, name, first, last in _definitions(module, tree):
            used = any(
                ref == name and not (other == module and first <= line <= last)
                for other, module_refs in refs.items()
                for ref, line in module_refs
            )
            if not used:
                unused.append(qualified)
    return unused


def test_every_public_name_has_a_caller_in_the_package():
    unused = set(unreferenced_public_names())
    assert sorted(unused - ALLOWED.keys()) == []


def test_every_allowlisted_name_still_exists_without_a_caller():
    # an entry whose name gained a caller or was deleted is stale
    assert sorted(ALLOWED.keys() - set(unreferenced_public_names())) == []
