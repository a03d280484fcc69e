"""The package's modules form layers, read from their source with ast.

Module-level package imports form a DAG, and ``config``, which holds a
run's schema, imports only ``errors`` and ``codes``.  Two imports are
made inside functions, each because a module-level import would close a
cycle and the function keeps the qualified name the benchmark traces:
``simulator.scan_2d`` imports ``pipeline``, which imports
``simulator``, and ``config.write_manifest`` imports ``fileio``, which
imports ``config``.
"""

import ast
import graphlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "aoimux"
RECORDS = ("AcquisitionConfig", "Phantom", "ScanGrid", "SweepPlan")


def _targets(node: ast.AST) -> set[str]:
    """The package modules an import statement names, relative or absolute."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = (("aoimux." if node.level else "") + (node.module or "")).rstrip(".")
        modules = [f"{base}.{a.name}" for a in node.names] if base == "aoimux" else [base]
    else:
        return set()
    return {module.split(".")[1] for module in modules if module.startswith("aoimux.")}


def _imports(tree: ast.Module) -> tuple[set[str], set[tuple[str, str]]]:
    """(module-level imports, {(function, import)} made inside functions)."""
    top, local = set(), set()

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name if function is None else function)
                continue
            for target in _targets(child):
                if function is None:
                    top.add(target)
                else:
                    local.add((function, target))
            visit(child, function)

    visit(tree, None)
    return top, local


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _graph() -> tuple[dict[str, set[str]], set[tuple[str, str, str]]]:
    graph, local = {}, set()
    for name, tree in _modules().items():
        graph[name], made = _imports(tree)
        local |= {(name, function, target) for function, target in made}
    return graph, local


def test_module_level_imports_form_a_dag():
    graph, _ = _graph()
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_config_imports_only_errors_and_codes():
    graph, _ = _graph()
    assert graph["config"] == {"errors", "codes"}


def test_only_two_imports_are_made_inside_functions():
    graph, local = _graph()
    assert local == {("simulator", "scan_2d", "pipeline"), ("config", "write_manifest", "fileio")}
    for module, _, target in local:  # at module level, each would close a cycle
        seen, todo = set(), [target]
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(graph[name])
        assert module in seen


def test_the_config_records_are_defined_in_config_alone():
    homes = {
        node.name: name
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name in RECORDS
    }
    assert homes == dict.fromkeys(RECORDS, "config")
