"""The checking side stays apart from the production side, read from the source with ast.

Only cli imports the verify battery, and only inside its verify command; the
oracles name nothing of the closed forms they check; and no production
function names an oracle but detection_report, whose optional oracle fields
the benchmark reads.
"""

import ast
from pathlib import Path

import twinfock

PACKAGE = Path(twinfock.__file__).parent
#: The oracle functions, by module.
ORACLES = {
    "loss": {"beamsplitter_oracle", "_one_mode_outputs", "split_by_environment"},
    "detection": {"p_fa_trace", "p_fa_oracle", "p_md_oracle"},
}
#: What the closed forms are made of: their context, number type, rounding, kernels and noise series.
CLOSED_FORM_NAMES = {
    "CONTEXT", "Decimal", "round_once", "absorption_weight", "arrangement_series",
    "exact_weighted_sum", "exact_p_fa", "false_alarm_grid", "false_alarm_series",
    "p_fa_closed", "p_md_closed",
}
ORACLE_CALLERS = {"detection_report"}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _functions(tree: ast.Module):
    """The module's functions and its classes' methods, each with whatever it nests."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef))


def _names(node: ast.AST) -> set[str]:
    """Every identifier the code under node names: variables, attributes and imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
    return names


def _imports_verify(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "twinfock.verify" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return (module.rpartition(".")[2] == "verify"
                or module in ("", "twinfock") and any(a.name == "verify" for a in node.names))
    return False


def test_only_the_verify_command_imports_the_battery():
    trees = _trees()
    assert "verify" in trees
    importers = {module for module, tree in trees.items()
                 if any(map(_imports_verify, ast.walk(tree)))}
    assert importers == {"cli"}
    command = next(f for f in _functions(trees["cli"]) if f.name == "cmd_verify")
    everywhere = [node for node in ast.walk(trees["cli"]) if _imports_verify(node)]
    assert everywhere == [node for node in ast.walk(command) if _imports_verify(node)]


def test_the_oracles_name_nothing_of_the_closed_forms():
    trees = _trees()
    for module, oracles in ORACLES.items():
        functions = {f.name: f for f in _functions(trees[module])}
        assert oracles <= functions.keys()
        for name in sorted(oracles):
            named = _names(functions[name]) & CLOSED_FORM_NAMES
            assert not named, f"{module}.{name} names {sorted(named)}"


def test_no_production_function_names_an_oracle():
    oracles = set().union(*ORACLES.values())
    offenders = [
        f"{module}.{function.name} names {sorted(_names(function) & oracles)}"
        for module, tree in sorted(_trees().items()) if module != "verify"
        for function in _functions(tree)
        if function.name not in oracles | ORACLE_CALLERS and _names(function) & oracles
    ]
    assert offenders == []
