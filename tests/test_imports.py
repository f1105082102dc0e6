"""Static checks on the package's source, standing in for a linter.

No module imports a name it never uses: a name counts as used when the
module reads it anywhere (annotations included) or, in the package's
``__init__``, when ``__all__`` lists it.  No module defines a private name
that nothing in the package reads.  oracle.py imports no closed form,
cli.py handles errors in one place only, and the work budget is the one size
gate.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "liedim"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """The module-level private names (one leading underscore, not a dunder)
    that the module defines, each with the statement that defines it."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                found.update((name.id, node) for name in ast.walk(target) if isinstance(name, ast.Name))
    return {name: node for name, node in found.items() if name.startswith("_") and not name.startswith("__")}


def _reads(node: ast.AST) -> set[str]:
    """The names a node reads, as a bare name or as an attribute of anything."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    }


def test_no_orphaned_private_names():
    # a private helper whose last reader was deleted fails here: every
    # module-level private name is read somewhere in the package, outside
    # the statement that defines it (so a recursion does not read itself)
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    reads = [(name, top, _reads(top)) for name, tree in trees.items() for top in tree.body]
    orphans = [
        f"{module}:{node.lineno} {name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree).items()
        if not any(name in read for other, top, read in reads if not (other == module and top is node))
    ]
    assert not orphans, f"private names that nothing in the package reads: {orphans}"


# What oracle.py may import from the package: it is the independent check on
# the closed forms, so no count or recurrence may reach it (ROADMAP aim 2).
# The work budget it charges its jobs against knows no closed form either.
ORACLE_PACKAGE_IMPORTS = {("arith", "divisors"), ("arith", "is_prime"), ("budget", "_charge")}


def _package_imports(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for every import from the package itself; a whole module
    or a name from the package root reads as ("", name)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "liedim":
                    found.add(("", alias.name))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "liedim":
                    continue
                module = module.removeprefix("liedim").removeprefix(".")
            found.update((module, alias.name) for alias in node.names)
    return found


def test_oracle_imports_no_closed_form():
    tree = ast.parse((SRC / "oracle.py").read_text(), filename="oracle.py")
    extra = _package_imports(tree) - ORACLE_PACKAGE_IMPORTS
    assert not extra, f"oracle.py imports {sorted(extra)} from the package"


def _boundary_method(tree: ast.Module) -> ast.FunctionDef | None:
    """The main method of the argparse.ArgumentParser subclass in the module, if any."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            ast.unparse(base) == "argparse.ArgumentParser" for base in node.bases
        ):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "main":
                    return item
    return None


def test_cli_has_one_failure_boundary():
    # errors become exit codes in the parser's main method and nowhere else
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    boundary = _boundary_method(tree)
    assert boundary is not None, "cli.py has no argparse.ArgumentParser subclass with a main method"
    inside = {id(node) for node in ast.walk(boundary)}
    stray = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and id(node) not in inside]
    assert not stray, f"cli.py handles errors outside the parser's main method, at lines {stray}"


def _size_gate_sites(tree: ast.Module) -> dict[str, list[int]]:
    """Lines that read the environment, raise WorkBudgetExceeded or set the
    interpreter's int-to-str digit limit."""
    kind_of = {"environ": "environ", "getenv": "environ", "set_int_max_str_digits": "set_int_max_str_digits"}
    sites = {"environ": [], "raise": [], "set_int_max_str_digits": []}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in kind_of:
            sites[kind_of[node.attr]].append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            sites["environ"].append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if ast.unparse(exc).split(".")[-1] == "WorkBudgetExceeded":
                sites["raise"].append(node.lineno)
    return sites


def test_one_size_gate():
    # the work budget is the only size gate: budget.py alone reads its setting
    # from the environment and refuses a job, and no module changes the
    # interpreter's digit limit, so the limit changes no byte that is printed
    found = {}
    for path in sorted(SRC.glob("*.py")):
        sites = _size_gate_sites(ast.parse(path.read_text(), filename=str(path)))
        if path.name == "budget.py":
            allowed = (sites.pop("environ"), sites.pop("raise"))
            assert all(allowed), "budget.py no longer reads the budget or refuses a job"
        found.update({f"{path.name} {kind}": lines for kind, lines in sites.items() if lines})
    assert not found, f"size gates outside budget.py: {found}"
