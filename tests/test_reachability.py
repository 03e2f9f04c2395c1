"""Guard against dead library code: every module-level function or class
of the package, private helpers included, and every method or property of
its classes must be named by some other part of `src/` or `bench/`, so that
a command, a pipeline stage or the benchmark reaches it. Names are counted,
not calls: a method counts as reached once any other statement mentions its
name, so the guard can miss a method whose name is also used elsewhere."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shrubfield"

def _is_command(node) -> bool:
    """A function registered with the click group (`@cli.command(...)`) or
    the group itself (`@click.group()`)."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _names(node) -> set:
    """Every name a statement mentions in code: variables, attributes and
    imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def _statements():
    """(path, top-level statement) over the package and the benchmark."""
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            yield path, node


def test_every_module_level_name_is_reached():
    statements = [(path, node, _names(node)) for path, node in _statements()]
    # how many top-level statements mention each name
    mentions = Counter(name for _, _, names in statements for name in names)
    unreached = []
    for path, node, names in statements:
        if path.parent != PACKAGE:
            continue
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if _is_command(node):
            continue
        # a mention inside the definition itself does not count
        if mentions[node.name] - (node.name in names) == 0:
            unreached.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unreached, "named nowhere else in src/ or bench/: " + ", ".join(
        unreached
    )


def test_every_method_is_reached():
    statements = [(path, node, _names(node)) for path, node in _statements()]
    unreached = []
    for path, node, _ in statements:
        if path.parent != PACKAGE or not isinstance(node, ast.ClassDef):
            continue
        # every name that the other top-level statements mention
        outside = set().union(
            *(names for _, other, names in statements if other is not node)
        )
        for member in node.body:
            if not isinstance(member, ast.FunctionDef):
                continue
            # special methods are reached by the language itself
            if member.name.startswith("__") and member.name.endswith("__"):
                continue
            # the rest of the class counts, the method's own body does not
            rest = set().union(*(_names(m) for m in node.body if m is not member))
            if member.name not in outside | rest:
                where = f"{path.name}:{member.lineno}"
                unreached.append(f"{where} {node.name}.{member.name}")
    assert not unreached, "named nowhere else in src/ or bench/: " + ", ".join(
        unreached
    )
