"""Every definition in the package is reached from the program, not only from tests.

A top-level function or class, or a public method, of ``src/deltoid_lab`` must be
named somewhere in ``src/`` or ``scripts/`` besides its own definition.  A name
that only ``perfbench/`` uses does not count: a benchmark measures the program,
it does not make code part of it.  Methods that override a method of a base
class outside the package (an argparse hook, say) are called by that base class
and are exempt.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deltoid_lab"


def _names_in(directory: str) -> Counter:
    """Identifiers read, accessed or imported in a directory."""
    used: Counter = Counter()
    for path in (ROOT / directory).rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
            elif isinstance(node, ast.alias):
                used[node.name.rsplit(".", 1)[-1]] += 1
    return used


def _names_used() -> Counter:
    """Every identifier the program uses that could name a package definition."""
    return _names_in("src") + _names_in("scripts")


def _overrides_external_base(module, class_name: str, method: str) -> bool:
    cls = getattr(module, class_name)
    return any(hasattr(base, method) for base in cls.__mro__[1:]
               if not base.__module__.startswith("deltoid_lab"))


def _definitions():
    """(qualified name, name a caller would use) per checked definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"deltoid_lab.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                            and not _overrides_external_base(module, node.name, sub.name)):
                        yield f"{path.stem}.{node.name}.{sub.name}", sub.name


def test_every_definition_is_reached_outside_tests():
    used = _names_used()
    unreached = [qualified for qualified, name in _definitions() if not used[name]]
    assert not unreached, "reached only from tests: " + ", ".join(unreached)
