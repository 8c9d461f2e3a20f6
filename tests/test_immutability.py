"""Values are immutable by contract, checked here by reading the source.

The value types built per declaration, row, lookup or statement are slotted,
hashable dataclasses but not frozen: a frozen dataclass's `__init__` sets
every field through `object.__setattr__`, several times slower than a plain
slotted one.  Nothing then stops a store at run time, so this check parses
every module of `modix` and rejects

- an attribute store or delete on anything but `self`,
- a `setattr`, `delattr`, `object.__setattr__` or `object.__delattr__` call,
- a store to `self` in a method of a dataclass that is not frozen.

Plain classes (a `Session`, a `Cursor`, an exception) still set their own
attributes.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import modix

SOURCES = sorted(Path(modix.__file__).parent.glob("*.py"))

# (file, function, attribute) of each store the rules allow: `errors.reading`
# prefixes a decode error's message with the file's path, keeping its class.
ALLOWED = {("errors.py", "reading", "args")}

_SETTERS = {"setattr", "delattr", "__setattr__", "__delattr__"}


def _is_unfrozen_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        target = call.func if call else decorator
        name = getattr(target, "id", None) or getattr(target, "attr", None)
        if name == "dataclass":
            return not any(
                kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value
                for kw in (call.keywords if call else ())
            )
    return False


class _Scan(ast.NodeVisitor):
    def __init__(self, file: str):
        self.file = file
        self.function = ""
        self.in_unfrozen_dataclass = False
        self.faults: list[str] = []

    def _fault(self, node: ast.AST, what: str) -> None:
        self.faults.append(f"{self.file}:{node.lineno} in {self.function or '<module>'}: {what}")

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer = self.in_unfrozen_dataclass
        self.in_unfrozen_dataclass = _is_unfrozen_dataclass(node)
        self.generic_visit(node)
        self.in_unfrozen_dataclass = outer

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        outer = self.function
        self.function = node.name
        self.generic_visit(node)
        self.function = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
            if not on_self and (self.file, self.function, node.attr) not in ALLOWED:
                self._fault(node, f"stores attribute '{node.attr}' of another object")
            elif on_self and self.in_unfrozen_dataclass:
                self._fault(node, f"a value type stores its own '{node.attr}'")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name in _SETTERS:
            self._fault(node, f"calls {name}")
        self.generic_visit(node)


def scan(source: str, file: str) -> list[str]:
    checker = _Scan(file)
    checker.visit(ast.parse(source, file))
    return checker.faults


def test_no_module_stores_into_a_value():
    assert len(SOURCES) > 5
    faults = [fault for path in SOURCES for fault in scan(path.read_text("utf-8"), path.name)]
    assert faults == []


@pytest.mark.parametrize("source", [
    "def f(x):\n    x.a = 1\n",
    "def f(x):\n    x.a += 1\n",
    "def f(x):\n    x.a, y = 1, 2\n",
    "def f(x):\n    del x.a\n",
    "def f(x):\n    setattr(x, 'a', 1)\n",
    "def f(x):\n    delattr(x, 'a')\n",
    "def f(x):\n    object.__setattr__(x, 'a', 1)\n",
    "class C:\n    def f(self):\n        self.v.a = 1\n",
    "@dataclass(slots=True, unsafe_hash=True)\nclass V:\n    a: int\n"
    "    def f(self):\n        self.a = 1\n",
    "@dataclasses.dataclass\nclass V:\n    a: int\n    def f(self):\n        self.a += 1\n",
    "def other(exc):\n    exc.args = ()\n",
])
def test_scan_rejects(source):
    assert len(scan(source, "errors.py")) == 1


@pytest.mark.parametrize("source", [
    "class C:\n    def __init__(self):\n        self.a = 1\n",
    "@dataclass(frozen=True)\nclass C:\n    a: int\n    def f(self):\n        return self.a\n",
    "def f(x):\n    return x.a\n",
    "def reading(exc):\n    exc.args = ()\n",
])
def test_scan_accepts(source):
    assert scan(source, "errors.py") == []
