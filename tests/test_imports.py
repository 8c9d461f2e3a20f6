"""Every name a `src/modix` module imports is a name it uses.

`__init__.py` imports only to re-export, and an import marked `# noqa: F401`
is kept for `perfbench/spans.py` to wrap under that module's name
(`test_perfbench.py` pins those), so neither is checked here."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = Path(__file__).resolve().parent.parent / "src" / "modix"


def unused_imports(text: str) -> list[str]:
    """Each name that `text` imports and never references, as `line name`."""
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.end_lineno - 1]:
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).partition(".")[0]  # `import a.b` binds `a`
            if name not in used:
                unused.append(f"{node.lineno} {name}")
    return unused


@pytest.mark.parametrize(
    "path", sorted(p for p in SOURCES.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text("utf-8")) == []


def test_an_unused_import_is_named():
    text = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Iterable, Iterator, Sequence\n"
        "from .modfile import ModuleFile, fold_rows  # noqa: F401 -- wrapped\n"
        "from .modfile import Release as R\n"
        "def build(release: R, paths: Sequence[str]) -> bool:\n"
        "    return os.path.exists(paths[0])\n"
    )
    assert unused_imports(text) == ["3 Iterable", "3 Iterator"]
