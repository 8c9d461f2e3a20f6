"""Independent reference answers and seeded statement scripts.

The reference reads the generated `.dh` header text with regular expressions
and evaluates `sizeof`, `new` and `declare` itself.  It imports nothing from
modix, so a change to the parser, the loader or the interpreter cannot move
the expected answers along with the actual ones.

Only what the corpus generator emits is understood: `include` lines, struct
definitions and struct forward declarations.  Any other line raises, so the
reference never guesses.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

BUILTIN_SIZES = {"i32": 4, "i64": 8, "f64": 8, "bool": 1}
POINTER_SIZE = 8

_INCLUDE = re.compile(r'include "[^"]+";')
_FORWARD = re.compile(r"struct (\w+);")
_DEFINITION = re.compile(r"struct (\w+) \{(.*)\};")
_FIELD = re.compile(r"(\w+): ((?:ptr<)*)(\w+)(>*);")
_BODY = re.compile(r"(?: \w+: (?:ptr<)*\w+>*;)* ")
_STATEMENT = re.compile(r"(?:sizeof\((\w+)\)|new (\w+)|declare \w+: ((?:ptr<)*)(\w+)>*);")
_GENERATED_NAME = re.compile(r"S(\d+)_(\d+)")

# Statement mix of every script: (kind, share).  The remaining 5% use names
# that no module declares, with the same kind proportions.
STATEMENT_MIX = (("sizeof", 0.50), ("new", 0.20), ("declare", 0.25))
UNKNOWN_SHARE = 0.05


class UnmodelledInput(Exception):
    """The header text holds something the reference does not model."""


@dataclass(frozen=True)
class Corpus:
    """Struct layouts and declared names read from a header tree."""

    fields: dict[str, tuple[tuple[int, str], ...]]  # name -> (indirection, base) per field
    declared: frozenset[str]

    @property
    def defined(self) -> list[str]:
        return sorted(self.fields, key=_name_key)


def _name_key(name: str) -> tuple[int, int]:
    m = _GENERATED_NAME.fullmatch(name)
    return int(m.group(1)), int(m.group(2))


def read_corpus(tree: Path) -> Corpus:
    """Collect every struct definition and declaration under `tree`."""
    fields: dict[str, tuple[tuple[int, str], ...]] = {}
    declared: set[str] = set()
    for header in sorted(tree.glob("*/*.dh")):
        for line in header.read_text("utf-8").splitlines():
            line = line.strip()
            if not line or _INCLUDE.fullmatch(line):
                continue
            m = _FORWARD.fullmatch(line)
            if m:
                declared.add(m.group(1))
                continue
            m = _DEFINITION.fullmatch(line)
            if not m:
                raise UnmodelledInput(f"{header}: unmodelled line {line!r}")
            body = m.group(2)
            if not _BODY.fullmatch(body):
                raise UnmodelledInput(f"{header}: unmodelled fields in {line!r}")
            parsed = tuple(
                (f.group(2).count("ptr<"), f.group(3)) for f in _FIELD.finditer(body)
            )
            name = m.group(1)
            if not _GENERATED_NAME.fullmatch(name):
                raise UnmodelledInput(f"{header}: '{name}' is not an S<m>_<k> name")
            if fields.setdefault(name, parsed) != parsed:
                raise UnmodelledInput(f"{header}: '{name}' defined two different ways")
            declared.add(name)
    return Corpus(fields, frozenset(declared))


class Evaluator:
    """Expected result line, as `modix run` prints it, for one statement."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self._sizes: dict[str, int | str] = {}

    def _size(self, name: str, expanding: frozenset[str]) -> int | str:
        if name in expanding:
            return "alias-cycle"
        known = self._sizes.get(name)
        if known is not None:
            return known
        layout = self.corpus.fields.get(name)
        if layout is None:
            return "not-found"
        total = 0
        for indirection, base in layout:
            if indirection:
                total += POINTER_SIZE
            elif base in BUILTIN_SIZES:
                total += BUILTIN_SIZES[base]
            else:
                inner = self._size(base, expanding | {name})
                if isinstance(inner, str):
                    return inner
                total += inner
        self._sizes[name] = total
        return total

    def expect(self, statement: str) -> str:
        m = _STATEMENT.fullmatch(statement)
        if not m:
            raise UnmodelledInput(f"unmodelled statement {statement!r}")
        sized, created, pointers, declared = m.groups()
        if sized is not None:
            size = self._size(sized, frozenset())
            return f"fail {size}" if isinstance(size, str) else f"ok {size}"
        if created is not None:
            return "ok" if created in self.corpus.fields else "fail not-found"
        if declared in BUILTIN_SIZES:
            return "ok"
        if pointers:
            return "ok" if declared in self.corpus.declared else "fail not-found"
        return "ok" if declared in self.corpus.fields else "fail not-found"


def _statement(kind: str, name: str) -> str:
    if kind == "sizeof":
        return f"sizeof({name});"
    if kind == "new":
        return f"new {name};"
    return f"declare x: ptr<{name}>;"


def make_script(corpus: Corpus, seed: int, length: int, hot_modules: int = 0) -> list[str]:
    """`length` statements drawn uniformly over the corpus's definitions.

    With `hot_modules`, names come only from the definitions of that many
    seeded modules (`S<m>_<k>` belongs to module m).  Unknown names follow the
    same `S<m>_<k>` shape with m past the last module, so they cost a lookup
    like any other name.
    """
    rng = random.Random(seed)
    names = corpus.defined
    modules = sorted({_name_key(n)[0] for n in names})
    per_module = max(_name_key(n)[1] for n in names) + 1
    if hot_modules:
        chosen = set(rng.sample(modules, hot_modules))
        names = [n for n in names if _name_key(n)[0] in chosen]
        fake_modules = hot_modules
    else:
        fake_modules = len(modules)
    unknown = [
        f"S{modules[-1] + 1 + m}_{k}" for m in range(fake_modules) for k in range(per_module)
    ]
    kinds = [kind for kind, _ in STATEMENT_MIX]
    weights = [share for _, share in STATEMENT_MIX]
    script = []
    for _ in range(length):
        if rng.random() < UNKNOWN_SHARE:
            name = rng.choice(unknown)
        else:
            name = rng.choice(names)
        script.append(_statement(rng.choices(kinds, weights)[0], name))
    return script
