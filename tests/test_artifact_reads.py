"""Every artifact and text input is read by one function, `_wire.read_artifact`:
one open, one fstat, reads to end of file, one close, and no probe ahead.

Here: what the reader returns for each kind of path, `read_text` against
`Path.read_text`, a read error at each read site surfacing as UnreadableFile,
the stat and open counts of a gmi session open and of `modix validate`, and a
static check that nothing in `modix` reads or probes a file another way.
"""

from __future__ import annotations

import ast
import errno
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import modix
from modix.bench import open_corpus_session
from modix.cli import main
from modix.declang import Need
from modix.errors import UnreadableFile
from modix.gmi import INDEX_FILE_NAME, read_index, validate_index
from modix.loader import Strategy
from modix.modfile import read_modules
from modix.modulemap import FINAL_MAP_NAME, load_modulemap, read_text
from modix._wire import read_artifact


# --- the reader ---


class TestReadArtifact:
    def test_missing_path(self, tmp_path):
        assert read_artifact(tmp_path / "absent") is None

    def test_path_under_a_regular_file(self, tmp_path):
        (tmp_path / "file").write_bytes(b"x")
        assert read_artifact(tmp_path / "file" / "below") is None

    def test_directory(self, tmp_path):
        assert read_artifact(tmp_path) is None

    def test_fifo_without_blocking(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        assert read_artifact(fifo) is None

    def test_dangling_symlink(self, tmp_path):
        (tmp_path / "link").symlink_to(tmp_path / "absent")
        assert read_artifact(tmp_path / "link") is None

    def test_symlink_loop(self, tmp_path):
        (tmp_path / "a").symlink_to(tmp_path / "b")
        (tmp_path / "b").symlink_to(tmp_path / "a")
        assert read_artifact(tmp_path / "a") is None

    def test_embedded_nul(self, tmp_path):
        assert read_artifact(f"{tmp_path}/a\0b") is None

    def test_none_exactly_where_is_file_is_false(self, tmp_path):
        (tmp_path / "file").write_bytes(b"x")
        (tmp_path / "link").symlink_to(tmp_path / "file")
        os.mkfifo(tmp_path / "fifo")
        for name in ("file", "link", "fifo", "absent", "file/below", "."):
            path = tmp_path / name
            assert (read_artifact(path) is not None) == path.is_file(), name

    @pytest.mark.parametrize("size", [0, 1, 4095, 4096, 200_000])
    def test_bytes_equal_read_bytes(self, tmp_path, size):
        path = tmp_path / "file"
        path.write_bytes(bytes(i % 251 for i in range(size)))
        assert read_artifact(path) == path.read_bytes()

    def test_file_larger_than_one_read(self, tmp_path, monkeypatch):
        # Reads that come back short are continued to end of file.
        path = tmp_path / "file"
        path.write_bytes(os.urandom(10_000))
        read = os.read
        sizes = []

        def short(fd, n):
            sizes.append(n)
            return read(fd, min(n, 4096))

        monkeypatch.setattr(os, "read", short)
        assert read_artifact(path) == path.read_bytes()
        assert len(sizes) == 4  # 4096 + 4096 + 1808, then end of file

    def test_symlink_to_file_is_read(self, tmp_path):
        (tmp_path / "file").write_bytes(b"data")
        (tmp_path / "link").symlink_to(tmp_path / "file")
        assert read_artifact(tmp_path / "link") == b"data"

    def test_read_error_names_the_path(self, tmp_path, monkeypatch):
        path = tmp_path / "file"
        path.write_bytes(b"data")
        _fail_reads(monkeypatch, "file")
        with pytest.raises(UnreadableFile, match=f"cannot read {path}: Input/output error"):
            read_artifact(path)

    def test_open_error_names_the_path(self, tmp_path, monkeypatch):
        def refuse(path, flags):
            raise PermissionError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(os, "open", refuse)
        with pytest.raises(UnreadableFile, match=f"cannot read {tmp_path / 'x'}: Permission denied"):
            read_artifact(tmp_path / "x")

    def test_descriptor_closed_after_read_error(self, tmp_path, monkeypatch):
        (tmp_path / "file").write_bytes(b"data")
        closed = []
        close = os.close
        monkeypatch.setattr(os, "close", lambda fd: (closed.append(fd), close(fd)))
        _fail_reads(monkeypatch, "file")
        with pytest.raises(UnreadableFile):
            read_artifact(tmp_path / "file")
        assert len(closed) == 1


# --- text ---


_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from("\r\n\t abc{};"), st.characters(codec="utf-8")),
    max_size=60,
)


@settings(max_examples=200)
@given(st.one_of(_TEXT, st.lists(st.sampled_from(["a", "\r", "\n", "\r\n", "é"])).map("".join)))
def test_read_text_equals_path_read_text(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "read_text_example"
    path.write_bytes(text.encode("utf-8"))
    assert read_text(path) == path.read_text("utf-8")


@pytest.mark.parametrize("data", [b"\xff", b"ok\r\n\x80", b"\xe2\x82"])
def test_invalid_utf8_raises_unreadable(tmp_path, data):
    path = tmp_path / "bad.dh"
    path.write_bytes(data)
    with pytest.raises(UnreadableFile, match=f"cannot read {path}: 'utf-8' codec"):
        read_text(path)


def test_missing_text_raises_unreadable(tmp_path):
    with pytest.raises(UnreadableFile, match=f"cannot read {tmp_path / 'absent'}: no such file"):
        read_text(tmp_path / "absent")
    with pytest.raises(UnreadableFile, match=f"cannot read {tmp_path}: no such file"):
        read_text(tmp_path)


# --- a read error at each read site ---


def _fail_reads(monkeypatch, suffix: str) -> None:
    """Make `os.read` fail with EIO on descriptors opened for a path ending
    in `suffix`: root reads a mode-000 file, so a permission bit cannot."""
    failing: set[int] = set()
    open_, read = os.open, os.read

    def opened(path, flags, *args):
        fd = open_(path, flags, *args)
        if os.fspath(path).endswith(suffix):
            failing.add(fd)
        else:
            failing.discard(fd)
        return fd

    def failed(fd, n):
        if fd in failing:
            raise OSError(errno.EIO, "Input/output error")
        return read(fd, n)

    monkeypatch.setattr(os, "open", opened)
    monkeypatch.setattr(os, "read", failed)


_SITES = {
    # site: (file that fails, what reads it)
    "validate_index": ("M3.pcm", lambda c: validate_index(read_index(c / INDEX_FILE_NAME)[0], c)),
    "read_index": (INDEX_FILE_NAME, lambda c: read_index(c / INDEX_FILE_NAME)),
    "gmi open": (INDEX_FILE_NAME, lambda c: open_corpus_session(c, Strategy.SEMANTIC_GMI)),
    "module load": ("M0.pcm", lambda c: open_corpus_session(c, Strategy.SEMANTIC_GMI).resolve(
        "S0_0", Need.DEFINITION)),
    "preload": ("M5.pcm", lambda c: open_corpus_session(c, Strategy.PRELOAD_ALL)),
    "pch": ("__pch__.pcm", lambda c: open_corpus_session(c, Strategy.PCH)),
    "read_modules": ("M0.pcm", lambda c: list(read_modules(c, ["M0"]))),
    "rootmap": ("modules.rootmap", lambda c: open_corpus_session(c, Strategy.TEXTUAL)),
    "header": ("M0/types.dh", lambda c: open_corpus_session(c, Strategy.TEXTUAL).resolve(
        "S0_0", Need.DEFINITION)),
    "module map": (FINAL_MAP_NAME, lambda c: load_modulemap(c / FINAL_MAP_NAME)),
}


@pytest.mark.parametrize("site", sorted(_SITES))
def test_read_error_at_each_site_is_unreadable(corpus12, monkeypatch, site):
    suffix, act = _SITES[site]
    _fail_reads(monkeypatch, suffix)
    with pytest.raises(UnreadableFile, match=r"cannot read \S*" + suffix + ": Input/output error"):
        act(corpus12)


@pytest.mark.parametrize("suffix", ["M3.pcm", INDEX_FILE_NAME, "modules.lexical.gmi"])
def test_validate_exits_2_on_read_error(corpus12, monkeypatch, capsys, suffix):
    _fail_reads(monkeypatch, suffix)
    assert main(["validate", str(corpus12)]) == 2
    err = capsys.readouterr().err
    assert err == f"modix: error: cannot read {corpus12 / suffix}: Input/output error\n"


@pytest.mark.parametrize("strategy, suffix", [
    ("semantic-gmi", INDEX_FILE_NAME), ("semantic-gmi", "M0.pcm"), ("pch", "__pch__.pcm"),
])
def test_run_exits_2_on_read_error(corpus12, monkeypatch, capsys, tmp_path, strategy, suffix):
    script = tmp_path / "script.txt"
    script.write_text("sizeof(S0_0)\n", "utf-8")
    _fail_reads(monkeypatch, suffix)
    assert main(["run", "--strategy", strategy, "--dir", str(corpus12), str(script)]) == 2
    assert f"cannot read {corpus12 / suffix}: Input/output error" in capsys.readouterr().err


# --- no probe ahead of a read ---


def _count(monkeypatch, name: str) -> list[str]:
    """Record the first argument of every `os.<name>` call, as a string."""
    calls = []
    real = getattr(os, name)

    def counted(*args, **kwargs):
        calls.append(str(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(os, name, counted)
    return calls


@pytest.mark.parametrize("strategy", [Strategy.SEMANTIC_GMI, Strategy.LEXICAL_GMI])
def test_gmi_open_stats_nothing(corpus12, monkeypatch, strategy):
    stats = _count(monkeypatch, "stat")
    open_corpus_session(corpus12, strategy)
    assert stats == []


def test_validate_stats_no_module_file_and_opens_each_once(corpus12, monkeypatch, capsys):
    stats = _count(monkeypatch, "stat")
    opens = _count(monkeypatch, "open")
    assert main(["validate", str(corpus12)]) == 0
    capsys.readouterr()
    pcm = sorted(p for p in opens if p.endswith(".pcm"))
    assert [p for p in stats if p.endswith(".pcm")] == []
    assert pcm == sorted(str(corpus12 / f"M{m}.pcm") for m in range(12))


# --- one reader, checked statically ---


SOURCES = sorted(Path(modix.__file__).parent.glob("*.py"))

# Methods that read or probe a file (`read_text` called by its bare name is
# modix's own, built on the reader), and the builtin `open`.
_FILE_METHODS = {"read_bytes", "read_text", "is_file", "isfile", "exists", "stat", "open"}

# (file, function, call) of each one allowed: the reader's own open, the
# bundled spec read from the package's resources, and the probe that decides
# whether a local checkout shadows a module.
ALLOWED = {
    ("_wire.py", "read_artifact", "open"),
    ("cli.py", "_cmd_bench", "read_text"),
    ("modulemap.py", "_module_file", "isfile"),
}


def scan(source: str, file: str) -> list[str]:
    faults = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            reads = name in _FILE_METHODS if isinstance(func, ast.Attribute) else name == "open"
            if reads and (file, function, name) not in ALLOWED:
                faults.append(f"{file}:{node.lineno} in {function or '<module>'}: calls {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source, file), "")
    return faults


def test_every_file_is_read_by_the_reader():
    assert len(SOURCES) > 5
    faults = [fault for path in SOURCES for fault in scan(path.read_text("utf-8"), path.name)]
    assert faults == []


@pytest.mark.parametrize("source", [
    "def f(p):\n    return p.read_bytes()\n",
    "def f(p):\n    return Path(p).read_text('utf-8')\n",
    "def f(p):\n    return p.is_file()\n",
    "def f(p):\n    return os.path.isfile(p)\n",
    "def f(p):\n    return os.path.exists(p)\n",
    "def f(p):\n    return os.stat(p)\n",
    "def f(p):\n    return open(p, 'rb')\n",
    "def read_artifact(p):\n    return p.read_bytes()\n",
])
def test_scan_rejects(source):
    assert len(scan(source, "_wire.py")) == 1


@pytest.mark.parametrize("source", [
    "def read_artifact(p):\n    return os.open(p, 0)\n",
    "def f(p):\n    return read_artifact(p)\n",
    "def f(p):\n    return read_text(p)\n",
    "def f(p):\n    return os.fstat(p)\n",
    "def f(p, data):\n    p.write_bytes(data)\n",
])
def test_scan_accepts(source):
    assert scan(source, "_wire.py") == []
