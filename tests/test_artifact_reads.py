"""Every artifact and text input is read by one function, `_wire.read_artifact`:
one open, one fstat, reads to end of file or to a byte limit, one close, and no
probe ahead.

Here: what the reader returns for each kind of path, with and without a
limit, `read_text` against `Path.read_text`, a read error at each read site
surfacing as UnreadableFile, the stat, open and byte counts of a gmi session
open and of `modix validate`, and a static check that nothing in `modix` reads
or probes a file another way.
"""

from __future__ import annotations

import ast
import errno
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import modix
from modix import gmi, loader, modfile, modulemap
from modix.bench import CorpusSpec, generate_corpus, open_corpus_session
from modix.cli import main
from modix.declang import Need, parse_header
from modix.errors import IndexStale, UnreadableFile
from modix.gmi import INDEX_FILE_NAME, read_index, validate_index
from modix.loader import INDEX_FLAVORS, Strategy
from modix.modfile import compile_module, read_module_summary, read_modules
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

    def test_limit_reads_a_prefix(self, tmp_path):
        path = tmp_path / "file"
        path.write_bytes(bytes(range(100)))
        assert read_artifact(path, 16) == bytes(range(16))
        assert read_artifact(path, 0) == b""

    @pytest.mark.parametrize("size", [0, 1, 15, 16])
    def test_limit_past_the_end_reads_the_whole_file(self, tmp_path, size):
        path = tmp_path / "file"
        path.write_bytes(bytes(range(size)))
        assert read_artifact(path, 16) == bytes(range(size))

    def test_limit_continues_short_reads(self, tmp_path, monkeypatch):
        path = tmp_path / "file"
        path.write_bytes(os.urandom(10_000))
        read = os.read
        sizes = []

        def short(fd, n):
            sizes.append(n)
            return read(fd, min(n, 4096))

        monkeypatch.setattr(os, "read", short)
        assert read_artifact(path, 5000) == path.read_bytes()[:5000]
        assert sizes == [5000, 904]

    def test_limit_finds_no_file_where_is_file_is_false(self, tmp_path):
        (tmp_path / "file").write_bytes(b"x")
        os.mkfifo(tmp_path / "fifo")
        for name in ("fifo", "absent", "file/below", "."):
            assert read_artifact(tmp_path / name, 16) is None, name

    def test_limit_read_error_names_the_path(self, tmp_path, monkeypatch):
        path = tmp_path / "file"
        path.write_bytes(b"data")
        _fail_reads(monkeypatch, "file")
        with pytest.raises(UnreadableFile, match=f"cannot read {path}: Input/output error"):
            read_artifact(path, 16)

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
    "gmi open heads": ("M3.pcm", lambda c: open_corpus_session(c, Strategy.LEXICAL_GMI)),
    "module load": ("M0.pcm", lambda c: open_corpus_session(c, Strategy.SEMANTIC_GMI).resolve(
        "S0_0", Need.DEFINITION)),
    "preload": ("M5.pcm", lambda c: open_corpus_session(c, Strategy.PRELOAD_ALL)),
    "pch": ("__pch__.pcm", lambda c: open_corpus_session(c, Strategy.PCH)),
    "read_modules": ("M0.pcm", lambda c: list(read_modules(c, ["M0"]))),
    "rootmap": ("modules.rootmap", lambda c: open_corpus_session(c, Strategy.TEXTUAL)),
    "header": ("M0/types.dh", lambda c: open_corpus_session(c, Strategy.TEXTUAL).resolve(
        "S0_0", Need.DEFINITION)),
    "module map": (FINAL_MAP_NAME, lambda c: load_modulemap(c / FINAL_MAP_NAME)),
    "module map preload open": (FINAL_MAP_NAME, lambda c: open_corpus_session(c, Strategy.PRELOAD_ALL)),
    "module map index open": (FINAL_MAP_NAME, lambda c: open_corpus_session(
        c, Strategy.LEXICAL_GMI, local_roots=[str(c / "M0")])),
}


@pytest.mark.parametrize("site", sorted(_SITES))
def test_read_error_at_each_site_is_unreadable(corpus12, monkeypatch, site):
    suffix, act = _SITES[site]
    _fail_reads(monkeypatch, suffix)
    with pytest.raises(UnreadableFile, match=r"cannot read \S*" + suffix + ": Input/output error"):
        act(corpus12)


@pytest.mark.parametrize("strategy", [
    Strategy.PCH, Strategy.TEXTUAL, Strategy.LEXICAL_GMI, Strategy.SEMANTIC_GMI,
])
def test_map_read_error_leaves_artifact_opens_alone(corpus12, monkeypatch, strategy):
    _fail_reads(monkeypatch, FINAL_MAP_NAME)
    session = open_corpus_session(corpus12, strategy)
    assert session.resolve("S0_0", Need.DEFINITION).succeeded


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


@pytest.fixture
def refused_checkout(corpus12, tmp_path, monkeypatch) -> Path:
    """A local root whose `M0.pcm` cannot be opened or stat'ed (EACCES), as
    under a directory the user may not search: root ignores mode bits."""
    local = tmp_path / "local"
    local.mkdir()
    checkout = local / "M0.pcm"
    checkout.write_bytes((corpus12 / "M0.pcm").read_bytes())
    for name in ("open", "stat"):
        def refuse(path, *args, real=getattr(os, name), **kwargs):
            if os.fspath(path) == str(checkout):
                raise PermissionError(errno.EACCES, "Permission denied")
            return real(path, *args, **kwargs)

        monkeypatch.setattr(os, name, refuse)
    return local


@pytest.mark.parametrize("strategy", list(Strategy))
def test_unreadable_checkout_is_refused(corpus12, refused_checkout, strategy):
    # Not skipped for the release copy: a checkout that exists but cannot be
    # read raises, as an unreadable release module does.
    with pytest.raises(UnreadableFile, match=f"^cannot read {refused_checkout / 'M0.pcm'}: Permission denied$"):
        open_corpus_session(corpus12, strategy, local_roots=[str(refused_checkout)])


def test_run_exits_2_on_unreadable_checkout(corpus12, refused_checkout, capsys, tmp_path):
    script = tmp_path / "script.txt"
    script.write_text("sizeof(S0_0);\n", "utf-8")
    argv = ["run", "--strategy", "semantic-gmi", "--dir", str(corpus12),
            "--local", str(refused_checkout), str(script)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"modix: error: cannot read {refused_checkout / 'M0.pcm'}: Permission denied\n"


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


def test_local_checkout_is_probed_once_per_module(corpus12, tmp_path, monkeypatch):
    # One 0-byte read per module name at the open (shadowing), and no stat;
    # the module loads that follow, the checkout's included, reuse those probes.
    local = tmp_path / "local"
    local.mkdir()
    (local / "M3.pcm").write_bytes((corpus12 / "M3.pcm").read_bytes())
    stats = _count(monkeypatch, "stat")
    reads = _record_reads(monkeypatch, corpus12, limits=True)
    session = open_corpus_session(corpus12, Strategy.SEMANTIC_GMI, local_roots=[str(local)])
    probes = sorted(path for path, limit in reads if limit == 0)
    assert probes == sorted((local / f"M{m}.pcm").as_posix() for m in range(12))
    for m in range(12):
        session.resolve(f"S{m}_0", Need.DEFINITION)
    assert sorted(path for path, limit in reads if limit == 0) == probes
    assert [path for path, _ in reads].count((local / "M3.pcm").as_posix()) == 2  # probe, load
    assert stats == []
    assert session.stats().modules_loaded > 1


@pytest.mark.parametrize("strategy", [Strategy.PCH, Strategy.TEXTUAL, Strategy.PRELOAD_ALL])
def test_open_without_local_roots_probes_no_checkout(corpus12, monkeypatch, strategy):
    probes = []
    monkeypatch.setattr(loader, "find_local_module", lambda *args: probes.append(args))
    open_corpus_session(corpus12, strategy)
    assert probes == []


def _record_reads(monkeypatch, root: Path, limits: bool = False) -> list:
    """Each file `read_artifact` reads, in order, through every module that
    imports it: its path relative to `root`, or as given when outside it,
    paired with its byte limit (None for the whole file) when `limits`."""
    reads = []
    real = read_artifact

    def recorded(path, limit=None):
        path = Path(path)
        name = (path.relative_to(root) if path.is_relative_to(root) else path).as_posix()
        reads.append((name, limit) if limits else name)
        return real(path, limit)

    for module in (gmi, modfile, modulemap):
        monkeypatch.setattr(module, "read_artifact", recorded)
    return reads


@pytest.mark.parametrize("strategy, artifact", [
    (Strategy.PCH, "__pch__.pcm"), (Strategy.TEXTUAL, "modules.rootmap"),
])
def test_artifact_open_reads_only_its_artifact(corpus12, monkeypatch, strategy, artifact):
    reads = _record_reads(monkeypatch, corpus12)
    open_corpus_session(corpus12, strategy)
    assert reads == [artifact]


@pytest.mark.parametrize("strategy, local", [
    (Strategy.PRELOAD_ALL, False), (Strategy.LEXICAL_GMI, True), (Strategy.SEMANTIC_GMI, True),
    (Strategy.PCH, True), (Strategy.TEXTUAL, True),
])
def test_open_reads_the_module_map_once(corpus12, tmp_path, monkeypatch, strategy, local):
    # With a local root, the open also probes it once for each map module.
    (tmp_path / "local").mkdir()
    local_roots = [str(tmp_path / "local")] if local else []
    reads = _record_reads(monkeypatch, corpus12, limits=True)
    open_corpus_session(corpus12, strategy, local_roots=local_roots)
    assert [path for path, _ in reads].count(FINAL_MAP_NAME) == 1
    modules = [f"M{m}.pcm" for m in range(12)] + ["__pch__.pcm"] * (strategy is Strategy.PCH)
    probes = sorted((tmp_path / "local" / name).as_posix() for name in modules) if local else []
    assert sorted(path for path, limit in reads if limit == 0) == probes


@pytest.mark.parametrize("strategy", [Strategy.LEXICAL_GMI, Strategy.SEMANTIC_GMI])
def test_index_open_reads_its_index_and_each_module_head(corpus12, monkeypatch, strategy):
    # No module map: the index records the merge order.
    reads = _record_reads(monkeypatch, corpus12)
    read_bytes = _count_bytes(monkeypatch)
    open_corpus_session(corpus12, strategy)
    index = gmi.index_file_name(INDEX_FLAVORS[strategy])
    modules = [f"M{m}.pcm" for m in range(12)]
    assert reads == [index, *modules]
    heads = {str(corpus12 / module): 16 for module in modules}
    assert read_bytes == {str(corpus12 / index): (corpus12 / index).stat().st_size, **heads}


def test_compile_reads_the_module_map_once(tmp_path, monkeypatch):
    reads = _record_reads(monkeypatch, tmp_path / "c")
    spec = CorpusSpec(
        n_modules=12, defs_per_module=3, fwd_fanout=3, dup_fraction=0.5, import_density=1.0, seed=7,
    )
    generate_corpus(spec, tmp_path / "c")
    assert reads.count(FINAL_MAP_NAME) == 1


def _count_bytes(monkeypatch) -> dict[str, int]:
    """Bytes `os.read` returns, summed by the path each descriptor was opened for."""
    read_bytes: dict[str, int] = {}
    paths: dict[int, str] = {}
    open_, read = os.open, os.read

    def opened(path, flags, *args):
        fd = open_(path, flags, *args)
        paths[fd] = str(path)
        return fd

    def counted(fd, n):
        data = read(fd, n)
        read_bytes[paths[fd]] = read_bytes.get(paths[fd], 0) + len(data)
        return data

    monkeypatch.setattr(os, "open", opened)
    monkeypatch.setattr(os, "read", counted)
    return read_bytes


@pytest.mark.parametrize("strategy", [Strategy.LEXICAL_GMI, Strategy.SEMANTIC_GMI])
def test_stale_index_open_reads_each_head_once(gpad_corpus, monkeypatch, strategy):
    # One module file deleted, one cut inside its head, one rebuilt in place:
    # the open names all three, in index order, from one read of each head.
    corpus_dir, _ = gpad_corpus
    (corpus_dir / "M1.pcm").unlink()
    cut = corpus_dir / "M3.pcm"
    cut.write_bytes(cut.read_bytes()[:8])
    rebuilt = corpus_dir / "M4.pcm"
    imports = read_module_summary(rebuilt.read_bytes()).imports
    header = parse_header((corpus_dir / "M4" / "types.dh").read_text("utf-8"), "M4/types.dh")
    rebuilt.write_bytes(compile_module("M4", [header], imports))
    reads = _record_reads(monkeypatch, corpus_dir)
    read_bytes = _count_bytes(monkeypatch)
    with pytest.raises(IndexStale) as excinfo:
        open_corpus_session(corpus_dir, strategy)
    assert excinfo.value.stale_modules == ("M1", "M3", "M4")
    modules = [f"M{m}.pcm" for m in range(6)]
    assert reads == [gmi.index_file_name(INDEX_FLAVORS[strategy]), *modules]
    heads = {str(corpus_dir / module): 16 for module in modules if module != "M1.pcm"}
    assert {p: n for p, n in read_bytes.items() if p.endswith(".pcm")} == {**heads, str(cut): 8}


@pytest.mark.parametrize("strategy", [Strategy.SEMANTIC_GMI, Strategy.LEXICAL_GMI])
def test_gmi_open_reads_the_head_of_each_module_not_loaded(corpus12, monkeypatch, strategy):
    read_bytes = _count_bytes(monkeypatch)
    session = open_corpus_session(corpus12, strategy)
    pcm = {str(corpus12 / f"M{m}.pcm") for m in range(12)}
    assert {p: n for p, n in read_bytes.items() if p.endswith(".pcm")} == dict.fromkeys(pcm, 16)
    for ident in ("S0_0", "S7_1"):
        session.resolve(ident, Need.DEFINITION)
    loaded = {str(corpus12 / f"{name}.pcm") for name in session.stats().load_order}
    assert 0 < len(loaded) < 12
    for path in pcm - loaded:
        assert read_bytes[path] == 16, path
    for path in loaded:
        assert read_bytes[path] == 16 + os.path.getsize(path), path


def test_validate_reads_each_module_file_once_in_full(corpus12, monkeypatch, capsys):
    read_bytes = _count_bytes(monkeypatch)
    assert main(["validate", str(corpus12)]) == 0
    capsys.readouterr()
    sizes = {str(path): path.stat().st_size for path in corpus12.glob("M*.pcm")}
    assert len(sizes) == 12
    assert {p: n for p, n in read_bytes.items() if p.endswith(".pcm")} == sizes


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

# Methods that read, probe or list files (`read_text` called by its bare name
# is modix's own, built on the reader), and the builtin `open`.
_FILE_METHODS = {
    "read_bytes", "read_text", "is_file", "isfile", "isdir", "islink", "exists", "lexists",
    "stat", "lstat", "access", "getsize", "open", "scandir", "listdir", "iterdir", "glob", "rglob",
}

# (file, function, call) of each one allowed: the reader's own open and the
# bundled spec read from the package's resources.
ALLOWED = {
    ("_wire.py", "read_artifact", "open"),
    ("cli.py", "_cmd_bench", "read_text"),
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
    "def f(p):\n    return os.path.isdir(p)\n",
    "def f(p):\n    return os.path.islink(p)\n",
    "def f(p):\n    return os.path.lexists(p)\n",
    "def f(p):\n    return os.lstat(p)\n",
    "def f(p):\n    return os.access(p, os.R_OK)\n",
    "def f(p):\n    return os.path.getsize(p)\n",
    "def f(p):\n    return list(os.scandir(p))\n",
    "def f(p):\n    return os.listdir(p)\n",
    "def f(p):\n    return list(p.iterdir())\n",
    "def f(p):\n    return list(p.glob('*.pcm'))\n",
    "def f(p):\n    return list(p.rglob('*.pcm'))\n",
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
