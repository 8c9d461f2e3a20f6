"""modix: per-library binary module files, global module indexes, and
pluggable name-lookup strategies over a miniature declaration language."""

from .bench import (
    BenchRow,
    CorpusSpec,
    emit_report,
    generate_corpus,
    generate_replicated_corpus,
    load_spec,
    open_corpus_session,
    run_benchmark,
)
from .declang import (
    Decl,
    DeclKind,
    HeaderAST,
    Need,
    TypeRef,
    parse_header,
    parse_statement,
    render_header,
    tokenize,
)
from .gmi import (
    GlobalIndex,
    IndexFlavor,
    Staleness,
    build_index,
    load_index,
    lookup,
    lookup_definition,
    validate_index,
)
from .interp import EvalResult, FailReason, eval, iter_script, repl, run_script
from .loader import (
    CostModel,
    LoadStats,
    Mark,
    Resolution,
    ResolutionOutcome,
    Session,
    Strategy,
    open_session,
)
from .modfile import (
    DeclFlags,
    Entity,
    EntityKind,
    ModuleFile,
    build_pch,
    compile_module,
    deserialize_decl,
    merge_entities,
    read_module_summary,
)
from .modulemap import (
    ModuleDef,
    ModuleMap,
    Overlay,
    SearchPaths,
    concat_modulemaps,
    load_modulemap,
    parse_modulemap,
    parse_overlay,
    resolve_module_path,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
