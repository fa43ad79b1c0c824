"""iobf: an obfuscating middle-end over a small textual IR.

Control-flow passes (flattening, nested-switch flattening, bogus control
flow, in-degree obfuscation), identifier passes (random, dictionary,
homoglyph, overload), a reference interpreter used as the semantics
oracle, and similarity/overhead metrics.
"""

from .bogus import (
    OpaquePredicate,
    bogus_control_flow,
    indegree_obfuscate,
    make_opaque_predicate,
)
from .cfg import Cfg, Edge, build_cfg, export_dot, in_degree_gap
from .corpus import CorpusEntry, default_corpus_dir, load_corpus
from .flatten import PassParameterError, flatten, nested_switch
from .interp import ExecutionResult, run, timed_run
from .ir import (
    IrFunction,
    IrModule,
    instruction_count,
    mangle,
    print_module,
)
from .metrics import (
    OverheadReport,
    SimilarityReport,
    canonical_block_hash,
    overhead,
    similarity,
)
from .parser import IrError, ParseError, ValidationError, parse_module
from .rename import (
    DictionaryExhausted,
    RenameMap,
    add_overloads,
    collect_custom_identifiers,
    load_dictionary,
    obfuscate_identifiers_default,
    rename_dictionary,
    rename_homoglyph,
    rename_random,
)
from .validate import Diagnostic, validate

__version__ = "0.1.0"

__all__ = [
    "Cfg",
    "CorpusEntry",
    "Diagnostic",
    "DictionaryExhausted",
    "Edge",
    "ExecutionResult",
    "IrError",
    "IrFunction",
    "IrModule",
    "OpaquePredicate",
    "OverheadReport",
    "ParseError",
    "PassParameterError",
    "RenameMap",
    "SimilarityReport",
    "ValidationError",
    "add_overloads",
    "bogus_control_flow",
    "build_cfg",
    "canonical_block_hash",
    "collect_custom_identifiers",
    "default_corpus_dir",
    "export_dot",
    "flatten",
    "in_degree_gap",
    "indegree_obfuscate",
    "instruction_count",
    "load_corpus",
    "load_dictionary",
    "make_opaque_predicate",
    "mangle",
    "nested_switch",
    "obfuscate_identifiers_default",
    "overhead",
    "parse_module",
    "print_module",
    "rename_dictionary",
    "rename_homoglyph",
    "rename_random",
    "run",
    "similarity",
    "timed_run",
    "validate",
]
