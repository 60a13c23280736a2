"""specloop: a guess-verify-refine harness for ACSL specification generation.

Parses and weaves ACSL annotations, constrains generation with
syntactic-construct configurations, drives a pluggable oracle against an
external deductive verifier under two refinement paradigms, and computes
the full metric suite over the resulting run records.
"""

from .acsl import (
    ALL_CONSTRUCTS,
    BASIC_CONSTRUCTS,
    GLOBAL,
    LOGICAL_CONSTRUCTS,
    Annotation,
    ConstructKind,
    FunctionContract,
    Loop,
    SourceSpan,
    SpecificationSet,
    parse_annotations,
    strip_annotations,
    weave,
)
from .config import (
    CANONICAL_NAMES,
    ComplianceVerdict,
    Configuration,
    TemplateStore,
    build_generation_prompt,
    build_repair_prompt,
    canonical_config,
    check_compliance,
)
from .oracle import (
    HttpChatOracle,
    HttpOracleSettings,
    Oracle,
    OraclePhase,
    OracleRequest,
    OracleResponse,
    ReplayOracle,
    ScriptedOracle,
    extract_spec,
)
from .verifier import (
    FramaCSettings,
    FramaCVerifier,
    GoalResult,
    GoalStatus,
    MockVerifier,
    ReportStatus,
    Verifier,
    VerifierReport,
    map_failures_to_annotations,
    spec_key,
    tie_break_annotation,
)
from .refine import (
    Paradigm,
    RunLimits,
    RunOutcome,
    RunRecord,
    refine_delete,
    refine_modify,
    run_once,
)
from .runner import ExperimentPlan, Program, load_dataset, run_experiment
from .metrics import (
    CellMetrics,
    build_table,
    compute_cell,
    emit_reports,
    improvement_ratio,
    optimal_config_proportions,
    reduction_rate,
    render_table,
    venn_sets,
)
from . import errors

__version__ = "0.1.0"
