"""Difficulty-stratified evaluation: suites, metrics, comparisons, curves."""

from .compare import ComparisonTable, compare
from .curves import emit_curves
from .metrics import (
    MODES,
    MetricReport,
    MetricRow,
    evaluate_policy,
    load_report,
    mode_config,
    run_suite,
)
from .oracle import minimal_plan_length
from .suite import (
    BANDS,
    DEFAULT_COUNTS,
    DIFFICULTIES,
    PromptSuite,
    SuiteTask,
    classify,
    generate_suite,
    save_suite,
    verify_suite,
)

__all__ = [
    "BANDS",
    "ComparisonTable",
    "DEFAULT_COUNTS",
    "DIFFICULTIES",
    "MODES",
    "MetricReport",
    "MetricRow",
    "PromptSuite",
    "SuiteTask",
    "classify",
    "compare",
    "emit_curves",
    "evaluate_policy",
    "generate_suite",
    "load_report",
    "minimal_plan_length",
    "mode_config",
    "run_suite",
    "save_suite",
    "verify_suite",
]
