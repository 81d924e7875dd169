"""Static analysis for the parallel runtime: one import surface.

Four passes (see DESIGN.md §10 and §14):

* :mod:`repro.analysis.protocol` — the async control protocol as a
  declarative spec, statically verified against the backend sources.
* :mod:`repro.analysis.lint` — the PR-3 concurrency bug classes as AST
  rules plus the behavioral spawn-safety probe.
* :mod:`repro.analysis.dataflow` — the store-invariant contract
  (ST300-series): mutation/invalidation discipline of the id-native
  stores, tombstone paths, stripe minting.  Its runtime twin is
  :mod:`repro.analysis.sanitize` (``REPRO_SANITIZE=1``).
* :mod:`repro.analysis.preflight` — the run-time gate
  (``materialize(..., preflight=...)``) folding the rule-partitionability
  check and the passes above.

The rule-analysis helpers from :mod:`repro.datalog.analysis` are
re-exported here so gate callers need a single import.

Run it all from the command line::

    PYTHONPATH=src python -m repro.analysis --format=json
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.analysis.dataflow import (
    STORE_SPECS,
    STRIPE_RULES,
    CacheRule,
    StateRule,
    StoreSpec,
    StripeRule,
    TombstoneRule,
    VersionRule,
    store_spec_table,
    verify_stores,
)
from repro.analysis.lint import (
    DEFAULT_CONFIG,
    LintConfig,
    check_spawn_safety,
    lint_paths,
)
from repro.analysis.sanitize import (
    SanitizedIdGraph,
    SanitizedRunStore,
    SanitizerError,
    check_ledger,
    check_stripe_disjointness,
)
from repro.analysis.preflight import (
    PreflightError,
    PreflightWarning,
    default_allowlist_path,
    run_preflight,
)
from repro.analysis.protocol import (
    ASYNC_PROTOCOL,
    HandlerSpec,
    LedgerRule,
    MessageSpec,
    ProtocolSpec,
    spec_table,
    verify_protocol,
)
from repro.analysis.report import (
    AllowlistEntry,
    AllowlistError,
    AnalysisReport,
    Finding,
    load_allowlist,
    parse_allowlist,
)
from repro.rdf.stores import sanitize_enabled
from repro.datalog.analysis import (
    JoinClass,
    PartitionabilityDiagnostic,
    check_data_partitionable,
    classify_rule,
    is_single_join,
    join_variables,
    partitionability_diagnostics,
)

__all__ = [
    "ASYNC_PROTOCOL",
    "AllowlistEntry",
    "AllowlistError",
    "AnalysisReport",
    "CacheRule",
    "DEFAULT_CONFIG",
    "Finding",
    "HandlerSpec",
    "JoinClass",
    "LedgerRule",
    "LintConfig",
    "MessageSpec",
    "PartitionabilityDiagnostic",
    "PreflightError",
    "PreflightWarning",
    "ProtocolSpec",
    "STORE_SPECS",
    "STRIPE_RULES",
    "SanitizedIdGraph",
    "SanitizedRunStore",
    "SanitizerError",
    "StateRule",
    "StoreSpec",
    "StripeRule",
    "TombstoneRule",
    "VersionRule",
    "check_data_partitionable",
    "check_ledger",
    "check_spawn_safety",
    "check_stripe_disjointness",
    "classify_rule",
    "default_allowlist_path",
    "is_single_join",
    "join_variables",
    "lint_paths",
    "load_allowlist",
    "parse_allowlist",
    "partitionability_diagnostics",
    "run_all",
    "run_preflight",
    "sanitize_enabled",
    "spec_table",
    "store_spec_table",
    "verify_protocol",
    "verify_stores",
]


def run_all(
    paths: Iterable[str | Path] | None = None,
    root: str | Path | None = None,
    allowlist_path: str | Path | None = None,
) -> AnalysisReport:
    """Run every pass over a source tree and return the combined report.

    With no arguments, scans the installed ``repro`` package (i.e. the
    repo's own ``src/repro`` when run from a checkout) and applies the
    repo's ``.analysis-allowlist`` if present.  This is what
    ``python -m repro.analysis`` and the CI ``analysis`` job run.
    """
    if root is None or paths is None:
        import repro

        pkg_dir = Path(repro.__file__).parent
        if root is None:
            root = pkg_dir.parent
        if paths is None:
            paths = [pkg_dir]
    if allowlist_path is None:
        allowlist_path = default_allowlist_path()
    allowlist = load_allowlist(allowlist_path)
    report = AnalysisReport()
    report.passes.append("protocol")
    report.extend(verify_protocol(), allowlist)
    report.passes.append("lint")
    report.extend(lint_paths(paths, DEFAULT_CONFIG, root=root), allowlist)
    report.extend(check_spawn_safety(), allowlist)
    report.passes.append("dataflow")
    report.extend(verify_stores(), allowlist)
    return report
