"""Static and runtime correctness tooling for the encrypted-MPI stack.

Two halves:

- the **linter** (:mod:`repro.analysis.linter`): an AST pass over
  job/workload code with a registry of MPI-protocol, determinism, and
  crypto-misuse rules (``python -m repro.analysis lint``, or
  :func:`repro.api.lint_job` for one workload function);
- the **sanitizer** (:mod:`repro.analysis.sanitize`): a runtime mode of
  the simulator (``run_job(sanitize=True)``, campaign ``--sanitize``)
  that diagnoses deadlocks with a wait-for graph, reports leaked
  requests at rank exit, and arms nonce-reuse checking on every AEAD;
- the **verifier** (:mod:`repro.analysis.dataflow`): a flow-sensitive
  abstract interpreter that extracts each rank program's symbolic
  communication graph and checks match completeness, tag consistency,
  collective order, deadlock cycles, and crypto taint hygiene
  (``python -m repro.analysis verify``, or :func:`repro.api.verify_job`
  for one workload function), audited against recorded golden traces by
  :mod:`repro.analysis.conformance`.

See ``ANALYSIS.md`` at the repository root for the rule catalog and the
suppression syntax.
"""

from repro.analysis.findings import Finding, Rule, all_rules, get_rule
from repro.analysis.linter import (
    lint_callable,
    lint_paths,
    lint_source,
)
from repro.analysis.dataflow import (
    VerifyResult,
    verify_callable,
    verify_paths,
    verify_source,
)
from repro.analysis.sanitize import (
    DeadlockDiagnosis,
    Sanitizer,
    SanitizerError,
    SanitizerReport,
)

__all__ = [
    "DeadlockDiagnosis",
    "Finding",
    "Rule",
    "Sanitizer",
    "SanitizerError",
    "SanitizerReport",
    "VerifyResult",
    "all_rules",
    "get_rule",
    "lint_callable",
    "lint_paths",
    "lint_source",
    "verify_callable",
    "verify_paths",
    "verify_source",
]
