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

The package re-exports only the sanitizer, which every simulated job
loads; the linter and the verifier are imported from their modules
(:mod:`repro.analysis.linter`, :mod:`repro.analysis.dataflow`,
:mod:`repro.analysis.findings`), so a job does not load them.
"""

from repro.analysis.sanitize import (
    DeadlockDiagnosis,
    Sanitizer,
    SanitizerError,
    SanitizerReport,
)

__all__ = [
    "DeadlockDiagnosis",
    "Sanitizer",
    "SanitizerError",
    "SanitizerReport",
]
