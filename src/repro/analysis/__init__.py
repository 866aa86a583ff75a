"""Analysis plane: analytic queueing models and the detlint engine.

Two halves share this package:

* **Queueing models** (:mod:`repro.analysis.queueing`) — closed-form
  results the test suite checks simulated clusters against: M/M/1 and
  M/M/c (Erlang-C) waiting times, the latency distribution of cloned
  exponential service, the C-Clone utilisation doubling.
* **Static analysis** (:mod:`repro.analysis.core` plus the
  ``rules_*`` modules) — the detlint AST rule engine behind
  ``repro-netclone lint`` / ``tools/detlint.py`` / ``make lint``:
  determinism, resource-safety and plugin-hygiene rules registered as
  plugins on the shared registry machinery, with inline
  ``# detlint: ignore[rule]`` suppressions.

The runtime twin of the static half (packet ledgers, RNG draw
accounting behind ``REPRO_SANITIZE=1``) lives in
:mod:`repro.sim.sanitize`.
"""

from repro.analysis.core import (
    DEFAULT_TARGETS,
    RULES,
    Finding,
    RuleSpec,
    format_findings,
    lint_paths,
    lint_source,
)
from repro.analysis.queueing import (
    cclone_effective_utilisation,
    cloned_exponential_p99,
    erlang_c,
    exponential_p99,
    mm1_mean_wait,
    mmc_mean_wait,
)

__all__ = [
    "DEFAULT_TARGETS",
    "Finding",
    "RULES",
    "RuleSpec",
    "cclone_effective_utilisation",
    "cloned_exponential_p99",
    "erlang_c",
    "exponential_p99",
    "format_findings",
    "lint_paths",
    "lint_source",
    "mm1_mean_wait",
    "mmc_mean_wait",
]
