"""Command-line entry point: ``python -m repro`` / ``repro-netclone``.

Examples::

    repro-netclone --list
    repro-netclone schemes
    repro-netclone topologies
    repro-netclone placements
    repro-netclone workloads
    repro-netclone scenarios
    repro-netclone fig7 --scale 0.25 --jobs 4
    repro-netclone run fig17 --topology spine_leaf --jobs 4
    repro-netclone fig18 --topology spine_leaf:spines=4,spine_policy=least-loaded
    repro-netclone fig19 --placement rack-weighted:p=0.7 --jobs 4
    repro-netclone fig7 --workload mmpp:burst=8 --metrics sketch --jobs 4
    repro-netclone fig16 resources --seed 7
    repro-netclone run-scenario kill-during-rebuild --report-dir reports/
    repro-netclone run-scenario all --jobs 4 --scale 0.25
    repro-netclone lint
    repro-netclone lint src/repro/sim --findings-json findings.json
    repro-netclone lint --list-rules
    repro-netclone lint --update-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from repro.errors import ExperimentError
from repro.experiments.placements import PLACEMENTS
from repro.experiments.registry import EXPERIMENTS, UNREQUESTED, gate_harness_axes
from repro.experiments.schemes import SCHEMES
from repro.experiments.topologies import TOPOLOGIES
from repro.experiments.workloads_registry import WORKLOADS

__all__ = ["main"]

#: Pseudo-experiment ids that list a plugin registry instead of running.
_LISTINGS = {
    "schemes": ("registered schemes:", SCHEMES),
    "topologies": ("registered topologies:", TOPOLOGIES),
    "placements": ("registered placements:", PLACEMENTS),
    "workloads": ("registered workloads:", WORKLOADS),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-netclone",
        description="Reproduce the NetClone (SIGCOMM 2023) evaluation.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (fig7..fig19, table1, resources), "
        "'schemes' / 'topologies' / 'placements' / 'workloads' / "
        "'scenarios' to list the registered plugins of one axis, or "
        "'run-scenario' followed by catalog names, TOML spec paths or "
        "'all' (an optional leading 'run' is accepted and ignored)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink measurement windows/grids (e.g. 0.25 for a quick pass)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="root RNG seed (default: 1 for experiments; run-scenario "
        "keeps each scenario's own pinned seed unless overridden)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="sweep points in N parallel worker processes (0 = all CPU cores)",
    )
    parser.add_argument(
        "--topology",
        "-t",
        default=None,
        help="fabric to run on, with optional inline parameters, e.g. "
        "spine_leaf:spines=4,spine_policy=least-loaded (see "
        "'topologies'; default: each experiment's own, usually the "
        "single-rack star)",
    )
    parser.add_argument(
        "--placement",
        "-p",
        default=None,
        help="group-table placement policy, with optional inline "
        "parameters, e.g. rack-local or rack-weighted:p=0.7 (see "
        "'placements'; default: global — the paper's single global "
        "candidate-pair table)",
    )
    parser.add_argument(
        "--workload",
        "-w",
        default=None,
        help="registered workload, with optional inline parameters, e.g. "
        "mmpp:burst=8,period_ms=0.5 or kv-redis:scan_fraction=0.1 (see "
        "'workloads'; only harnesses with a workload axis accept it — "
        "others error out; default: each experiment's own)",
    )
    parser.add_argument(
        "--metrics",
        choices=("exact", "sketch"),
        default=None,
        help="latency backend: 'exact' keeps every sample (bit-identical "
        "to the seed), 'sketch' streams samples into mergeable "
        "O(buckets) quantile sketches — the only mode that survives "
        "100M+-request sweeps (harnesses without a metrics axis error "
        "out; default: exact)",
    )
    parser.add_argument(
        "--report-dir",
        default=None,
        help="run-scenario only: write each ScenarioReport as "
        "<name>.json into this directory (created if missing)",
    )
    lint = parser.add_argument_group(
        "lint options", "only meaningful with the 'lint' subcommand"
    )
    lint.add_argument(
        "--baseline",
        default="detlint-baseline.json",
        help="baseline file of accepted legacy findings "
        "(default: detlint-baseline.json; missing file = empty baseline)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file with the current findings and exit",
    )
    lint.add_argument(
        "--findings-json",
        default=None,
        metavar="FILE",
        help="also write every finding (with its baselined flag) as JSON",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered lint rules and exit",
    )
    return parser


def _run_lint(targets: List[str], args: argparse.Namespace) -> int:
    """``lint`` subcommand: the detlint rule engine over the tree.

    Positional arguments after ``lint`` are files or directories
    (default: the full ``src/repro`` + ``examples`` + ``tools`` tree,
    anchored at the current directory).  Exit code 1 on any finding not
    covered by the baseline, whatever its severity.
    """
    from repro.analysis import (
        RULES,
        filter_baselined,
        format_findings,
        lint_paths,
        load_baseline,
        write_baseline,
    )

    if args.list_rules:
        print("registered lint rules:")
        for line in RULES.describe():
            print(f"  {line}")
        return 0
    try:
        findings = lint_paths(targets or None)
    except ExperimentError as exc:
        print(f"lint: {exc}")
        return 2
    if args.update_baseline:
        write_baseline(findings, args.baseline)
        print(f"recorded {len(findings)} finding(s) in {args.baseline}")
        return 0
    fresh, baselined = filter_baselined(findings, load_baseline(args.baseline))
    if args.findings_json:
        fresh_ids = {id(finding) for finding in fresh}
        payload = {
            "new": len(fresh),
            "baselined": baselined,
            "findings": [
                {
                    "rule": finding.rule,
                    "severity": finding.severity,
                    "path": finding.path,
                    "line": finding.line,
                    "col": finding.col,
                    "scope": finding.scope,
                    "message": finding.message,
                    "baselined": id(finding) not in fresh_ids,
                }
                for finding in findings
            ],
        }
        with open(args.findings_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if fresh:
        print(format_findings(fresh))
    suffix = f" ({baselined} baselined)" if baselined else ""
    if fresh:
        print(f"lint: {len(fresh)} new finding(s){suffix}")
        return 1
    print(f"lint: clean{suffix}")
    return 0


def _run_scenarios(names: List[str], args: argparse.Namespace) -> int:
    """``run-scenario`` subcommand: run catalog entries / TOML specs.

    The scenarios run as one sweep batch (so ``--jobs N`` parallelises
    them, bit-identically to serial); every report prints its
    invariant summary, optionally lands as JSON in ``--report-dir``,
    and any failed invariant makes the exit code 1.  A user error (an
    unknown name, an override the scenario cannot run on, a
    ``--workload`` or ``--metrics`` flag) raises ExperimentError before
    any scenario runs.
    """
    from repro.scenarios import Scenario, catalog, get_scenario
    from repro.scenarios.runner import ScenarioReport
    from repro.scenarios.sweep import run_scenarios

    if not names:
        print("run-scenario needs catalog names, TOML paths, or 'all'")
        return 2
    for axis in ("workload", "metrics"):
        if getattr(args, axis) is not None:
            raise ExperimentError(
                f"run-scenario has no --{axis} axis "
                "(it accepts: --topology, --placement)"
            )
    scenarios: List[Scenario] = []
    for name in names:
        if name == "all":
            scenarios.extend(catalog())
        elif name.endswith(".toml"):
            scenarios.append(Scenario.from_toml_file(name))
        else:
            scenarios.append(get_scenario(name))
    report_dicts = run_scenarios(
        scenarios,
        topology=args.topology,
        placement=args.placement,
        scale=args.scale,
        seed=args.seed,
        jobs=args.jobs,
    )
    if args.report_dir:
        os.makedirs(args.report_dir, exist_ok=True)
    failed = 0
    for data in report_dicts:
        report = ScenarioReport.from_dict(data)
        print(report.summary())
        if not report.passed:
            failed += 1
        if args.report_dir:
            path = os.path.join(args.report_dir, f"{report.scenario}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=2, sort_keys=True)
                fh.write("\n")
    if failed:
        print(f"{failed} of {len(report_dicts)} scenario(s) FAILED")
        return 1
    print(f"all {len(report_dicts)} scenario(s) passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    experiments = list(args.experiments)
    if experiments and experiments[0] == "run":
        experiments = experiments[1:]
    if experiments and experiments[0] == "lint":
        return _run_lint(experiments[1:], args)
    try:
        if experiments and experiments[0] == "run-scenario":
            return _run_scenarios(experiments[1:], args)
        return _run_experiments(experiments, args)
    except ExperimentError as exc:
        # A bad experiment id, scenario name or axis value, or a failed
        # harness gate (fig16's invariants): print the message and exit
        # 2, no traceback.
        print(exc)
        return 2


def _run_experiments(experiments: List[str], args: argparse.Namespace) -> int:
    """List or run *experiments*; every user error raises ExperimentError."""
    if args.topology is not None:
        # Fail fast (and normalise aliases) before any experiment runs;
        # inline parameters ride along in canonical key=value form.
        args.topology = TOPOLOGIES.canonical(args.topology)
    if args.placement is not None:
        args.placement = PLACEMENTS.canonical(args.placement)
    if args.workload is not None:
        args.workload = WORKLOADS.canonical(args.workload)
    if args.list or not experiments:
        print("available experiments:")
        for spec in sorted(EXPERIMENTS.specs(), key=lambda spec: spec.name):
            print(f"  {spec.name} — {spec.description}")
        print("  schemes — list registered load-balancing/cloning schemes")
        print("  topologies — list registered fabric layouts")
        print("  placements — list registered group-placement policies")
        print("  workloads — list registered workload generators")
        print("  scenarios — list the chaos-scenario catalog")
        print("  run-scenario — run catalog scenarios / TOML specs with "
              "invariant checks")
        print("  lint — run the detlint determinism/resource rules "
              "(see also --list-rules)")
        return 0
    for experiment_id in experiments:
        if experiment_id == "scenarios":
            # Imported lazily: the scenarios package pulls the whole
            # cluster stack, which plain listings should not pay for.
            from repro.scenarios.catalog import describe_catalog

            print("chaos-scenario catalog:")
            for line in describe_catalog():
                print(f"  {line}")
            continue
        listing = _LISTINGS.get(experiment_id)
        if listing is not None:
            title, registry = listing
            print(title)
            for line in registry.describe():
                print(f"  {line}")
            continue
        harness = EXPERIMENTS.get(experiment_id).run
        kwargs: Dict[str, Any] = dict(
            scale=args.scale,
            seed=1 if args.seed is None else args.seed,
            jobs=args.jobs,
        )
        # Every other axis is opt-in per harness: passed only where the
        # signature declares it, and asking an unaware harness for one
        # is an error, not a silent ignore.
        requested = {
            axis: UNREQUESTED if value is None else value
            for axis, value in (
                ("topology", args.topology),
                ("placement", args.placement),
                ("workload", args.workload),
                ("metrics", args.metrics),
            )
        }
        kwargs.update(
            gate_harness_axes(
                harness,
                experiment_id,
                requested=requested,
                defaults={"workload": None, "metrics": "exact"},
            )
        )
        harness(**kwargs)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
