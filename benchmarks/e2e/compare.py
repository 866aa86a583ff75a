#!/usr/bin/env python
"""A/B verdicts over ``run.py --json`` result files.

    python benchmarks/e2e/compare.py --base a1.json ... a10.json --change b1.json ... b10.json

Give the files of each side in the order they ran; ``base[i]`` and
``change[i]`` form pair *i*, and the pairs should alternate which side
ran first.  For every workload x end-to-end metric of ``BENCHMARK.json``
it prints each side's median and quartiles, the share of pairs the
change won (ties count for neither) and a verdict:

* ``improved``: the change won at least 9/10 of the pairs and its median
  is better than the base's by more than the base's quartile spread;
* ``regressed``: the change's median is worse than the base's by more
  than the metric's bound;
* ``unresolved``: otherwise, when either side's quartile spread exceeds
  the bound, unless every change run beats every base run;
* ``within bound``: otherwise.

Results that mix engines or seeds are refused.  Exits 1 if any metric
regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


class CompareError(ValueError):
    """The inputs cannot be compared under the rule."""


def load_metrics() -> Dict[str, Dict[str, Any]]:
    """End-to-end metric name -> its entry in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def _quartiles(values: Sequence[float]) -> List[float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def verdict(
    base: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, Any]:
    """The rule applied to one metric's paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in zip(base, change) if sign * (b - a) > 0)
    med_a = statistics.median(base)
    med_b = statistics.median(change)
    q_a = _quartiles(base)
    q_b = _quartiles(change)
    spread = max((q_a[1] - q_a[0]) / med_a, (q_b[1] - q_b[0]) / med_b)
    gain = sign * (med_b - med_a)
    if wins >= WIN_SHARE * len(base) and gain > q_a[1] - q_a[0]:
        outcome = "improved"
    elif -gain > bound * med_a:
        outcome = "regressed"
    elif spread > bound and not min(sign * b for b in change) > max(sign * a for a in base):
        outcome = "unresolved"
    else:
        outcome = "within bound"
    return {
        "base_median": med_a,
        "base_quartiles": q_a,
        "change_median": med_b,
        "change_quartiles": q_b,
        "win_share": wins / len(base),
        "spread": spread,
        "verdict": outcome,
    }


def compare(
    base: Sequence[Dict[str, Any]],
    change: Sequence[Dict[str, Any]],
    metrics: Dict[str, Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """One row per workload x metric; raises :class:`CompareError`."""
    if len(base) != len(change):
        raise CompareError(f"{len(base)} base files but {len(change)} change files")
    if len(base) < MIN_PAIRS:
        raise CompareError(f"need at least {MIN_PAIRS} pairs, got {len(base)}")
    runs = list(base) + list(change)
    for key in ("engine", "seed"):
        seen = {str(r[key]) for r in runs}
        if len(seen) != 1 or "mixed" in seen:
            raise CompareError(f"refusing to compare results that mix {key}s: {sorted(seen)}")
    workloads = [w for w in runs[0]["workloads"] if all(w in r["workloads"] for r in runs)]
    rows = []
    for workload in workloads:
        for name, spec in metrics.items():
            try:
                a = [r["workloads"][workload]["e2e"][name] for r in base]
                b = [r["workloads"][workload]["e2e"][name] for r in change]
            except KeyError:
                raise CompareError(f"{workload}: a result has no end-to-end {name}") from None
            row = verdict(a, b, spec["better"], spec["bound"])
            rows.append({"workload": workload, "metric": name, "unit": spec["unit"], **row})
    return rows


def _load(paths: Sequence[Path]) -> List[Dict[str, Any]]:
    return [json.loads(p.read_text()) for p in paths]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    try:
        rows = compare(_load(args.base), _load(args.change), load_metrics())
    except CompareError as exc:
        print(f"compare.py: {exc}", file=sys.stderr)
        return 2
    for r in rows:
        print(
            f"{r['workload']:18s} {r['metric']:12s} "
            f"base {r['base_median']:.6g} [{r['base_quartiles'][0]:.6g}, {r['base_quartiles'][1]:.6g}]  "
            f"change {r['change_median']:.6g} [{r['change_quartiles'][0]:.6g}, {r['change_quartiles'][1]:.6g}] "
            f"{r['unit']}  wins {r['win_share']:.0%}  spread {r['spread']:.1%}  {r['verdict']}"
        )
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
