"""Tests of the end-to-end benchmark itself: ``pytest benchmarks/e2e``.

Kept outside the tier-1 ``testpaths``; the two smoke invocations run
every workload at a 1 ms measurement window (~15 s each).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import compare
import run

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _invoke(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two identical 1 ms-window invocations over every workload."""
    results = []
    for i in range(2):
        out = tmp_path_factory.mktemp("e2e") / f"run{i}.json"
        proc = _invoke(HERE.parents[1], "--seed", "2", "--window-ms", "1", "--json", str(out))
        results.append((proc, json.loads(out.read_text())))
    return results


def test_every_workload_passes_the_checks(smoke):
    for proc, result in smoke:
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        assert result["correct"] and not result["failed_checks"]
        assert set(result["workloads"]) == set(run.WORKLOADS)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] > 0 and line["failed"] == 0


def test_digest_is_stable_and_tracing_does_not_perturb(smoke):
    (_, first), (_, second) = smoke
    for name, entry in first["workloads"].items():
        assert entry["digest"] == second["workloads"][name]["digest"]
        assert entry["digest_traced"] == entry["digest"]


def test_single_workload_lines_carry_exactly_the_declared_metrics(smoke):
    entry = smoke[0][1]["workloads"]["star-clone"]
    for group, declared in (("e2e", "end_to_end"), ("per_layer", "per_layer")):
        one = {"correct": True,
               "workloads": {"star-clone": {"attempted": 1, "failed": 0, group: entry[group]}}}
        metrics = run.summary_line(one)["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == {
            m["name"]: m["unit"] for m in BENCHMARK[declared]
        }


def test_without_simulator_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    proc = _invoke(tmp_path, "--workload", "star-clone", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_timer_signal_handled_after_a_block_does_not_kill_the_child():
    """The timer can expire just before ``__exit__`` disarms it, with its
    handler running only after the disarm; that handler must not re-arm
    the timer, whose next expiry would meet the default handler."""
    script = textwrap.dedent("""
        import signal, time
        import reference
        real = signal.setitimer
        def late(which, seconds):
            result = real(which, seconds)
            if seconds == 0:
                signal.raise_signal(signal.SIGALRM)
            return result
        signal.setitimer = late
        sampler = reference.SpeedSampler()
        for _ in range(3):
            with sampler:
                time.sleep(0.012)
            time.sleep(0.02)
        print(sampler.speed > 0)
    """)
    proc = subprocess.run([sys.executable, "-c", script], cwd=HERE,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "True"


# ----------------------------------------------------------------------
# compare.py on synthetic result files
# ----------------------------------------------------------------------
METRICS = compare.load_metrics()


def _results(values, engine="ccore", seed=1):
    return [
        {"engine": engine, "seed": seed,
         "workloads": {"w": {"e2e": {"sim_rps": v, "setup_s": 0.01, "peak_rss_mb": 40.0}}}}
        for v in values
    ]


def _verdict(base, change, metric="sim_rps"):
    rows = compare.compare(_results(base), _results(change), METRICS)
    return next(r for r in rows if r["metric"] == metric)


def test_compare_nine_of_ten_wins_is_an_improvement():
    base = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change = [b * 1.05 for b in base]
    change[3] = 99.0
    row = _verdict(base, change)
    assert row["win_share"] == 0.9
    assert row["verdict"] == "improved"


def test_compare_wide_spread_is_unresolved():
    base = [100.0, 80, 120, 90, 110, 75, 125, 100, 85, 115]
    change = [100.0, 115, 85, 120, 80, 110, 90, 125, 75, 100]
    assert _verdict(base, change)["verdict"] == "unresolved"


def test_compare_regression_beyond_the_bound():
    base = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change = [b * 0.85 for b in base]
    assert _verdict(base, change)["verdict"] == "regressed"
    assert _verdict(base, base)["verdict"] == "within bound"


def test_compare_refuses_mixed_engines_and_seeds():
    with pytest.raises(compare.CompareError, match="engines"):
        compare.compare(_results([1.0] * 10), _results([1.0] * 10, engine="python"), METRICS)
    with pytest.raises(compare.CompareError, match="seeds"):
        compare.compare(_results([1.0] * 10), _results([1.0] * 10, seed=2), METRICS)
    with pytest.raises(compare.CompareError, match="pairs"):
        compare.compare(_results([1.0] * 9), _results([1.0] * 9), METRICS)
