"""Regenerate the pinned scenario golden (deliberate changes only).

Usage::

    PYTHONPATH=src python tests/data/regen_scenario_golden.py

Rewrites ``scenario_golden_tiny.json`` from a fresh run of the same
tiny kill/restore scenario ``tests/test_scenario_runner.py`` executes.
Commit the diff together with the engine change that motivated it.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from helpers import tiny_scenario  # noqa: E402

from repro.scenarios import run_scenario  # noqa: E402
from repro.sim.units import ms  # noqa: E402


def main() -> None:
    scenario = tiny_scenario(
        name="golden-tiny",
        events=[
            {"at_ns": ms(1.5), "action": "kill_server", "server": 0},
            {"at_ns": ms(3.0), "action": "restore_server", "server": 0},
        ],
    )
    data = run_scenario(scenario).report.to_dict()
    path = os.path.join(os.path.dirname(__file__), "scenario_golden_tiny.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
