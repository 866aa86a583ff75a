#!/usr/bin/env python
"""Standalone entry for the detlint rule engine (``make lint``).

A thin wrapper over ``repro-netclone lint`` that works without an
installed package or a configured ``PYTHONPATH`` — CI and pre-commit
hooks call it straight from a checkout::

    python tools/detlint.py
    python tools/detlint.py src/repro/sim --findings-json findings.json
    python tools/detlint.py --list-rules

Arguments are exactly the CLI's: positional paths narrow the run
(default: the full ``src/repro`` + ``examples`` + ``tools`` tree), and
``--findings-json`` / ``--list-rules`` behave as documented there.
Exit code 1 on any finding.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))


def main(argv: list[str] | None = None) -> int:
    from repro.cli import main as cli_main

    args = sys.argv[1:] if argv is None else list(argv)
    return cli_main(["lint", *args])


if __name__ == "__main__":
    sys.exit(main())
