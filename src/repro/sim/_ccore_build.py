"""Build-at-import machinery for the C scheduler core.

The extension is compiled from ``_ccore.c`` on first import (and again
whenever the source is newer than the built artifact), using the
toolchain Python itself was built with.  No build system, no installed
package: the ``.so`` lands next to the source inside the package and is
gitignored.

Design constraints:

* **Never break the simulator.**  Any failure — no compiler, read-only
  checkout, header mismatch — returns ``None`` and the pure-Python
  engine takes over silently.  ``REPRO_SIM_DEBUG=1`` prints the reason.
* **Parallel-safe.**  Sweep workers may import concurrently; each
  compiles to a private temp file and ``os.replace``s it into place
  atomically, so peers only ever see a complete artifact.
* **Opt-out.**  ``REPRO_PURE_SIM=1`` skips the C engine entirely
  (the ``pure-python-engine`` CI job runs the smoke tier that way, and
  an engine-pinning test runs one point under it).
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

__all__ = ["load_ccore"]


def _debug(message: str) -> None:
    # Build-time diagnostics toggle: runs only while the C core
    # compiles, never on a simulation path.
    if os.environ.get("REPRO_SIM_DEBUG"):  # detlint: ignore[env-read] -- build diagnostics, not a sim path
        print(f"repro.sim._ccore_build: {message}", file=sys.stderr)


def _compiler() -> list[str]:
    cc = sysconfig.get_config_var("CC") or "cc"
    # CC may carry flags ("gcc -pthread"); keep them.
    return cc.split()


def _build(source: Path, target: Path) -> bool:
    include = sysconfig.get_paths()["include"]
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(target.parent))
    os.close(fd)
    cmd = _compiler() + [
        "-O2",
        "-fPIC",
        "-shared",
        "-fno-strict-aliasing",
        f"-I{include}",
        str(source),
        "-o",
        tmp,
    ]
    try:
        proc = subprocess.run(
            cmd, check=False, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            _debug(f"compile failed: {proc.stderr.strip()[:2000]}")
            return False
        os.replace(tmp, target)
        return True
    except (OSError, subprocess.SubprocessError) as exc:
        _debug(f"compile error: {exc}")
        return False
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def load_ccore():
    """Import (building if needed) the ``_ccore`` module, or ``None``."""
    # Engine selection happens once at import; the chosen Simulator
    # class never re-reads the environment.
    if os.environ.get("REPRO_PURE_SIM"):  # detlint: ignore[env-read] -- one-time engine selection at import
        _debug("REPRO_PURE_SIM set; using the pure-Python engine")
        return None
    package_dir = Path(__file__).resolve().parent
    source = package_dir / "_ccore.c"
    if not source.exists():
        _debug("_ccore.c missing")
        return None
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    target = package_dir / f"_ccore{suffix}"
    try:
        stale = (
            not target.exists()
            or target.stat().st_mtime < source.stat().st_mtime
        )
    except OSError:
        stale = True
    if stale and not _build(source, target):
        return None
    try:
        return importlib.import_module("repro.sim._ccore")
    except Exception as exc:  # pragma: no cover - import oddities
        _debug(f"import failed: {exc}")
        return None
