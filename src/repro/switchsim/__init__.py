"""Programmable-switch (PISA) model.

Models the parts of a Tofino-class switch ASIC that shape the NetClone
design:

* a feed-forward pipeline of match-action **stages**
  (:mod:`pipeline`) — a fixed stage count and the objects placed in
  them; packets visit stages strictly in order, once per pass;
* **register arrays** (:mod:`registers`) pinned to a single stage at
  "compile" time and backed by one flat register file per program,
  with at most one access per pipeline pass — the constraint that
  forces the paper's shadow state table;
* exact-match **match-action tables** (:mod:`tables`), updatable only
  from the control plane;
* **hash units** (:mod:`hashing`) placed per stage; the NetClone pass
  computes its CRC-32 filter index inline;
* **recirculation** via loopback ports (:mod:`switch`) — the
  mechanism NetClone uses to give cloned packets their destination
  address on a second pass — with fixed pipeline and recirculation
  latencies;
* a **resource report** (:mod:`resources`) reproducing the §4.1
  SRAM/stage arithmetic;
* a **control plane** (:mod:`controlplane`) for slow-path table
  updates (server add/remove, failure handling), with a fixed latency
  and update rate.
"""

from repro.switchsim.controlplane import ControlPlane
from repro.switchsim.hashing import HashUnit
from repro.switchsim.pipeline import Pipeline
from repro.switchsim.registers import RegisterArray, RegisterFile
from repro.switchsim.resources import ResourceReport, resource_report
from repro.switchsim.switch import ProgrammableSwitch
from repro.switchsim.tables import MatchActionTable

__all__ = [
    "ControlPlane",
    "HashUnit",
    "MatchActionTable",
    "Pipeline",
    "ProgrammableSwitch",
    "RegisterArray",
    "RegisterFile",
    "ResourceReport",
    "resource_report",
]
