"""Programmable-switch (PISA) model.

Models the parts of a Tofino-class switch ASIC that shape the NetClone
design:

* a feed-forward pipeline of match-action **stages**
  (:mod:`pipeline`) — packets visit stages strictly in order, once per
  pass;
* **register arrays** (:mod:`registers`) pinned to a single stage at
  "compile" time, with at most one access per pipeline pass — the
  constraint that forces the paper's shadow state table;
* exact-match **match-action tables** (:mod:`tables`), updatable only
  from the control plane;
* **hash units** (:mod:`hashing`) placed per stage, and the CRC
  index function (``crc32_hash``) a program's pass computes with;
* **recirculation** via loopback ports (:mod:`switch`) — the
  mechanism NetClone uses to give cloned packets their destination
  address on a second pass;
* a **resource accountant** (:mod:`resources`) reproducing the §4.1
  SRAM/stage arithmetic;
* a **control plane** (:mod:`controlplane`) for slow-path table
  updates (server add/remove, failure handling).
"""

from repro.switchsim.controlplane import ControlPlane
from repro.switchsim.hashing import HashUnit, crc32_hash
from repro.switchsim.pipeline import Pipeline, Stage
from repro.switchsim.registers import RegisterArray
from repro.switchsim.resources import ResourceModel, ResourceReport
from repro.switchsim.switch import ProgrammableSwitch, SwitchProgram
from repro.switchsim.tables import MatchActionTable

__all__ = [
    "ControlPlane",
    "HashUnit",
    "MatchActionTable",
    "Pipeline",
    "ProgrammableSwitch",
    "RegisterArray",
    "ResourceModel",
    "ResourceReport",
    "Stage",
    "SwitchProgram",
    "crc32_hash",
]
