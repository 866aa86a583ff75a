"""Experiment harnesses: one module per paper figure/table.

Each module exposes a ``run(scale=1.0, seed=1, jobs=1, ...)`` function
that prints the same rows/series the paper reports and returns that
report as a string; :mod:`~repro.experiments.ablations` holds the three
design ablations (§3.3–§3.5), one registered function each.  Harnesses that honour a fabric or placement
override also take ``topology=None`` / ``placement=None``, and those
with a workload or latency-metrics axis take ``workload`` /
``metrics``; the CLI passes an axis only where ``run`` declares it and
rejects it elsewhere.  The registry maps experiment IDs (``fig7``,
``fig13``, ``table1``, ...) to those entry points; ``python -m repro
<id>`` runs one, ``--jobs N`` fans the sweep points out over worker
processes, and ``--topology NAME`` re-runs it on any registered
fabric.

Adding a figure
---------------
Build one scaled :class:`~repro.experiments.common.ClusterConfig` per
panel (:func:`~repro.experiments.harness.scaled_config`), pass the
``{panel: config}`` dict and the schemes to
:func:`~repro.experiments.harness.sweep_panels` — it sweeps each
panel's load grid for every scheme in one executor batch and returns
``{panel: {scheme: SweepResult}}`` — format the curves with
:func:`~repro.experiments.harness.format_series`, and put
``@register(id, description)`` on ``run``, then add the module to
``EXPERIMENTS``' plugin-module list in :mod:`repro.experiments.registry`
(the registry imports it on the first lookup).

Cluster assembly is generic over plugin axes that compose freely:

* **scheme** (:mod:`repro.experiments.schemes`) — what runs: the
  client class, the switch program, an optional coordinator;
* **topology** (:mod:`repro.experiments.topologies`) — what it runs
  on: single-rack star, two-rack trunk, spine-leaf Clos, or any
  registered fabric.  The scheme's switch program is installed once
  per ToR with that rack's §3.7 switch ID, so ToR-only cloning works
  on every fabric;
* **placement** (:mod:`repro.experiments.placements`) — where request
  redundancy lands: which candidate server pairs each ToR's §3.3
  group table holds (``global``, ``rack-local``,
  ``rack-weighted:p=…``), selected via ``ClusterConfig.placement`` /
  ``--placement``;
* **workload** (:mod:`repro.experiments.workloads_registry`) — what
  the cluster is asked to do, selected via ``ClusterConfig.workload``
  / ``--workload``.

Adding a plugin
---------------
Every axis is one :class:`~repro.experiments.plugin_registry.PluginRegistry`
instance, called directly — no edits to :mod:`repro.experiments.common`.
A scheme, for example:

1. Write a client class (subclass
   :class:`~repro.apps.client.OpenLoopClient`) in your own module.
   Its ``build_packets`` must depend only on the client RNG and the
   client's static configuration: arrivals are pre-drawn ahead of
   simulated time.  With the C core live the rest of the client's
   request path runs in C, but your ``build_packets`` still runs in
   Python, called once per pre-drawn request under that same contract.
2. Declare and register a spec::

       from repro.experiments.schemes import SCHEMES, SchemeSpec

       @SCHEMES.register
       def _my_scheme() -> SchemeSpec:
           return SchemeSpec(
               name="my-scheme",
               description="shown by `repro-netclone schemes`",
               make_client=lambda ctx, common: MyClient(
                   server_ips=ctx.server_ips, **common
               ),
           )

3. Import the module from your driver script (sweep workers re-import
   it from ``SchemeSpec.module``) and run
   ``run_sweep(ClusterConfig(scheme="my-scheme"), loads)``.

Optional ``SchemeSpec`` hooks add a switch program (``make_program``;
called once per ToR with ``ctx.switch_id`` set to the rack's §3.7
switch ID), a coordinator host (``make_coordinator``),
NetClone-speaking servers (``netclone_mode``) and post-assembly
tweaks (``post_build``).  The test-local schemes in
``tests/test_schemes_executor.py`` are complete examples.

The other axes work the same way:

* ``@TOPOLOGIES.register`` a :class:`TopologySpec` whose
  ``make_fabric(ctx)`` builds a :class:`repro.net.topology.Fabric`;
  knobs arrive in ``ClusterConfig.topology_params``.
* ``@PLACEMENTS.register`` a :class:`PlacementSpec` whose
  ``make_policy(params)`` builds a
  :class:`~repro.core.placement.PlacementPolicy`.
* ``@WORKLOADS.register`` a :class:`WorkloadDef` whose
  ``make_spec(params)`` builds a
  :class:`~repro.experiments.specs.WorkloadSpec`.
* ``@SPINE_POLICIES.register`` a :class:`SpinePolicySpec` whose
  ``make_policy(fabric)`` builds a
  :class:`~repro.net.topology.SpinePolicy`; select it with
  ``--topology spine_leaf:spine_policy=NAME``.

Factories that take params reject unknown keys with
``registry.check_params(params, known, name)`` — a typo must never
silently run the defaults.
"""

from repro.experiments.placements import PLACEMENTS, PlacementSpec
from repro.experiments.registry import EXPERIMENTS, ExperimentSpec
from repro.experiments.schemes import SCHEMES, SchemeSpec
from repro.experiments.topologies import (
    SPINE_POLICIES,
    TOPOLOGIES,
    SpinePolicySpec,
    TopologySpec,
)
from repro.experiments.workloads_registry import WORKLOADS, WorkloadDef

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "PLACEMENTS",
    "PlacementSpec",
    "SCHEMES",
    "SPINE_POLICIES",
    "SchemeSpec",
    "SpinePolicySpec",
    "TOPOLOGIES",
    "TopologySpec",
    "WORKLOADS",
    "WorkloadDef",
]
