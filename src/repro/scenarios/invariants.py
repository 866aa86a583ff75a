"""Reusable invariant checks for chaos scenarios.

Every invariant is a pure function over the *report data* a scenario
run produced — the checkpoint snapshots, the post-drain final
snapshot, and the run metadata — never over live simulation objects.
That buys three things: invariants evaluate identically in worker
processes (the sweep bridge ships reports, not clusters), a pinned
golden report can be re-checked offline, and tests can seed a
violation by editing one number in a real report and assert the exact
message that fires.

The library (see :data:`INVARIANTS`):

``no-duplicate-deliveries``   in-network response filtering held: no
                              client ever saw a second response for a
                              completed request (schemes with filtering)
``no-stuck-requests``         the event queue drained, every server
                              queue is empty, no worker is busy, and —
                              absent packet drops and shed clones —
                              nothing is still outstanding at a client
``epoch-monotone``            group-table epochs never move backwards,
                              on any ToR or client, and every client
                              ends on its own ToR's epoch
``rack-local-trunks-silent``  under ``rack-local`` placement (with
                              every rack keeping ≥ 2 live servers) the
                              inter-rack trunks carried zero bytes
``fabric-reachability``       after the dust settles every client can
                              reach every live server (links up, ToRs
                              up, a live spine path where needed)
``conservation-of-completions``  per client: sent = completed +
                              outstanding; per server: accepted =
                              answered; globally: completions never
                              exceed server responses

Applicability is derived per scenario (``applies``), so e.g. the
duplicate check silently skips client-side dedup schemes and the
rack-local check skips scenarios that legally fall back to global
pairs.  No spec can switch an applicable invariant off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Tuple

__all__ = [
    "FILTERING_SCHEMES",
    "INVARIANTS",
    "Invariant",
    "InvariantResult",
    "compute_unreachable",
    "evaluate_invariants",
]

#: Schemes whose in-network response filtering guarantees exactly-once
#: delivery to the client (client-side dedup schemes — cclone,
#: netclone-nofilter — legitimately count redundant responses).
FILTERING_SCHEMES = frozenset(
    {"baseline", "netclone", "racksched", "netclone-racksched"}
)


@dataclass
class InvariantResult:
    """Outcome of one invariant over one scenario run."""

    name: str
    applicable: bool
    passed: bool
    violations: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "passed": self.passed,
            "violations": list(self.violations),
        }


@dataclass(frozen=True)
class Invariant:
    """One named check: ``applies`` gates it, ``check`` lists violations."""

    name: str
    description: str
    applies: Callable[["ReportView"], bool]
    check: Callable[["ReportView"], List[str]]


class ReportView:
    """Read-side adapter the invariants evaluate against.

    Wraps the plain-data pieces of a scenario report (checkpoints,
    final snapshot, metadata) with the couple of accessors every
    invariant needs.  Constructed by :func:`evaluate_invariants`; tests
    build one directly from a (possibly tampered) report dict.
    """

    def __init__(
        self,
        scheme: str,
        placement: str,
        checkpoints: List[Mapping[str, Any]],
        final: Mapping[str, Any],
        meta: Mapping[str, Any],
    ):
        self.scheme = scheme
        self.placement = placement
        self.checkpoints = list(checkpoints)
        self.final = final
        self.meta = meta

    @classmethod
    def from_report(cls, report: Any) -> "ReportView":
        return cls(
            scheme=report.scheme,
            placement=report.placement,
            checkpoints=report.checkpoints,
            final=report.final,
            meta=report.meta,
        )

    # -- helpers -------------------------------------------------------
    def series(self) -> List[Mapping[str, Any]]:
        """Checkpoints in time order, final snapshot last."""
        return self.checkpoints + [self.final]

    def stamp(self, snap: Mapping[str, Any]) -> str:
        return f"t={snap['time_ns']}ns ({snap['label']})"


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _applies_always(view: ReportView) -> bool:
    return True


def _check_no_duplicates(view: ReportView) -> List[str]:
    violations = []
    for snap in view.series():
        if snap["redundant"] > 0:
            violations.append(
                f"{snap['redundant']} duplicate deliveries by "
                f"{view.stamp(snap)}: a client received a second response "
                "for an already-completed request despite in-network "
                "filtering"
            )
            break
    return violations


def _check_no_stuck(view: ReportView) -> List[str]:
    violations = []
    if not view.meta.get("drained", True):
        violations.append(
            "event queue never drained after the horizon "
            f"({view.meta.get('drain_events', '?')} post-horizon events ran "
            "without emptying it) — scheduler deadlock or livelock"
        )
    final = view.final
    for sid, depth in enumerate(final["server_queue"]):
        if depth != 0:
            violations.append(
                f"srv{sid + 1} still holds {depth} queued request(s) after "
                "the run drained"
            )
    for sid, busy in enumerate(final["server_busy"]):
        if busy != 0:
            violations.append(
                f"srv{sid + 1} still reports {busy} busy worker(s) after "
                "the run drained"
            )
    # The loss budget: besides link/NIC/powered-off-switch drops, the
    # pipeline itself drops packets whose target server left the
    # address table mid-rebuild (switch_program_drops), and a shed
    # clone both removes one copy of its own request and leaves a stale
    # fingerprint in the approximate response filter that can falsely
    # eat a later request's first response (request ids are
    # pool-recycled, exactly like real NetClone's finite id space).
    # Real deployments absorb all of these via client retransmission,
    # which the simulator deliberately does not model; a lost request
    # with a zero budget is therefore genuinely stuck.
    drops = (
        final["switch_drops_down"]
        + final["link_drops"]
        + final["host_rx_drops"]
        + final["switch_program_drops"]
        + final["clones_dropped"]
    )
    if drops == 0 and final["outstanding"] != 0:
        violations.append(
            f"{final['outstanding']} request(s) never completed although "
            "no packet was dropped and no clone was shed anywhere — they "
            "are stuck, not lost"
        )
    return violations


def _applies_epochs(view: ReportView) -> bool:
    return bool(view.final["program_epochs"])


def _check_epoch_monotone(view: ReportView) -> List[str]:
    violations = []
    series = view.series()
    num_programs = len(view.final["program_epochs"])
    for rack in range(num_programs):
        last = None
        for snap in series:
            epoch = snap["program_epochs"][rack]
            if epoch is None:
                continue
            if last is not None and epoch < last:
                violations.append(
                    f"ToR {rack} group-table epoch went backwards "
                    f"({last} -> {epoch}) by {view.stamp(snap)}"
                )
            last = epoch
    last_handler = None
    for snap in series:
        epoch = snap["handler_epoch"]
        if epoch is None:
            continue
        if last_handler is not None and epoch < last_handler:
            violations.append(
                f"control-plane epoch went backwards ({last_handler} -> "
                f"{epoch}) by {view.stamp(snap)}"
            )
        last_handler = epoch
        for client, cepoch in enumerate(snap["client_epochs"]):
            if cepoch is not None and cepoch > epoch:
                violations.append(
                    f"client{client + 1} carries table epoch {cepoch} ahead "
                    f"of the control plane's {epoch} at {view.stamp(snap)}"
                )
    # After the last rebuild lands, every client must sit on its own
    # ToR's table — a client left on a stale epoch samples dead pairs.
    final = view.final
    if last_handler is not None and last_handler > 0:
        client_racks = view.meta.get("client_racks", ())
        for client, cepoch in enumerate(final["client_epochs"]):
            if cepoch is None:
                continue
            rack = client_racks[client] if client < len(client_racks) else 0
            tor_epoch = final["program_epochs"][rack]
            if tor_epoch is not None and cepoch != tor_epoch:
                violations.append(
                    f"client{client + 1} ended on table epoch {cepoch} but "
                    f"its ToR {rack} is at {tor_epoch} — stale table "
                    "survived the last rebuild"
                )
    return violations


def _applies_rack_local(view: ReportView) -> bool:
    return (
        view.placement == "rack-local"
        and view.meta.get("num_racks", 1) > 1
        and view.meta.get("min_rack_live", 2) >= 2
    )


def _check_rack_local_silent(view: ReportView) -> List[str]:
    for snap in view.series():
        if snap["trunk_tx_bytes"] > 0:
            return [
                f"{snap['trunk_tx_bytes']} bytes crossed the inter-rack "
                f"trunks by {view.stamp(snap)} under rack-local placement "
                "with every rack holding >= 2 live servers — a clone "
                "escaped its rack"
            ]
    return []


def _applies_reachability(view: ReportView) -> bool:
    return "unreachable" in view.final


def _check_reachability(view: ReportView) -> List[str]:
    return [
        f"no path from {pair[0]} to live server {pair[1]}: {pair[2]}"
        for pair in view.final["unreachable"]
    ]


def _check_conservation(view: ReportView) -> List[str]:
    violations = []
    final = view.final
    for client, sent in enumerate(final["client_sent"]):
        completed = final["client_completed"][client]
        outstanding = final["client_outstanding"][client]
        if sent != completed + outstanding:
            violations.append(
                f"client{client + 1} conservation broken: sent {sent} != "
                f"completed {completed} + outstanding {outstanding}"
            )
    for sid, accepted in enumerate(final["server_accepted"]):
        answered = final["server_responses"][sid]
        if accepted != answered:
            violations.append(
                f"srv{sid + 1} accepted {accepted} request(s) but answered "
                f"{answered}"
            )
    total_completed = sum(final["client_completed"]) + final["redundant"]
    total_responses = sum(final["server_responses"])
    if total_completed > total_responses:
        violations.append(
            f"clients saw {total_completed} response(s) (completions + "
            f"duplicates) but servers only sent {total_responses}"
        )
    return violations


INVARIANTS: Dict[str, Invariant] = {
    inv.name: inv
    for inv in (
        Invariant(
            "no-duplicate-deliveries",
            "in-network filtering delivered every response exactly once",
            applies=lambda v: v.scheme in FILTERING_SCHEMES,
            check=_check_no_duplicates,
        ),
        Invariant(
            "no-stuck-requests",
            "queues drained, workers idle, nothing outstanding sans drops",
            applies=_applies_always,
            check=_check_no_stuck,
        ),
        Invariant(
            "epoch-monotone",
            "group-table epochs only move forward, clients end current",
            applies=_applies_epochs,
            check=_check_epoch_monotone,
        ),
        Invariant(
            "rack-local-trunks-silent",
            "rack-local placement kept every clone off the trunks",
            applies=_applies_rack_local,
            check=_check_rack_local_silent,
        ),
        Invariant(
            "fabric-reachability",
            "every client can reach every live server after recovery",
            applies=_applies_reachability,
            check=_check_reachability,
        ),
        Invariant(
            "conservation-of-completions",
            "sent = completed + outstanding; accepted = answered",
            applies=_applies_always,
            check=_check_conservation,
        ),
    )
}


def evaluate_invariants(view: ReportView) -> List[InvariantResult]:
    """Run every registered invariant against *view*.

    Inapplicable invariants report ``applicable=False`` and pass
    vacuously, so a report always carries one result per library
    entry — the sweep bridge can pivot on names without existence
    checks.
    """
    results = []
    for invariant in INVARIANTS.values():
        if not invariant.applies(view):
            results.append(InvariantResult(invariant.name, False, True))
            continue
        violations = invariant.check(view)
        results.append(
            InvariantResult(invariant.name, True, not violations, violations)
        )
    return results


# ----------------------------------------------------------------------
# Structural reachability (computed by the runner into the final
# snapshot; checked data-side by ``fabric-reachability``).
# ----------------------------------------------------------------------
def compute_unreachable(cluster: Any, live_ids: List[int]) -> List[List[str]]:
    """Client → live-server pairs with no working path, with reasons.

    A structural walk of the fabric (no probe traffic): both access
    links must be up, both ToRs forwarding, and a cross-rack pair needs
    a live path between the racks — an up trunk on two-rack fabrics, at
    least one active *and* powered spine on spine-leaf.  Runs after the
    drain, when every restore has landed, so any hole is a real one.
    """
    fabric = cluster.topology
    problems: List[List[str]] = []
    spine_path_ok, spine_reason = _spine_path(fabric)
    for client in cluster.clients:
        client_rack = _rack_of(cluster, "client", client.client_id)
        client_link = fabric.link_of(client)
        for sid in live_ids:
            server = cluster.servers[sid]
            reason = None
            server_rack = cluster.server_racks[sid]
            if getattr(client_link, "down", False):
                reason = f"{client.name}'s access link is down"
            elif getattr(fabric.link_of(server), "down", False):
                reason = f"{server.name}'s access link is down"
            elif getattr(fabric.tors[client_rack], "down", False):
                reason = f"ToR {client_rack} is powered off"
            elif getattr(fabric.tors[server_rack], "down", False):
                reason = f"ToR {server_rack} is powered off"
            elif client_rack != server_rack:
                trunk_down = _trunk_down(fabric)
                if trunk_down:
                    reason = trunk_down
                elif spine_path_ok is False:
                    reason = spine_reason
            if reason is not None:
                problems.append([client.name, server.name, reason])
    return problems


def _rack_of(cluster: Any, role: str, index: int) -> int:
    if role == "client":
        racks = cluster.client_racks
        return racks[index] if index < len(racks) else 0
    return cluster.server_racks[index]


def _spine_path(fabric: Any) -> Tuple[Any, str]:
    """(usable, reason) for the spine layer; usable=None if no spines."""
    spines = getattr(fabric, "spines", None)
    if not spines:
        return None, ""
    active = getattr(fabric, "active_spines", lambda: [])()
    usable = [s for s in active if not getattr(spines[s], "down", False)]
    if usable:
        return True, ""
    return False, (
        f"no usable spine: active={list(active)}, "
        f"powered={[s for s in range(len(spines)) if not spines[s].down]}"
    )


def _trunk_down(fabric: Any) -> str:
    """Non-empty reason when a trunk-style fabric lost its trunk."""
    if getattr(fabric, "spines", None):
        return ""
    trunks = list(getattr(fabric, "trunks", ()))
    if trunks and all(getattr(t, "down", False) for t in trunks):
        return "every inter-rack trunk is down"
    return ""
