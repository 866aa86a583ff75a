"""The engine fast path: ordering, compaction, and seed bit-identity.

The hot-path overhaul split scheduling into two lanes — handle-free
``call_at``/``call_after`` tuples and cancellable ``at``/``schedule``
handles — sharing one sequence counter and one calendar queue.  These
tests pin the contract that makes that safe:

* the two lanes interleave in strict FIFO order at equal timestamps;
* cancellation is lazy but bounded: compaction keeps the queue from
  accumulating dead entries under churn;
* none of it changes simulation results — tiny fig08-star and
  fig18-one-rack runs stay bit-identical to goldens captured at the
  pre-overhaul revision;
* the packet pool's uid stream and the link serialisation memo are
  deterministic and exact.
"""

from helpers import assert_points_identical, tiny_config

from repro.experiments.common import Cluster, run_point
from repro.net.link import Link
from repro.sim.core import Simulator
from repro.sim.units import ms


# ----------------------------------------------------------------------
# FIFO tie-break across both scheduling lanes
# ----------------------------------------------------------------------
def test_fast_and_cancellable_lanes_interleave_fifo():
    sim = Simulator()
    order = []
    # Alternate lanes at one timestamp: scheduling order must win.
    for i in range(20):
        if i % 2:
            sim.at(100, order.append, i)
        else:
            sim.call_at(100, order.append, i)
    sim.run()
    assert order == list(range(20))


def test_call_after_matches_schedule_at_equal_delay():
    sim = Simulator()
    order = []
    sim.call_after(5, order.append, "fast-0")
    sim.schedule(5, order.append, "slow-1")
    sim.call_after(5, order.append, "fast-2")
    sim.run()
    assert order == ["fast-0", "slow-1", "fast-2"]


def test_fast_lane_out_of_order_times_still_sort():
    sim = Simulator()
    order = []
    # Push against the monotone tail so entries spill into the heap.
    for t in (30, 10, 20, 10, 30, 5):
        sim.call_at(t, order.append, t)
    sim.run()
    assert order == [5, 10, 10, 20, 30, 30]
    assert sim.now == 30


# ----------------------------------------------------------------------
# Lazy deletion stays bounded under cancellation churn
# ----------------------------------------------------------------------
def test_compaction_bounds_cancelled_entries():
    sim = Simulator()
    survivors = []
    handles = [sim.at(1000 + i, survivors.append, i) for i in range(5000)]
    for i, handle in enumerate(handles):
        if i % 10:
            handle.cancel()
    # Compaction triggers whenever cancelled entries reach half the
    # queue; after this much churn the backlog must be a small
    # fraction of the cancellations, not proportional to them.
    pending = len(sim._heap) + len(sim._tail)
    assert pending < 2 * 500 + Simulator.COMPACT_THRESHOLD
    assert sim._cancelled <= pending
    sim.run()
    assert survivors == [i for i in range(5000) if i % 10 == 0]
    assert sim._cancelled == 0
    assert not sim._heap and not sim._tail


def test_cancel_churn_preserves_fast_lane_order():
    sim = Simulator()
    order = []
    for i in range(200):
        handle = sim.at(50, order.append, ("dead", i))
        handle.cancel()
        sim.call_at(50, order.append, ("live", i))
    sim.run()
    assert order == [("live", i) for i in range(200)]


# ----------------------------------------------------------------------
# Seed bit-identity (goldens captured at the pre-overhaul revision)
# ----------------------------------------------------------------------
#: (offered, throughput, p50, p99, p999, mean, samples) per config.
GOLDENS = {
    "fig08_star": (
        196333.33333333334, 195333.33333333334, 31.942, 131.72, 654.085,
        40.074093378607806, 589,
    ),
    "fig18_1rack": (
        203666.66666666666, 206666.66666666666, 25.94, 112.831, 178.187,
        33.548687397708676, 611,
    ),
}

GOLDEN_EXTRA = {
    "fig08_star": {"nc_cloned": 528.0, "nc_filtered": 428.0, "clones_dropped": 100.0},
    "fig18_1rack": {"nc_cloned": 637.0, "nc_filtered": 533.0, "clones_dropped": 104.0},
}


def _golden_config(label):
    if label == "fig08_star":
        return tiny_config(seed=11)
    return tiny_config(
        topology="spine_leaf", topology_params={"racks": 1, "spines": 2}
    )


def test_fig08_star_bit_identical_to_seed():
    point = run_point(_golden_config("fig08_star"))
    got = (
        point.offered_rps, point.throughput_rps, point.p50_us, point.p99_us,
        point.p999_us, point.mean_us, point.samples,
    )
    assert got == GOLDENS["fig08_star"]
    for key, value in GOLDEN_EXTRA["fig08_star"].items():
        assert point.extra[key] == value, key


def test_fig18_one_rack_bit_identical_to_seed():
    point = run_point(_golden_config("fig18_1rack"))
    got = (
        point.offered_rps, point.throughput_rps, point.p50_us, point.p99_us,
        point.p999_us, point.mean_us, point.samples,
    )
    assert got == GOLDENS["fig18_1rack"]
    for key, value in GOLDEN_EXTRA["fig18_1rack"].items():
        assert point.extra[key] == value, key


#: fig18's own 2-rack, 4-spine ECMP grid at scale 0.05, seed 1:
#: (scheme, trunk Gb/s) → (throughput, p50, p99, trunk_util_max,
#: trunk_tx_bytes), at one saturated and one headroom trunk rate.
FIG18_2RACK_GOLDEN = {
    ("baseline", 0.5): (2245600.0, 162.86, 2007.223, 1.2832182857142858, 4235392.0),
    ("baseline", 1.0): (2526400.0, 32.903, 161.919, 0.6417554285714285, 4483328.0),
    ("netclone", 0.5): (2220000.0, 56.631, 2976.067, 1.4886034285714285, 5414600.0),
    ("netclone", 1.0): (2536800.0, 36.316, 158.507, 0.7593691428571429, 5863964.0),
}


def test_fig18_two_rack_spine_trunks_pinned():
    from repro.experiments import fig18_trunk_saturation

    results = fig18_trunk_saturation.collect(
        scale=0.05, seed=1, topology="spine_leaf:spine_policy=ecmp"
    )
    got = {
        (scheme, gbps): (
            point.throughput_rps, point.p50_us, point.p99_us,
            point.extra["trunk_util_max"], point.extra["trunk_tx_bytes"],
        )
        for (scheme, _policy), cells in results.items()
        for gbps, point in cells
    }
    assert got == FIG18_2RACK_GOLDEN


# ----------------------------------------------------------------------
# Packet-pool uid streams are a per-cluster deterministic sequence
# ----------------------------------------------------------------------
def test_identical_runs_produce_identical_uid_streams():
    def run_one():
        cluster = Cluster(tiny_config())
        cluster.start()
        cluster.run()
        pool = cluster.packet_pool
        return cluster.load_point(), (pool._next_uid, pool.allocated, pool.released)

    point_a, uids_a = run_one()
    point_b, uids_b = run_one()
    # Same seed, fresh pool: the uid counter lands on the same value
    # and the free list recycled the same number of lives.
    assert uids_a == uids_b
    assert uids_a[1] < uids_a[0] - 1  # recycling actually happened
    assert_points_identical(point_a, point_b)


# ----------------------------------------------------------------------
# Link serialisation memo: cached == computed, invalidated on retune
# ----------------------------------------------------------------------
class _Sink:
    """Bare link endpoint (generic deliver path)."""

    name = "sink"

    def deliver(self, packet, from_a):
        pass


def test_serialization_memo_matches_direct_computation():
    sim = Simulator()
    # The fig18 grid's line rates (trunks) plus the edge default, over
    # the packet sizes the workloads actually emit.
    for gbps in (0.5, 0.7, 1.0, 2.0, 100.0):
        link = Link(sim, _Sink(), _Sink(), bandwidth_bps=gbps * 1e9)
        for size in (64, 128, 256, 1024, 1500):
            direct = int(round(size * 8 / (gbps * 1e9) * 1e9))
            assert link.serialization_ns(size) == direct
            # Second call is the cached path; must be byte-identical.
            assert link.serialization_ns(size) == direct
            assert link._ser_ns[size] == direct


def test_serialization_memo_invalidated_by_bandwidth_change():
    sim = Simulator()
    link = Link(sim, _Sink(), _Sink(), bandwidth_bps=1e9)
    before = link.serialization_ns(1500)
    link.bandwidth_bps = 2e9
    assert not link._ser_ns  # memo dropped with the old line rate
    after = link.serialization_ns(1500)
    assert after == int(round(1500 * 8 / 2e9 * 1e9))
    assert after != before
