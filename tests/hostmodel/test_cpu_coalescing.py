"""Unit tests for the coalesced-burst scheduler fast path.

The exhaustive cross-checking against the per-slice reference lives in
``tests/properties/test_slice_equivalence.py``; these tests pin the
individual mechanisms — whole-burst timers, contender demotion, the
accounting settle hook, mutex/core ceremony elision, and the sanitize-mode
routing back to the reference loop.  The contended-round cases at the end oversubscribe the cores for whole runs
and require exact equality with the reference, which each builds with
``sanitize=True`` (the one switch that selects it) and checks is armed.
"""

import pytest

from repro.cluster import VirtualHadoopCluster, rack_cluster
from repro.cluster.topology import VmSpec
from repro.hostmodel.costs import CostModel
from repro.hostmodel.cpu import CpuScheduler, epoch_stats, reset_epoch_stats
from repro.metrics.accounting import CpuAccounting, OTHERS
from repro.sim import AllOf, Interrupt, Simulator
from repro.storage.content import PatternSource

ZERO_SWITCH = CostModel().with_overrides(context_switch_cycles=0.0,
                                         wakeup_stacking_delay_seconds=0.0)
SHORT_SLICES = ZERO_SWITCH.with_overrides(time_slice_seconds=1e-4)


def make_sched(cores=1, freq=1e9, costs=SHORT_SLICES, sanitize=False):
    sim = Simulator(sanitize=sanitize)
    acct = CpuAccounting()
    sched = CpuScheduler(sim, cores, freq, acct, costs)
    return sim, sched, acct


def test_uncontended_burst_runs_as_one_timer():
    sim, sched, acct = make_sched(freq=1e9)
    thread = sched.thread("t")
    # 1M cycles @ 1GHz with 100us slices = 10 slices; coalesced, the
    # whole burst is at most a handful of kernel events instead of ~10.
    def proc():
        yield from thread.run(1_000_000, "work")

    sim.run_until_complete(sim.process(proc()))
    assert sim.now == pytest.approx(1e-3)
    assert acct.by_category()["work"] == pytest.approx(1e-3)
    assert sim.events_processed < 8


def test_sanitize_mode_routes_to_reference_loop():
    sim, sched, acct = make_sched(freq=1e9, sanitize=True)
    thread = sched.thread("t")

    def proc():
        yield from thread.run(1_000_000, "work")

    sim.run_until_complete(sim.process(proc()))
    assert sim.now == pytest.approx(1e-3)
    assert sim.events_processed >= 10  # slice-granular under the sanitizer
    assert sched._inflight == []


def test_mid_burst_accounting_read_settles_elapsed_boundaries():
    sim, sched, acct = make_sched(freq=1e9)
    thread = sched.thread("t")
    readings = []

    def worker():
        yield from thread.run(1_000_000, "work")  # 1ms

    def probe():
        yield sim.timeout(0.00035)
        readings.append(acct.total())

    sim.process(worker())
    sim.process(probe())
    sim.run()
    # At t=0.35ms three 100us slice boundaries have elapsed: the lazy burst
    # must settle exactly those, not zero and not the whole 1ms.
    assert readings == [pytest.approx(3e-4)]
    assert acct.total() == pytest.approx(1e-3)


def test_contender_arrival_demotes_to_round_robin():
    sim, sched, acct = make_sched(cores=1, freq=1e9)
    order = []

    def worker(name, delay, cycles):
        thread = sched.thread(name)
        yield sim.timeout(delay)
        yield from thread.run(cycles, "work")
        order.append((name, sim.now))

    sim.process(worker("early", 0.0, 1_000_000))
    sim.process(worker("late", 0.00025, 300_000))
    sim.run()
    # The late arrival lands mid-burst; round-robin then interleaves the
    # two, so the short burst finishes well before the long one.
    assert [name for name, _ in sorted(order, key=lambda pair: pair[1])] \
        == ["late", "early"]
    assert acct.by_thread()["early"] == pytest.approx(1e-3)
    assert acct.by_thread()["late"] == pytest.approx(3e-4)


def test_interrupt_mid_burst_charges_elapsed_time_only():
    sim, sched, acct = make_sched(freq=1e9)
    thread = sched.thread("t")
    caught = []

    def worker():
        try:
            yield from thread.run(1_000_000, "work")
        except Interrupt:
            caught.append(sim.now)

    victim = sim.process(worker())

    def sniper():
        yield sim.timeout(0.00042)
        victim.interrupt("test")

    sim.process(sniper())
    sim.run()
    assert caught == [pytest.approx(0.00042)]
    # Only boundaries that elapsed before the interrupt are charged — the
    # reference loop would have charged exactly the four whole slices.
    assert acct.total() == pytest.approx(4e-4)
    assert sched._inflight == []


def test_context_switch_cost_still_charged_to_others():
    costs = CostModel().with_overrides(context_switch_cycles=1e6,
                                       wakeup_stacking_delay_seconds=0.0)
    sim, sched, acct = make_sched(freq=1e9, costs=costs)
    thread = sched.thread("t")

    def proc():
        yield from thread.run(500_000, "work")

    sim.run_until_complete(sim.process(proc()))
    assert acct.by_category()[OTHERS] == pytest.approx(1e-3)
    assert acct.by_category()["work"] == pytest.approx(5e-4)


def test_mutex_released_after_elided_ceremony():
    sim, sched, _ = make_sched()
    thread = sched.thread("t")

    def proc(tag):
        yield from thread.run(1000, "work")

    # Two sequential bursts on the same thread: the second can only acquire
    # the per-thread mutex if the elided first acquisition was released.
    def both():
        yield from thread.run(1000, "work")
        yield from thread.run(1000, "work")

    sim.run_until_complete(sim.process(both()))
    assert not thread._mutex._resource._users
    assert sched._free_cores == sched.cores


def test_fast_and_legacy_agree_on_contended_schedule():
    def run(reference):
        sim, sched, acct = make_sched(cores=2, freq=1e9, sanitize=reference)
        assert (sim.sanitizer is not None) == reference
        finish = []

        def worker(name, delay, cycles):
            thread = sched.thread(name)
            yield sim.timeout(delay)
            yield from thread.run(cycles, "work")
            finish.append((name, sim.now))

        for i in range(4):
            sim.process(worker(f"t{i}", i * 1e-4, 350_000 + i * 7))
        sim.run()
        return sim.now, sorted(finish), sorted(acct.snapshot().items())

    assert run(False) == run(True)


# ------------------------------------------------------ contended rounds
# Real switch costs so 'others' charges discriminate schedules; no wake
# stacking so the contended rotation is deterministic across modes.
COSTS = CostModel().with_overrides(wakeup_stacking_delay_seconds=0.0)


def run_batch(fast, n=8, cycles=48e6, cores=4, probe_at=None,
              frequency_hz=3.2e9, interrupt_at=None):
    """n staggered CPU hogs on ``cores`` cores; returns full observables."""
    sim = Simulator(sanitize=not fast)
    assert (sim.sanitizer is None) == fast
    acct = CpuAccounting()
    sched = CpuScheduler(sim, cores, frequency_hz, acct, COSTS)
    finish, probes, caught = [], [], []
    victims = []

    def worker(i):
        thread = sched.thread(f"t{i}")
        yield sim.timeout(i * 1e-5)
        try:
            yield from thread.run(cycles + i * 1000, "work")
        except Interrupt:
            caught.append((f"t{i}", sim.now))
            return
        finish.append((f"t{i}", sim.now))

    for i in range(n):
        victims.append(sim.process(worker(i)))
    if probe_at is not None:
        def prober():
            yield sim.timeout(probe_at)
            probes.append(sorted(acct.snapshot().items()))
        sim.process(prober())
    if interrupt_at is not None:
        def sniper():
            at, idx = interrupt_at
            yield sim.timeout(at)
            victims[idx].interrupt("contended round")
        sim.process(sniper())
    sim.run()
    return (sim.now, sorted(finish), sorted(caught), probes,
            sorted(acct.snapshot().items()))


def test_contended_batch_fast_equals_reference():
    fast = run_batch(fast=True)
    assert fast == run_batch(fast=False)
    assert len(fast[1]) == 8


def test_contended_batch_mid_round_probes_match_reference():
    # Each probe lands while all eight hogs round-robin on four cores: the
    # settle hook must fold exactly the reference's per-slice charges.
    for probe_at in (0.0045, 0.006, 0.0101):
        fast = run_batch(fast=True, probe_at=probe_at)
        assert fast == run_batch(fast=False, probe_at=probe_at)
        assert fast[3] and fast[3][0]


def test_contended_batch_at_1_6ghz_matches_reference():
    fast = run_batch(fast=True, frequency_hz=1.6e9)
    assert fast == run_batch(fast=False, frequency_hz=1.6e9)
    assert len(fast[1]) == 8


def test_contended_batch_interrupt_matches_reference():
    for at, idx in ((0.0047, 2), (0.0071, 6)):
        fast = run_batch(fast=True, interrupt_at=(at, idx))
        assert fast == run_batch(fast=False, interrupt_at=(at, idx))
        assert fast[2] == [(f"t{idx}", pytest.approx(at))]


def test_periodic_hogs_with_probes_match_reference():
    # lookbusy-style duty cycles: run/sleep loops that repeatedly form and
    # drain the contended round, observed by a mid-flight prober.
    def run(fast):
        sim = Simulator(sanitize=not fast)
        assert (sim.sanitizer is None) == fast
        acct = CpuAccounting()
        sched = CpuScheduler(sim, 2, 3.2e9, acct, COSTS)
        probes = []

        def hog(i):
            thread = sched.thread(f"hog{i}")
            for _ in range(12):
                yield from thread.run(27.2e6 + i * 640, "spin")
                yield sim.timeout(0.0015)

        for i in range(4):
            sim.process(hog(i))

        def prober():
            while sim.now < 0.05:
                yield sim.timeout(0.0031)
                probes.append(sorted(acct.snapshot().items()))

        sim.process(prober())
        sim.run()
        return sim.now, probes, sorted(acct.snapshot().items())

    assert run(True) == run(False)


def _contended_rack_point(fast, horizon=0.5, hogs_per_host=6):
    """Checksum-verified reads on a rack whose hosts are oversubscribed by
    lookbusy VMs, then run to a fixed horizon: the final clock, the
    verdicts, every host's accounting and its core waiters at the end."""
    topology = rack_cluster(1, 2, clients=2)
    for rack in topology.racks:
        for host in rack.hosts:
            for j in range(hogs_per_host):
                host.add(VmSpec(f"{host.name}-bg{j + 1}", "background"))
    with pytest.MonkeyPatch.context() as patch:
        # The cluster builds its own simulator, which reads the switch.
        patch.setenv("REPRO_SANITIZE", "0" if fast else "1")
        cluster = VirtualHadoopCluster(block_size=1 << 20, replication=2,
                                       vread=True, topology=topology)
    sim = cluster.sim
    assert (sim.sanitizer is None) == fast
    payloads = [PatternSource(1 << 20, seed=80 + i)
                for i in range(len(cluster.client_vms))]

    def load():
        for i, payload in enumerate(payloads):
            yield from cluster.write_dataset(f"/racks/f{i}", payload)

    cluster.run(sim.process(load()))
    # No settle(): the lookbusy hogs never quiesce.
    clients = [cluster.clients.get(vm=vm) for vm in cluster.client_vms]
    verdicts = []

    def reader(client, index):
        source = yield from client.read_file(f"/racks/f{index}", 1 << 20)
        verdicts.append(source.checksum() == payloads[index].checksum())

    def job():
        yield AllOf(sim, [sim.process(reader(client, i))
                          for i, client in enumerate(clients)])

    cluster.run(sim.process(job()))
    sim.run(until=sim.now + horizon)
    waiting = {host.name: host.scheduler.runnable_waiting
               for host in cluster.hosts}
    for hog in cluster.lookbusy:
        hog.stop()
    return (sim.now, verdicts, waiting,
            {host.name: sorted(host.accounting.snapshot().items())
             for host in cluster.hosts})


def test_contended_rack_point_fast_equals_reference():
    fast = _contended_rack_point(fast=True)
    assert fast == _contended_rack_point(fast=False)
    assert fast[1] == [True, True]
    assert any(fast[2].values())  # cores really oversubscribed


def test_epoch_stats_stub_reads_zero():
    # The epoch counters outlive their engine only for the benchmark
    # harness: fixed keys, always zero, reset is a no-op.
    reset_epoch_stats()
    run_batch(fast=True)
    assert epoch_stats() == {"epochs_formed": 0, "epochs_completed": 0,
                             "epochs_demoted": 0, "epochs_rejected": 0,
                             "epoch_records": 0}
