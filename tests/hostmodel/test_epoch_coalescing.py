"""Equivalence tests for contended-round epoch coalescing.

An *epoch* coalesces a fully-closed contended round — every core running a
coalesced burst, every waiter parked at its rotation re-acquire — into one
horizon timer, replaying the round-robin arithmetic op-for-op against the
reference loop.  These tests force epochs to actually form (sustained CPU
oversubscription) and pin exact equality of accounting snapshots, probe
observations, completion times, and final clock against both the plain
fast path and the ``REPRO_LEGACY_SLICES`` reference — including across
capped tapes, chained epochs, frequency changes, and interrupts.
"""

import pytest

from repro.cluster import VirtualHadoopCluster, rack_cluster
from repro.cluster.topology import VmSpec
from repro.hostmodel.costs import CostModel
from repro.hostmodel.cpu import (CpuScheduler, _Epoch, epoch_coalescing,
                                 epoch_stats, legacy_slices)
from repro.metrics.accounting import CpuAccounting
from repro.sim import AllOf, Interrupt, Simulator
from repro.storage.content import PatternSource

# Real switch costs so 'others' charges discriminate schedules; no wake
# stacking so the contended rotation is deterministic across modes.
COSTS = CostModel().with_overrides(wakeup_stacking_delay_seconds=0.0)


def run_batch(fast, epochs, n=8, cycles=48e6, cores=4, probe_at=None,
              freq_dance=None, interrupt_at=None):
    """n staggered CPU hogs on ``cores`` cores; returns full observables."""
    with legacy_slices(not fast), epoch_coalescing(epochs):
        sim = Simulator()
        acct = CpuAccounting()
        sched = CpuScheduler(sim, cores, 3.2e9, acct, COSTS)
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
        if freq_dance is not None:
            def dancer():
                at, freq = freq_dance
                yield sim.timeout(at)
                sched.set_frequency(freq)
            sim.process(dancer())
        if interrupt_at is not None:
            def sniper():
                at, idx = interrupt_at
                yield sim.timeout(at)
                victims[idx].interrupt("epoch test")
            sim.process(sniper())
        sim.run()
        return (sim.now, sorted(finish), sorted(caught), probes,
                sorted(acct.snapshot().items()))


def test_epochs_form_under_sustained_contention():
    before = epoch_stats()
    run_batch(fast=True, epochs=True)
    after = epoch_stats()
    assert after["epochs_formed"] > before["epochs_formed"]
    assert after["epoch_records"] > before["epoch_records"]


def test_epoch_schedule_equals_fast_and_legacy():
    epoch = run_batch(fast=True, epochs=True)
    fast = run_batch(fast=True, epochs=False)
    legacy = run_batch(fast=False, epochs=False)
    assert epoch == fast
    assert epoch == legacy


def test_mid_epoch_probe_observes_reference_charges():
    # The probe lands while an epoch is in flight: the settle hook must
    # fold the tape exactly as the reference's per-slice commits would.
    for probe_at in (0.0045, 0.006, 0.0101):
        epoch = run_batch(fast=True, epochs=True, probe_at=probe_at)
        fast = run_batch(fast=True, epochs=False, probe_at=probe_at)
        assert epoch == fast


def test_capped_tape_and_chained_epochs_stay_exact(monkeypatch):
    # A tiny record cap forces the tape to close early and a fresh epoch
    # to form at each fire — the chained-reconstruction path.
    monkeypatch.setattr(_Epoch, "RECORDS_CAP", 32)
    epoch = run_batch(fast=True, epochs=True, probe_at=0.006)
    fast = run_batch(fast=True, epochs=False, probe_at=0.006)
    assert epoch == fast


def test_frequency_change_dissolves_epoch_exactly():
    before = epoch_stats()
    epoch = run_batch(fast=True, epochs=True, freq_dance=(0.0043, 2.4e9))
    fast = run_batch(fast=True, epochs=False, freq_dance=(0.0043, 2.4e9))
    legacy = run_batch(fast=False, epochs=False, freq_dance=(0.0043, 2.4e9))
    assert epoch == fast
    assert epoch == legacy
    assert epoch_stats()["epochs_demoted"] > before["epochs_demoted"]


def test_interrupt_mid_epoch_restores_exact_cursor():
    for at, idx in ((0.0047, 2), (0.0071, 6)):
        epoch = run_batch(fast=True, epochs=True, interrupt_at=(at, idx))
        fast = run_batch(fast=True, epochs=False, interrupt_at=(at, idx))
        assert epoch == fast


def test_periodic_hogs_with_probes_stay_exact():
    # lookbusy-style duty cycles: run/sleep loops that repeatedly form and
    # drain the contended round, observed by a mid-flight prober.
    def run(fast, epochs):
        with legacy_slices(not fast), epoch_coalescing(epochs):
            sim = Simulator()
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

    epoch = run(True, True)
    fast = run(True, False)
    legacy = run(False, False)
    assert epoch == fast
    assert epoch == legacy


def test_epoch_toggle_disables_formation():
    with epoch_coalescing(False):
        before = epoch_stats()["epochs_formed"]
        run_batch(fast=True, epochs=True)  # inner context wins: enabled
        assert epoch_stats()["epochs_formed"] > before
        before = epoch_stats()["epochs_formed"]
        run_batch(fast=True, epochs=False)
        assert epoch_stats()["epochs_formed"] == before


def test_epoch_stats_keys_are_stable():
    stats = epoch_stats()
    assert set(stats) == {"epochs_formed", "epochs_completed",
                          "epochs_demoted", "epochs_rejected",
                          "epoch_records"}
    assert all(isinstance(value, int) for value in stats.values())


def _contended_rack_point(epochs, horizon=0.5, hogs_per_host=6):
    """Checksum-verified reads on a rack whose hosts are oversubscribed by
    lookbusy VMs, then run to a fixed horizon: the final clock, the
    verdicts and every host's accounting."""
    with epoch_coalescing(epochs):
        topology = rack_cluster(1, 2, clients=2)
        for rack in topology.racks:
            for host in rack.hosts:
                for j in range(hogs_per_host):
                    host.add(VmSpec(f"{host.name}-bg{j + 1}", "background"))
        cluster = VirtualHadoopCluster(block_size=1 << 20, replication=2,
                                       vread=True, topology=topology)
        sim = cluster.sim
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
        for hog in cluster.lookbusy:
            hog.stop()
        return (sim.now, verdicts,
                {host.name: sorted(host.accounting.snapshot().items())
                 for host in cluster.hosts})


def test_contended_cluster_point_equals_slice_granular_run():
    formed = epoch_stats()["epochs_formed"]
    on = _contended_rack_point(epochs=True)
    assert epoch_stats()["epochs_formed"] > formed  # really contended
    assert on == _contended_rack_point(epochs=False)
    assert on[1] == [True, True]
