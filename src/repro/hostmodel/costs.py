"""The calibrated cost model: CPU cycles for every copy and crossing.

This is the **single place** where the simulation's physical constants live.
Values are chosen to be plausible for the paper's testbed (3.2 GHz Xeon
quad-core, SSD, 10 GbE RoCE, KVM with vhost-net) and were calibrated so the
*shapes* of the paper's results hold: who wins, by roughly what factor, and
where the crossovers fall.  See EXPERIMENTS.md for paper-vs-measured.

Cost vocabulary
---------------
* ``*_per_byte`` — cycles burned per byte moved (memcpy-like costs).
* ``*_per_request`` / ``*_per_segment`` — fixed cycles per operation
  (virtqueue kicks, syscall entry, interrupt delivery, protocol headers).
* Device times (SSD service, link transmission) are in seconds and do not
  scale with CPU frequency.

The vanilla inter-VM HDFS read path charges, per chunk (paper Fig 1):

1. virtio-blk: host page cache -> guest memory   (qemu I/O thread)
2. guest kernel buffer -> datanode process       (datanode vCPU)
3. datanode process -> socket (TCP tx)           (datanode vCPU)
4. inter-VM skb copy                             (vhost-net thread)
5. client kernel buffer -> client application    (client vCPU)

The vRead path charges only (paper Fig 4):

1. host page cache -> shared ring                (vRead daemon)
2. shared ring -> client application             (client vCPU, libvread)
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CostModel:
    """Cycle and device-time constants used by every component."""

    # ------------------------------------------------------------ raw copies
    #: Plain memcpy between buffers in the same address space.
    memcpy_cycles_per_byte: float = 0.40
    #: Copy between guest kernel page cache and a guest user buffer.
    guest_user_copy_cycles_per_byte: float = 0.35

    # ------------------------------------------------------------- syscalls
    #: Guest syscall entry/exit (read/write on a file or socket).
    syscall_cycles: float = 4_000.0
    #: Host-side user<->kernel switch (the vRead TCP daemon pays these).
    host_syscall_cycles: float = 5_000.0

    # ------------------------------------------------------------ virtio-blk
    #: Guest block-layer CPU per byte actually read from the virtual device
    #: (bio handling, readahead, completion processing).  Charged as the
    #: "disk read" category on the issuing vCPU, cold reads only.
    guest_block_layer_cycles_per_byte: float = 0.10
    #: Fixed cost per virtio-blk request (vmexit, virtqueue kick, completion).
    virtio_blk_request_cycles: float = 30_000.0
    #: Per-byte copy host page cache -> guest memory through the virtqueue.
    virtio_blk_copy_cycles_per_byte: float = 0.50
    #: Virtual interrupt delivery into the guest on completion.
    virq_cycles: float = 6_000.0

    # ------------------------------------------------------------ virtio-net
    #: Guest-side TCP transmit processing per TSO segment (up to 64KB).
    tcp_tx_segment_cycles: float = 9_000.0
    #: Guest-side TCP receive processing per segment.
    tcp_rx_segment_cycles: float = 11_000.0
    #: Per-byte cost of app buffer <-> skb copies inside a guest.
    tcp_copy_cycles_per_byte: float = 0.40
    #: TSO/GRO segment size used for per-segment accounting.
    tso_segment_bytes: int = 65_536
    #: vhost-net fixed work per segment (kick handling, descriptor walk).
    vhost_segment_cycles: float = 12_000.0
    #: vhost-net per-byte inter-VM (or VM<->NIC) copy.
    vhost_copy_cycles_per_byte: float = 0.50
    #: HDFS datanode/client checksum verification per byte (CRC32 of the
    #: 64KB packet stream -- part of the vanilla read path, skipped by vRead
    #: because it reads the block file directly).
    hdfs_checksum_cycles_per_byte: float = 0.25

    # ----------------------------------------------------------- host network
    #: Host kernel network stack per segment (physical NIC path).
    host_net_segment_cycles: float = 8_000.0
    #: Host kernel per-byte copy to/from NIC ring (with large segments).
    host_net_copy_cycles_per_byte: float = 0.25

    # ----------------------------------------------------------------- RDMA
    #: Posting a work request / reaping a completion (QP + CQ handling).
    rdma_work_request_cycles: float = 2_000.0
    #: CPU per byte for RDMA -- near zero (NIC does the DMA; small cost for
    #: scatter-gather list setup on the pushing side).
    rdma_copy_cycles_per_byte: float = 0.06
    #: One-time memory-region registration per buffer.
    rdma_mr_registration_cycles: float = 15_000.0

    # ---------------------------------------------------------------- vRead
    #: Daemon fixed work per ring-slot request (dequeue, hash lookup).
    vread_request_cycles: float = 10_000.0
    #: Daemon copy: host page cache -> shared ring buffer.
    vread_copy_cycles_per_byte: float = 0.55
    #: libvread guest copy: shared ring -> application buffer.
    vread_guest_copy_cycles_per_byte: float = 0.50
    #: eventfd signal (each direction).
    eventfd_cycles: float = 2_500.0
    #: libvread call overhead, including the JNI crossing from HDFS's Java
    #: code into the C library (paper Section 4).
    vread_jni_call_cycles: float = 12_000.0
    #: Reading through the host FS mount of a datanode image (dentry/inode
    #: walk + loop device layer), per request.
    loop_device_request_cycles: float = 9_000.0
    #: Host filesystem + loop layer CPU per byte faulted from the SSD on the
    #: daemon's behalf (cold reads through the mount only).
    host_fs_read_cycles_per_byte: float = 0.08
    #: Refreshing the mount point dentry/inode cache after a new block
    #: (vRead_update); charged on the daemon.
    mount_refresh_cycles: float = 120_000.0
    #: Per-read guest->host->physical address translation when bypassing the
    #: host file system (the Section 6 "direct read" ablation mode).
    address_translation_cycles: float = 25_000.0
    #: User-space daemon TCP ("vRead-net", the paper's footnote-2 fallback):
    #: per-byte CPU on the sending and receiving daemon.  Deliberately
    #: *less* efficient per byte than in-kernel vhost-net — the paper's
    #: stated reason for preferring RDMA (Fig 8).
    vread_tcp_tx_cycles_per_byte: float = 1.0
    vread_tcp_rx_cycles_per_byte: float = 0.45

    # ------------------------------------------------------------ scheduling
    #: Context switch cost charged when a thread is dispatched onto a core.
    context_switch_cycles: float = 8_000.0
    #: Scheduler time slice in seconds (CFS-ish granularity).
    time_slice_seconds: float = 0.001
    #: CFS wake-affinity stacking: under load a woken thread sometimes lands
    #: on a busy core's runqueue (select_idle_sibling miss / wake_affine)
    #: and waits one wakeup-preemption granularity before it runs.  The
    #: probability is (busy_cores / cores) ** wakeup_stacking_exponent.
    #: This is the "synchronization delay of VMs and I/O threads" behind the
    #: paper's Figure 3 and every 4-VM scenario.
    wakeup_stacking_delay_seconds: float = 25e-6
    wakeup_stacking_exponent: float = 2.0

    # ---------------------------------------------------------------- devices
    #: SSD sequential read bandwidth (bytes/second).
    ssd_bandwidth_bytes_per_sec: float = 500e6
    #: SSD per-request service latency (seconds).
    ssd_request_latency: float = 60e-6
    #: Physical NIC line rate (bytes/second), 10 GbE.
    nic_bandwidth_bytes_per_sec: float = 1.25e9
    #: One-way LAN propagation + switching latency (seconds).
    lan_latency: float = 30e-6

    # --------------------------------------------------------------- helpers
    def segments(self, nbytes: int) -> int:
        """Number of TSO segments needed to move ``nbytes``."""
        if nbytes <= 0:
            return 0
        return -(-nbytes // self.tso_segment_bytes)

    def with_overrides(self, **overrides) -> "CostModel":
        """A copy of this model with some constants replaced."""
        return replace(self, **overrides)


#: The default, calibrated cost model used by all experiments.
DEFAULT_COSTS = CostModel()
