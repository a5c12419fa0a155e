"""Network substrate: physical LAN, VM TCP sockets, RDMA over RoCE.

Three layers:

* :class:`~repro.net.lan.Lan` / :class:`~repro.net.lan.HostNic` — the
  physical 10 GbE fabric connecting hosts (bandwidth + switching latency).
* :mod:`repro.net.tcp` — message-oriented TCP sockets between VMs.  A send
  charges the sender vCPU (syscall + per-segment TCP tx + copy), then the
  data crosses either the **intra-host** path (sender VM's vhost-net thread
  performs the inter-VM copy) or the **inter-host** path (vhost-net out,
  host NIC, wire, receiving host's vhost-net in), and finally the receiver
  vCPU pays TCP rx + the kernel-to-application copy.  This is the vanilla
  HDFS data path of the paper's Figure 1.
* :mod:`repro.net.rdma` — queue pairs between *hosts* with NIC-side DMA:
  near-zero CPU per byte, small per-work-request cost.  Used by vRead
  daemons for remote reads (paper Section 3.2), with RoCE semantics (no
  infiniband switch required — the same LAN carries the traffic).
"""

from repro.net.lan import HostNic, Lan
from repro.net.rdma import RdmaLink, RdmaQueuePair
from repro.net.tcp import (
    ConnectionClosed,
    TcpConnection,
    TcpListener,
    VmNetwork,
)

__all__ = [
    "ConnectionClosed",
    "HostNic",
    "Lan",
    "RdmaLink",
    "RdmaQueuePair",
    "TcpConnection",
    "TcpListener",
    "VmNetwork",
]
