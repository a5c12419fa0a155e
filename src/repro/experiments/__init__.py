"""Experiment drivers: one module per table/figure in the paper.

Every module exposes ``run(...)`` returning a structured result with a
``render()`` method that prints the same rows/series the paper reports, and
a ``main()`` so it can be run directly::

    python -m repro.experiments.fig09_vread_delay

Modules (see DESIGN.md section 3 for the full index):

========  ====================================================
fig02     HDFS-in-VM vs local-FS read delay (motivation)
fig03     netperf TCP_RR under I/O-thread contention
fig06     CPU breakdown, co-located read
fig07     CPU breakdown, remote read, RDMA daemons
fig08     CPU breakdown, remote read, TCP daemons
fig09     data access delay, vanilla vs vRead, 2/4 VMs
fig11     TestDFSIO throughput (6 panels x 3 frequencies)
fig12     TestDFSIO CPU running time (same panels)
fig13     TestDFSIO-write throughput (vRead_update overhead)
table2    HBase scan / sequential read / random read
table3    Hive query + Sqoop export
========  ====================================================
"""

from repro.experiments.common import (
    BreakdownViews,
    FigureResult,
)

__all__ = [
    "BreakdownViews",
    "FigureResult",
]
