"""Paper-reported values: the only home of the paper's numbers.

Numbers read off the paper's text and charts (chart values are approximate
eyeball readings; text values are exact).  The experiments' claims
(:mod:`repro.experiments.claims`) and the Table 2/3 renderers read them,
to print the paper's value next to the reproduced one; the claims check
the *shape* of reproduced results (who wins and by roughly what factor),
never the paper's exact value.
"""

# ----------------------------------------------------------------- headline
#: "Hadoop's throughput can be improved by up to 60% for read and 150% for
#: re-read" (abstract / Section 1).
MAX_REREAD_IMPROVEMENT_PCT = 150.0

# -------------------------------------------------------------------- Fig 3
#: "the TCP transaction rate drops by 20%" with 2 extra lookbusy VMs.
FIG3_RATE_DROP_PCT = 20.0

# ----------------------------------------------------------------- Figs 6-8
#: "we save around 40% of the CPU cycles on the client side and around 65%
#: on the datanode side" (co-located).
FIG6_CLIENT_CPU_SAVING_PCT = 40.0
FIG6_DATANODE_CPU_SAVING_PCT = 65.0
#: "around 45% ... on client side and more than 50% on datanode side"
#: (remote read with RDMA).
FIG7_CLIENT_CPU_SAVING_PCT = 45.0
FIG7_DATANODE_CPU_SAVING_PCT = 50.0

# -------------------------------------------------------------------- Fig 9
#: "vRead can reduce the data access delay of the co-located HDFS reads by
#: up to 40% for the 2 VMs scenario and up to 50% for the 4 VMs scenario".
FIG9_DELAY_REDUCTION_2VMS_PCT = 40.0
FIG9_DELAY_REDUCTION_4VMS_PCT = 50.0

# ------------------------------------------------------------------- Fig 11
#: "around 20% throughput improvement ... on powerful processors (3.2GHz)";
#: "on the low-power processors (1.6GHz), the throughput improvement
#: increases to around 41%" (2 VMs, co-located read).
FIG11_COLOCATED_READ_IMPROVEMENT_3_2GHZ_PCT = 20.0
FIG11_COLOCATED_READ_IMPROVEMENT_1_6GHZ_PCT = 41.0
#: "the vanilla case's throughput drops by up to 22% for the 4 VMs scenario"
FIG11_VANILLA_4VMS_DROP_PCT = 22.0

# ------------------------------------------------------------------- Table 2
TABLE2_HBASE = {
    # operation: (vanilla MB/s, vRead MB/s, % improvement)
    "scan": (6.26, 7.97, 27.3),
    "sequential-read": (3.01, 3.72, 23.6),
    "random-read": (2.48, 2.91, 17.3),
}

# ------------------------------------------------------------------- Table 3
#: (vanilla seconds, vRead seconds, % reduction)
TABLE3_HIVE_SELECT = (17.945, 14.117, 21.3)
TABLE3_SQOOP_EXPORT = (385.136, 342.508, 11.3)
