"""The built-in simlint rule set.

Importing this package registers every rule with the
:mod:`repro.analysis.core` registry.  New rules live in their own module
here, decorated with :func:`repro.analysis.core.register`.
"""

from repro.analysis.core import create_rules
from repro.analysis.rules.heap_use import NoDirectHeapqRule
from repro.analysis.rules.randomness import NoGlobalRandomRule
from repro.analysis.rules.resource_leak import ResourceLeakRule
from repro.analysis.rules.topology_literals import NoTopologyLiteralsRule
from repro.analysis.rules.unused_imports import UnusedImportRule
from repro.analysis.rules.wallclock import NoWallclockRule
from repro.analysis.rules.yields import YieldDisciplineRule

__all__ = [
    "NoDirectHeapqRule",
    "NoGlobalRandomRule",
    "NoTopologyLiteralsRule",
    "NoWallclockRule",
    "ResourceLeakRule",
    "UnusedImportRule",
    "YieldDisciplineRule",
    "default_rules",
]


def default_rules():
    """Fresh instances of every registered rule."""
    return create_rules()
