"""Rule ``no-direct-heapq``: keep priority-queue code inside the kernel.

The kernel owns event ordering: :mod:`repro.sim.kernel` keeps the one
event heap and carries the ``(when, seq)`` tie-break that makes runs
reproducible.  A component that reaches for ``heapq`` directly builds a
second ordering path: it bypasses the timer-cancellation bookkeeping
and the kernel counters, and its tie-breaks are whatever tuple shape the
author happened to pick.  Schedule through ``Simulator`` instead.  Code
that needs a heap only for local arithmetic, never for event scheduling,
may annotate the import with a pragma saying so.

Modules under ``sim/`` are exempt: they *are* the kernel.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import Iterator, Sequence

from repro.analysis.core import LintContext, Rule, Violation, register


@register
class NoDirectHeapqRule(Rule):
    name = "no-direct-heapq"
    description = ("bans heapq use outside sim/ — event ordering belongs "
                   "to the kernel (one heap + (when, seq) tie-break); "
                   "schedule through Simulator instead")

    def __init__(self, allow: Sequence[str] = ("*/sim/*", "sim/*")):
        #: Glob patterns of file paths exempt from this rule.  The kernel
        #: package itself is exempt by default.
        self.allow = tuple(allow)

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if any(fnmatch(ctx.path, pattern) for pattern in self.allow):
            return
        # Imports are the chokepoint: heapq cannot be called without one,
        # and flagging only the import lets a single pragma annotate one
        # local use instead of peppering every call site.
        hint = ("event ordering belongs to the kernel; schedule through "
                "Simulator (a heap used only for local arithmetic may "
                f"carry '# simlint: disable={self.name}' on its import)")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".", 1)[0]
                    if root == "heapq":
                        yield self.violation(
                            ctx, node, f"import of heapq: {hint}")
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module \
                        and node.module.split(".", 1)[0] == "heapq":
                    names = ", ".join(alias.name for alias in node.names)
                    yield self.violation(
                        ctx, node, f"import of heapq ({names}): {hint}")
