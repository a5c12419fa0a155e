"""Per-line suppression pragmas.

Syntax (in a comment, anywhere on the offending line)::

    started = time.time()  # simlint: disable=no-wallclock
    x = foo()              # simlint: disable=no-wallclock,resource-leak
    y = bar()              # simlint: disable=all

A file-wide opt-out for one rule goes on its own line::

    # simlint: disable-file=yield-discipline

Pragmas are matched against the line a violation is reported on.  For a
multi-line *simple* statement (a call split over several lines, a long
assignment, ...) the pragma may sit on any physical line of the
statement: when the AST is available the pragma's rules are expanded to
the statement's whole ``lineno..end_lineno`` span.  Compound statements
(``if``/``for``/``with``/``def`` bodies) are *not* expanded — a pragma
inside a block only covers its own line, never the whole block.

Every pragma mention is also recorded with its line so the runner can
warn about pragmas naming rules that do not exist (``unknown-pragma``).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

_PRAGMA = re.compile(r"#\s*simlint:\s*(disable(?:-file)?)\s*=\s*"
                     r"([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)")

#: Statement types a continuation-line pragma is expanded over.  Compound
#: statements are excluded on purpose: their span covers the entire body,
#: and a pragma inside the body must not silence the whole block.
_SIMPLE_STMTS = (ast.Expr, ast.Assign, ast.AugAssign, ast.AnnAssign,
                 ast.Return, ast.Raise, ast.Assert, ast.Delete)


class PragmaIndex:
    """Pre-parsed suppression pragmas for one source file."""

    def __init__(self, source: str, tree: Optional[ast.Module] = None):
        #: line number (1-based) -> set of rule names disabled on that line.
        self._by_line: Dict[int, Set[str]] = {}
        #: rule names disabled for the whole file.
        self._file_wide: Set[str] = set()
        #: every (line, rule) pragma mention, for unknown-rule warnings.
        self.mentions: List[Tuple[int, str]] = []
        for lineno, text in enumerate(source.splitlines(), start=1):
            if "simlint" not in text:
                continue
            for match in _PRAGMA.finditer(text):
                kind, names = match.group(1), match.group(2)
                rules = {name.strip() for name in names.split(",")}
                self.mentions.extend((lineno, rule) for rule in sorted(rules))
                if kind == "disable-file":
                    self._file_wide |= rules
                else:
                    self._by_line.setdefault(lineno, set()).update(rules)
        if tree is not None:
            self._expand_continuations(tree)

    def _expand_continuations(self, tree: ast.Module) -> None:
        """Spread a pragma on a continuation line over its whole statement."""
        spans = [(node.lineno, node.end_lineno)
                 for node in ast.walk(tree)
                 if isinstance(node, _SIMPLE_STMTS)
                 and node.end_lineno is not None
                 and node.end_lineno > node.lineno]
        for line in list(self._by_line):
            best: Optional[Tuple[int, int]] = None
            for start, end in spans:
                if start < line <= end:
                    if best is None or (end - start) < (best[1] - best[0]):
                        best = (start, end)
            if best is None:
                continue
            rules = self._by_line[line]
            for covered in range(best[0], best[1] + 1):
                self._by_line.setdefault(covered, set()).update(rules)

    def is_disabled(self, line: int, rule: str) -> bool:
        """True if ``rule`` is suppressed at ``line``."""
        if rule in self._file_wide or "all" in self._file_wide:
            return True
        rules = self._by_line.get(line)
        return rules is not None and (rule in rules or "all" in rules)

    def file_disables(self, rule: str) -> bool:
        """True if ``rule`` is suppressed for the whole file."""
        return rule in self._file_wide or "all" in self._file_wide


def unknown_pragma_mentions(index: PragmaIndex,
                            known: Iterable[str]) -> List[Tuple[int, str]]:
    """The ``(line, rule)`` mentions naming rules that do not exist."""
    known_set = set(known) | {"all"}
    return [(line, rule) for line, rule in index.mentions
            if rule not in known_set]
