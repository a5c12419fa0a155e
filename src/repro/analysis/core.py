"""simlint framework: violations, the rule base class, and the registry.

A *rule* inspects one module's AST and yields :class:`Violation` objects.
Rules register themselves with :func:`register` so the CLI and the test
suite discover them by name; per-line ``# simlint: disable=<rule>`` pragmas
(see :mod:`repro.analysis.pragmas`) suppress individual findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: a rule tripped at a specific source location.

    Whole-program findings additionally carry a ``chain``: the call path
    from the simulation entry point down to the offending call, as
    ``(symbol, path, line)`` hops.  Per-module findings leave it empty.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    chain: Tuple[Tuple[str, str, int], ...] = ()

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"
        if self.chain:
            hops = "\n".join(f"    {symbol} ({path}:{line})"
                             for symbol, path, line in self.chain)
            text += "\n" + hops
        return text


@dataclass
class LintContext:
    """Everything a rule needs to inspect one module."""

    path: str
    source: str
    tree: ast.Module
    #: local alias -> dotted qualified name (built by repro.analysis.imports).
    aliases: Dict[str, str] = field(default_factory=dict)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted qualified name of a Name/Attribute chain, if importable.

        ``time.time`` resolves to ``"time.time"``; ``dt.now`` resolves to
        ``"datetime.datetime.now"`` when ``dt`` aliases that class; a chain
        rooted in a local variable resolves to ``None``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))


class Rule:
    """Base class for simlint rules.

    Subclasses set :attr:`name`/:attr:`description` and implement
    :meth:`check`, yielding violations.  Use :meth:`violation` to stamp
    findings with the rule's name and the node's location.
    """

    name: str = ""
    description: str = ""

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, ctx: LintContext, node: ast.AST,
                  message: str) -> Violation:
        return Violation(path=ctx.path,
                         line=getattr(node, "lineno", 0),
                         col=getattr(node, "col_offset", 0) + 1,
                         rule=self.name, message=message)


#: name -> rule class, populated by the @register decorator.
_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.name:
        raise ValueError(f"rule class {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def registered_rules() -> Dict[str, Type[Rule]]:
    """Snapshot of the registry (name -> class), sorted by name."""
    return dict(sorted(_REGISTRY.items()))


def create_rules(select: Optional[Sequence[str]] = None,
                 disable: Iterable[str] = ()) -> List[Rule]:
    """Instantiate registered rules, honouring ``select``/``disable`` lists."""
    disabled = set(disable)
    unknown = (set(select or ()) | disabled) - set(_REGISTRY)
    if unknown:
        raise KeyError(f"unknown rule(s): {', '.join(sorted(unknown))}")
    names = list(select) if select else sorted(_REGISTRY)
    return [_REGISTRY[name]() for name in names if name not in disabled]
