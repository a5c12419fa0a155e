"""Pragma edge cases: multi-rule lines, file disables, continuations,
unknown-rule warnings."""

import ast
import textwrap

from repro.analysis.core import create_rules
from repro.analysis.pragmas import PragmaIndex, unknown_pragma_mentions
from repro.analysis.runner import known_rule_names, lint_source


def _index(source):
    source = textwrap.dedent(source)
    return PragmaIndex(source, tree=ast.parse(source))


def _lint(source):
    return lint_source(textwrap.dedent(source), create_rules(), path="m.py")


# ---------------------------------------------------------- multi-rule lines
def test_multi_rule_disable_on_one_line():
    index = _index("""\
        import time
        t = time.time()  # simlint: disable=no-wallclock,no-global-random
        """)
    assert index.is_disabled(2, "no-wallclock")
    assert index.is_disabled(2, "no-global-random")
    assert not index.is_disabled(2, "no-bare-sleep")
    assert not index.is_disabled(1, "no-wallclock")


def test_multi_rule_disable_tolerates_spaces():
    index = _index("x = 1  # simlint: disable=rule-a, rule-b ,rule-c\n")
    for rule in ("rule-a", "rule-b", "rule-c"):
        assert index.is_disabled(1, rule)


# ---------------------------------------------------------- file-level disable
def test_file_level_disable_covers_every_line():
    index = _index("""\
        # simlint: disable-file=no-wallclock
        import time

        def f():
            return time.time()
        """)
    assert index.file_disables("no-wallclock")
    for line in (1, 2, 5):
        assert index.is_disabled(line, "no-wallclock")
    assert not index.is_disabled(5, "no-bare-sleep")


def test_file_level_disable_silences_lint_findings():
    violations = _lint("""\
        # simlint: disable-file=no-wallclock
        import time

        def f():
            return time.time()
        """)
    assert [v for v in violations if v.rule == "no-wallclock"] == []


# ------------------------------------------------------------- continuations
def test_pragma_on_continuation_line_covers_whole_statement():
    source = """\
        import time
        t = (time.time()
             + 1)  # simlint: disable=no-wallclock
        """
    index = _index(source)
    # The call is on line 2; the pragma sits on line 3 of the same
    # statement and must still suppress it.
    assert index.is_disabled(2, "no-wallclock")
    assert index.is_disabled(3, "no-wallclock")
    violations = _lint(source)
    assert [v for v in violations if v.rule == "no-wallclock"] == []


def test_continuation_expansion_stops_at_statement_boundary():
    index = _index("""\
        import time
        t = (time.time()
             + 1)  # simlint: disable=no-wallclock
        u = time.time()
        """)
    assert index.is_disabled(2, "no-wallclock")
    assert not index.is_disabled(4, "no-wallclock")


def test_pragma_inside_compound_block_does_not_silence_block():
    # A pragma on a simple statement inside an `if` suppresses only that
    # statement, never the enclosing block.
    index = _index("""\
        import time
        if True:
            a = time.time()  # simlint: disable=no-wallclock
            b = time.time()
        """)
    assert index.is_disabled(3, "no-wallclock")
    assert not index.is_disabled(4, "no-wallclock")


def test_pragma_without_tree_falls_back_to_single_line():
    source = textwrap.dedent("""\
        t = (1
             + 2)  # simlint: disable=rule-x
        """)
    index = PragmaIndex(source)  # no AST: continuation expansion off
    assert index.is_disabled(2, "rule-x")
    assert not index.is_disabled(1, "rule-x")


# ------------------------------------------------------------- unknown rules
def test_unknown_rule_pragma_reported():
    index = _index("x = 1  # simlint: disable=no-such-rule\n")
    unknown = unknown_pragma_mentions(index, {"no-wallclock"})
    assert unknown == [(1, "no-such-rule")]


def test_unknown_pragma_surfaces_as_warning_finding():
    violations = _lint("x = 1  # simlint: disable=definitely-not-a-rule\n")
    warnings = [v for v in violations if v.rule == "unknown-pragma"]
    assert len(warnings) == 1
    assert warnings[0].line == 1
    assert "definitely-not-a-rule" in warnings[0].message


def test_known_rules_do_not_warn():
    known = known_rule_names()
    assert "no-wallclock" in known
    assert "taint-wallclock" in known  # whole-program family included
    violations = _lint("x = 1  # simlint: disable=no-wallclock\n")
    assert [v for v in violations if v.rule == "unknown-pragma"] == []


def test_unknown_pragma_in_file_disable_reported():
    index = _index("# simlint: disable-file=bogus-rule\n")
    unknown = unknown_pragma_mentions(index, {"no-wallclock"})
    assert (1, "bogus-rule") in unknown
