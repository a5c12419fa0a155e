"""Pragma suppression, the rule registry, and the CLI's exit codes."""

import textwrap

import pytest

from repro.analysis.cli import main
from repro.analysis.core import create_rules, registered_rules
from repro.analysis.pragmas import PragmaIndex
from repro.analysis.runner import analyze_paths, lint_source
import repro.analysis.rules  # noqa: F401 - registers the built-in rules
from repro.analysis.rules import default_rules

ONE_OF_EACH = textwrap.dedent("""\
    import random
    import time

    def wall():
        return time.time()

    def draw():
        return random.random()

    def bad_yield(sim):
        yield 42

    def leak(sim, res):
        grant = yield res.request()
        yield sim.timeout(1)
    """)


# ------------------------------------------------------------------ pragmas
def test_line_pragma_suppresses_named_rule():
    source = "import time\nx = time.time()  # simlint: disable=no-wallclock\n"
    assert lint_source(source, default_rules()) == []


def test_line_pragma_only_covers_its_line():
    source = ("import time\n"
              "x = time.time()  # simlint: disable=no-wallclock\n"
              "y = time.time()\n")
    violations = lint_source(source, default_rules())
    assert [v.line for v in violations] == [3]


def test_pragma_with_wrong_rule_does_not_suppress():
    source = "import time\nx = time.time()  # simlint: disable=resource-leak\n"
    assert len(lint_source(source, default_rules())) == 1


def test_disable_all_pragma():
    source = "import time\nx = time.time()  # simlint: disable=all\n"
    assert lint_source(source, default_rules()) == []


def test_file_wide_pragma():
    source = ("# simlint: disable-file=no-wallclock\n"
              "import time\n"
              "x = time.time()\n"
              "y = time.time()\n")
    assert lint_source(source, default_rules()) == []


def test_pragma_index_parses_comma_lists():
    index = PragmaIndex("x = 1  # simlint: disable=a, b\n")
    assert index.is_disabled(1, "a")
    assert index.is_disabled(1, "b")
    assert not index.is_disabled(1, "c")
    assert not index.is_disabled(2, "a")


# ----------------------------------------------------------------- registry
def test_all_four_rules_registered():
    assert set(registered_rules()) >= {"no-wallclock", "no-global-random",
                                       "yield-discipline", "resource-leak"}


def test_create_rules_select_and_disable():
    assert [r.name for r in create_rules(select=["no-wallclock"])] == \
        ["no-wallclock"]
    names = [r.name for r in create_rules(disable=["no-wallclock"])]
    assert "no-wallclock" not in names and names
    with pytest.raises(KeyError):
        create_rules(select=["no-such-rule"])


# ---------------------------------------------------------------- fixtures
def test_one_violation_of_each_rule_found():
    violations = lint_source(ONE_OF_EACH, default_rules())
    assert sorted({v.rule for v in violations}) == [
        "no-global-random", "no-wallclock", "resource-leak",
        "yield-discipline"]


def test_syntax_error_reported_as_violation():
    violations = lint_source("def broken(:\n", default_rules())
    assert len(violations) == 1
    assert violations[0].rule == "syntax-error"


# --------------------------------------------------------------------- CLI
def test_cli_exit_zero_on_clean_tree(tmp_path, capsys):
    (tmp_path / "clean.py").write_text(
        "def proc(sim):\n    yield sim.timeout(1)\n")
    assert main([str(tmp_path)]) == 0


def test_cli_exit_one_with_file_line_and_rule(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(ONE_OF_EACH)
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    for rule in ("no-wallclock", "no-global-random", "yield-discipline",
                 "resource-leak"):
        assert rule in out
    assert f"{bad}:5:" in out  # file:line:col prefix


def test_cli_exit_two_on_missing_path(capsys):
    assert main(["definitely/not/a/path.py"]) == 2


def test_cli_exit_two_on_unknown_rule(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    assert main([str(tmp_path), "--select", "bogus"]) == 2


def test_cli_select_restricts_rules(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(ONE_OF_EACH)
    assert main([str(bad), "--select", "no-wallclock"]) == 1
    out = capsys.readouterr().out
    assert "no-wallclock" in out
    assert "resource-leak" not in out


def test_cli_disable_can_silence_everything(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nx = time.time()\n")
    assert main([str(bad), "--disable", "no-wallclock"]) == 0


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "no-wallclock" in out and "resource-leak" in out


def test_cli_wallclock_allow_glob(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "timer.py").write_text("import time\nx = time.time()\n")
    assert main([str(bench), "--wallclock-allow", "*bench*"]) == 0
    assert main([str(bench)]) == 1


def test_lint_paths_discovers_nested_files(tmp_path):
    pkg = tmp_path / "pkg" / "sub"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text("import time\nx = time.time()\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    violations = analyze_paths([str(tmp_path)], default_rules()).violations
    assert len(violations) == 1
