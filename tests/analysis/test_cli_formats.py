"""CLI text output, exit codes, and rule selection."""

import textwrap

from repro.analysis.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main

CLEAN = """\
    def proc(sim):
        yield sim.timeout(1)
    """

DIRTY = """\
    import time

    def helper():
        return time.time()

    def proc(sim):
        h = helper()
        yield sim.timeout(1)
    """


def _write(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return str(path)


# ---------------------------------------------------------------- exit codes
def test_exit_zero_on_clean_tree(tmp_path, capsys):
    assert main([_write(tmp_path, CLEAN), "-q"]) == EXIT_CLEAN


def test_exit_one_on_findings(tmp_path, capsys):
    assert main([_write(tmp_path, DIRTY), "-q"]) == EXIT_FINDINGS


def test_exit_two_on_no_paths(capsys):
    assert main([]) == EXIT_ERROR
    assert "no paths" in capsys.readouterr().err


def test_exit_two_on_missing_path(tmp_path, capsys):
    assert main([str(tmp_path / "ghost.py"), "-q"]) == EXIT_ERROR
    assert "no such file" in capsys.readouterr().err


def test_exit_two_on_unknown_rule(tmp_path, capsys):
    path = _write(tmp_path, CLEAN)
    assert main([path, "--select", "no-such-rule", "-q"]) == EXIT_ERROR


def test_exit_two_on_internal_error(tmp_path, capsys, monkeypatch):
    import repro.analysis.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("analyzer exploded")

    monkeypatch.setattr(cli_mod, "analyze_paths", boom)
    assert main([_write(tmp_path, CLEAN), "-q"]) == EXIT_ERROR
    assert "internal error" in capsys.readouterr().err


# --------------------------------------------------------------------- output
def test_text_format_renders_chain(tmp_path, capsys):
    code = main([_write(tmp_path, DIRTY), "-q"])
    out = capsys.readouterr().out
    assert code == EXIT_FINDINGS
    assert "taint-wallclock" in out
    assert "time.time" in out



# ---------------------------------------------------------------- selections
def test_select_whole_program_rule_only(tmp_path, capsys):
    code = main([_write(tmp_path, DIRTY), "--select", "taint-wallclock",
                 "-q"])
    assert code == EXIT_FINDINGS
    headers = [line for line in capsys.readouterr().out.splitlines()
               if not line.startswith(" ")]
    assert headers
    assert {line.split(": ")[1] for line in headers} == {"taint-wallclock"}


def test_disable_whole_program_rule(tmp_path, capsys):
    code = main([_write(tmp_path, DIRTY),
                 "--disable", "taint-wallclock,no-wallclock", "-q"])
    assert code == EXIT_CLEAN
