"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, main


def test_list_prints_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_run_unknown_experiment_fails(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_quick_experiment(capsys):
    assert main(["run", "fig03", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "2vms" in out and "4vms" in out


def test_demo_verifies_data(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "vanilla" in out and "vRead" in out and "verified" in out


def test_demo_fails_on_mismatched_data(capsys, monkeypatch):
    # An explicit check, not an ``assert`` that ``python -O`` strips.
    from repro.storage.content import ByteSource

    monkeypatch.setattr(ByteSource, "same_bytes", lambda self, other: False)
    assert main(["demo"]) == 1
    captured = capsys.readouterr()
    assert "verified" not in captured.out
    assert "does not match" in captured.err


def test_no_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_profile_subcommand_runs(capsys, tmp_path):
    out = tmp_path / "prof.json"
    assert main(["profile", "fig03", "--quick", "--top", "3",
                 "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "events processed" in text
    assert "hottest functions" in text
    assert out.exists()


def test_profile_unknown_experiment_suggests(capsys):
    assert main(["profile", "fig0", "--quick"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err
    assert "did you mean" in err


def test_registry_did_you_mean():
    from repro.experiments import registry

    with pytest.raises(KeyError, match="did you mean 'fig13'"):
        registry.get("fig1")


def _stub_report(monkeypatch):
    """Record ``run all``'s runner calls; results are stubs, no headlines."""
    import dataclasses

    from repro.experiments import registry, runner

    calls = []

    class Stub:
        def render(self):
            return "stub table"

    def run_experiment(name, profile="default", jobs=1, seed=0, cells=None):
        calls.append((name, profile, jobs, seed, cells))
        return Stub()

    real_specs = registry.specs
    monkeypatch.setattr(runner, "run_experiment", run_experiment)
    monkeypatch.setattr(registry, "specs", lambda groups=None: [
        dataclasses.replace(spec, headline=None)
        for spec in real_specs(groups)])
    return calls, real_specs


def test_run_all_forwards_profile_jobs_and_seed(monkeypatch, capsys):
    calls, specs = _stub_report(monkeypatch)
    assert main(["run", "all", "--quick", "--jobs", "3", "--seed", "5"]) == 0
    expected = [spec.name for spec in specs(("paper",))]
    assert [call[0] for call in calls] == expected
    assert {call[1:4] for call in calls} == {("quick", 3, 5)}
    # One cell table for the whole report, handed to every experiment.
    tables = {id(call[4]) for call in calls}
    assert len(tables) == 1 and calls[0][4] == {}
    assert capsys.readouterr().out.count("stub table") == len(expected)


def test_run_all_ablations_widens_the_report(monkeypatch, capsys):
    calls, specs = _stub_report(monkeypatch)
    assert main(["run", "all", "--paper", "--ablations"]) == 0
    assert [call[0] for call in calls] == [
        spec.name for spec in specs(("paper", "ablation", "extension"))]
    assert {call[1:4] for call in calls} == {("paper", 1, 0)}


def test_run_all_rejects_json_and_ablations_needs_all(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "all", "--json", str(tmp_path / "out.json")])
    assert "--json" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["run", "fig03", "--ablations"])
    assert "--ablations" in capsys.readouterr().err
