"""Self-test of the end-to-end benchmark on a tiny workload.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import child  # noqa: E402

TINY = [bench.Job("scale-racks", "quick",
                  {"rack_counts": (1,), "file_bytes": 1 << 20})]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """A one-experiment workload with its own pins file."""
    monkeypatch.setitem(bench.WORKLOADS, "tiny", TINY)
    pins = tmp_path / "pins.json"
    pins.write_text("{}")
    monkeypatch.setattr(bench, "PINS_FILE", pins)
    return pins


def run(capsys, *argv):
    code = bench.main(["--workload", "tiny", *argv])
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


def declared(kind):
    return {m["name"]: m["unit"] for m in bench.load_spec()[kind]}


def test_every_declared_metric_is_emitted_with_its_unit(tiny, capsys):
    code, result = run(capsys, "--runs", "2")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())

    code, result = run(capsys, "--trace", "1")
    assert code == 0 and result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared("per_layer")


def test_layer_fold_covers_profiled_time(tiny, capsys):
    code, result = run(capsys, "--trace")
    assert code == 0
    coverage = result["metrics"]["trace.fold_coverage"]["value"]
    assert coverage >= 0.95


def test_fold_charges_builtins_to_repro_callers(tmp_path):
    package = tmp_path / "repro"
    kernel = (str(package / "sim" / "kernel.py"), 1, "_drain")
    content = (str(package / "storage" / "content.py"), 1, "checksum")
    outside = (str(tmp_path / "helper.py"), 1, "helper")
    update = ("~", 0, child._SHA_UPDATE)
    stats = {
        kernel: (1, 1, 1.0, 10.0, {}),
        content: (4, 4, 2.0, 7.0, {kernel: (4, 4, 2.0, 7.0)}),
        outside: (1, 1, 1.0, 1.0, {kernel: (1, 1, 1.0, 1.0)}),
        # 3 s inside hashing: 2 s on behalf of content, 1 s of helper.
        update: (3, 3, 3.0, 3.0, {content: (2, 2, 2.0, 2.0),
                                  outside: (1, 1, 1.0, 1.0)}),
    }
    self_s, profiled, counts = child.fold_profile(stats, str(package))
    assert profiled == pytest.approx(7.0)
    assert self_s["storage.content"] == pytest.approx(4.0)
    assert self_s["sim.kernel"] == pytest.approx(3.0)
    assert sum(self_s.values()) == pytest.approx(profiled)
    assert counts["storage.content.checksums"] == 4
    assert counts["storage.content.sha256_updates"] == 2


def test_corrupted_pin_fails_the_run(tiny, capsys):
    tiny.write_text(json.dumps({"tiny": {"scale-racks": {
        "digest": "0" * 64, "seed_free": True}}}))
    code, result = run(capsys, "--runs", "1")
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["pass_ratio"]["value"] < 1


def record(tmp_path, name, samples):
    path = tmp_path / name
    path.write_text(json.dumps({"commit": name, "workloads": {
        "w": {"samples": samples}}}))
    return str(path)


@pytest.mark.parametrize("better, old, new, verdict", [
    ("lower", [10.0, 10.1, 10.2, 10.1], [10.3, 10.4, 10.2, 10.3], "ok"),
    ("lower", [10.0, 10.1, 10.2, 10.1], [12.0, 12.1, 12.2, 12.1], "worse"),
    ("higher", [10.0, 10.1, 10.2, 10.1], [8.0, 8.1, 8.2, 8.1], "worse"),
    ("higher", [10.0, 10.1, 10.2, 10.1], [12.0, 12.1, 12.2, 12.1], "ok"),
    # Spread (IQR / median) ~31% > bound: unresolved unless runs separate.
    ("lower", [10.0, 14.0, 10.5, 13.0], [11.0, 15.0, 9.5, 12.0],
     "unresolved"),
    ("lower", [10.0, 14.0, 10.5, 13.0], [6.0, 6.5, 7.0, 6.2], "ok"),
    ("lower", [10.0, 14.0, 10.5, 13.0], [20.0, 24.0, 21.0, 22.0], "worse"),
])
def test_compare_verdicts(better, old, new, verdict):
    metric = {"name": "m", "unit": "s", "better": better, "bound": 0.1}
    assert bench.judge(old, new, metric) == verdict


def test_compare_exit_code(tmp_path, capsys):
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s",
                            "better": "lower", "bound": 0.1}],
            "per_layer": []}
    base = record(tmp_path, "base", {"wall_s": [10.0, 10.1, 10.2]})
    same = record(tmp_path, "same", {"wall_s": [10.1, 10.0, 10.2]})
    slow = record(tmp_path, "slow", {"wall_s": [13.0, 13.1, 13.2]})
    assert bench.compare(base, same, spec) == 0
    assert bench.compare(base, slow, spec) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith("ok") and lines[3].endswith("worse")
