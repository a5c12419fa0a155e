"""File discovery: overlapping inputs, __pycache__ pruning, deterministic order."""

import os

import pytest

from repro.analysis.runner import discover_files


def _tree(tmp_path):
    src = tmp_path / "src"
    pkg = src / "pkg"
    pkg.mkdir(parents=True)
    (src / "top.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text("")
    (pkg / "notes.txt").write_text("")
    return src, pkg


def test_overlapping_paths_yield_no_duplicates(tmp_path):
    src, pkg = _tree(tmp_path)
    files = discover_files([str(src), str(pkg)])
    assert len(files) == len(set(files))
    assert sorted(os.path.basename(f) for f in files) == [
        "__init__.py", "mod.py", "top.py"]


def test_explicit_file_plus_containing_dir_deduped(tmp_path):
    src, pkg = _tree(tmp_path)
    files = discover_files([str(pkg / "mod.py"), str(src)])
    assert len(files) == len(set(files))
    assert sum(f.endswith("mod.py") for f in files) == 1


def test_output_is_sorted(tmp_path):
    src, pkg = _tree(tmp_path)
    files = discover_files([str(pkg), str(src)])
    assert files == sorted(files)


def test_pycache_skipped(tmp_path):
    src, pkg = _tree(tmp_path)
    cache = pkg / "__pycache__"
    cache.mkdir()
    (cache / "mod.cpython-311.py").write_text("")
    files = discover_files([str(src)])
    assert not any("__pycache__" in f for f in files)


def test_explicit_file_taken_as_given(tmp_path):
    # The .py filter applies to directory walks; a file named explicitly
    # is linted even without the extension.
    src, pkg = _tree(tmp_path)
    assert discover_files([str(pkg / "notes.txt")]) == [str(pkg / "notes.txt")]


def test_missing_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        discover_files([str(tmp_path / "nope.py")])
