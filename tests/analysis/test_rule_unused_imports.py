"""unused-import: module-level imports whose name is never used."""

import os
import textwrap

from repro.analysis.rules.unused_imports import UnusedImportRule
from repro.analysis.runner import analyze_paths, lint_source


def lint(snippet, path="src/repro/net/widget.py"):
    return lint_source(textwrap.dedent(snippet), [UnusedImportRule()],
                       path=path)


def test_unused_names_flagged_one_per_name():
    violations = lint("""
        import os
        from typing import Dict, List, Optional

        def f(x: Optional[int]) -> Dict[str, int]:
            return {}
        """)
    assert [v.rule for v in violations] == ["unused-import"] * 2
    assert [v.line for v in violations] == [2, 3]
    assert "'os' is imported but never used" in violations[0].message
    assert "'List'" in violations[1].message


def test_each_name_reported_on_its_own_line():
    violations = lint("""
        from typing import (Dict,
                            List)

        x: Dict = {}
        """)
    assert len(violations) == 1
    assert violations[0].line == 3
    assert "'List'" in violations[0].message


def test_uses_count_in_calls_attributes_and_string_annotations():
    violations = lint("""
        import hashlib
        import os.path
        from typing import TYPE_CHECKING, List
        from collections import deque as dq

        def f(items: "List[int]"):
            if TYPE_CHECKING:
                pass
            return hashlib.sha256(os.path.sep.encode()), dq(items)
        """)
    assert violations == []


def test_dotted_import_binds_its_root():
    violations = lint("""
        import os.path
        """)
    assert len(violations) == 1
    assert "'os'" in violations[0].message


def test_future_all_and_init_are_exempt():
    assert lint("""
        from __future__ import annotations
        from repro.sim import Simulator

        __all__ = ["Simulator"]
        """) == []
    reexport = """
        from repro.sim import Simulator
        """
    assert lint(reexport, path="src/repro/sim/__init__.py") == []
    assert len(lint(reexport)) == 1


def test_function_level_imports_are_not_checked():
    violations = lint("""
        def f():
            import os
            return 1
        """)
    assert violations == []


def test_pragma_keeps_a_side_effect_import():
    violations = lint("""
        import repro.analysis.rules  # simlint: disable=unused-import
        """)
    assert violations == []


def test_package_has_no_unused_imports():
    import repro
    package = os.path.dirname(repro.__file__)
    assert analyze_paths([package], [UnusedImportRule()]).violations == []
