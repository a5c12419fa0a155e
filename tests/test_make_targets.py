"""Every ``make <target>`` that CI or the docs tell a reader to run exists.

The commands are taken from the ``run:`` steps of the CI workflow and from
the inline code spans and shell blocks of README.md, ``docs/*.md`` and the
verify skill; prose ("make millions") is not a command and is skipped.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_FENCE = re.compile(r"^```([\w-]*)[^\n]*\n(.*?)^```", re.M | re.S)
_SHELL_FENCES = ("", "sh", "bash", "shell", "console")
_SPAN = re.compile(r"`([^`]+)`")
_MAKE = re.compile(r"(?:^|[\s;&|(])make((?:[ \t]+[^\s;&|)#]+)+)")


def makefile_targets(text):
    return {name for name in re.findall(r"^([A-Za-z][\w.-]*)\s*:(?!=)",
                                        text, re.M)}


def make_targets_in(command):
    """Targets named by each ``make`` invocation in a shell command."""
    found = []
    for match in _MAKE.finditer(command):
        found += [word for word in match.group(1).split()
                  if not word.startswith("-") and "=" not in word]
    return found


def markdown_commands(text):
    """The shell blocks and inline code spans of a markdown document."""
    commands = [body for lang, body in _FENCE.findall(text)
                if lang in _SHELL_FENCES]
    commands += _SPAN.findall(_FENCE.sub("", text))
    return commands


def workflow_commands(text):
    """The ``run:`` steps of a GitHub Actions workflow, block or inline."""
    commands, lines = [], text.splitlines()
    for i, line in enumerate(lines):
        match = re.match(r"^(\s*)(?:- )?run:\s*(.*)$", line)
        if not match:
            continue
        if match.group(2) not in ("|", ">"):
            commands.append(match.group(2))
            continue
        indent = len(match.group(1))
        for body in lines[i + 1:]:
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            commands.append(body)
    return commands


def named_targets():
    sources = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
               ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
    named = []
    for path in sources:
        if path.exists():
            for command in markdown_commands(path.read_text()):
                named += [(path.name, t) for t in make_targets_in(command)]
    workflow = ROOT / ".github" / "workflows" / "ci.yml"
    for command in workflow_commands(workflow.read_text()):
        named += [(workflow.name, t) for t in make_targets_in(command)]
    return named


def test_extractors_read_commands_not_prose():
    doc = ("To make millions, run `make lint` or\n\n```\nmake -j2 bench "
           "EXP=fig11 && make demo\n```\n\n```python\n# make sure\n```\n")
    targets = [t for c in markdown_commands(doc) for t in make_targets_in(c)]
    assert sorted(targets) == ["bench", "demo", "lint"]
    workflow = ("      - run: make lint\n      - name: x\n        run: |\n"
                "          make test\n          echo make\n      - run: ls\n")
    assert [t for c in workflow_commands(workflow)
            for t in make_targets_in(c)] == ["lint", "test"]


def test_every_named_make_target_exists():
    targets = makefile_targets((ROOT / "Makefile").read_text())
    named = named_targets()
    assert named, "found no make command to check"
    missing = sorted({(where, t) for where, t in named if t not in targets})
    assert not missing, f"make targets named but not defined: {missing}"
