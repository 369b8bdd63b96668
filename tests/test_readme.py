"""README.md stays true: every ``python`` code block runs as documented, from the
repository root, and the Command line section names every subcommand and option."""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


def _cli_names() -> list[str]:
    """Every subcommand and long option the CLI parser defines, argparse's own --help aside."""
    from treedecode.cli import build_parser

    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    names = set()
    for name, sub in commands.choices.items():
        names.add(name)
        for action in sub._actions:
            names.update(o for o in action.option_strings if o.startswith("--") and o != "--help")
    return sorted(names)


@pytest.mark.parametrize("name", _cli_names())
def test_readme_command_line_section_names_every_cli_surface(name):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    assert re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", section), name


def test_readme_metrics_report_bullet_names_every_report_key():
    from treedecode import evaluate, parse_taxonomy

    keys = evaluate(parse_taxonomy("Root\tA\n"), [{"A"}], [{"A"}]).to_dict()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    bullet = readme.split("* **Metrics report**", 1)[1].split("\n\n", 1)[0].split("\n* ", 1)[0]
    assert [key for key in keys if f"`{key}`" not in bullet] == []


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
