"""README examples: the Python quick start prints what its comments say, and every
command-line example runs."""

import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import pytest

from drivenqubit.cli import main

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, fence: str) -> str:
    """The first fenced block opened by ``fence`` under ``## heading``."""
    section = _README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"\n{fence}\n", 1)[1].split("\n```\n", 1)[0]


def _cli_examples() -> list[str]:
    """Every ``drivenqubit ...`` line of the Command line block, backslash continuations joined."""
    text = _block("Command line", "```").replace("\\\n", " ")
    return [line for line in text.splitlines() if line.startswith("drivenqubit ")]


def _expected(comment: str) -> list[str]:
    """The values a print comment promises: each ``~number``, or the comment itself."""
    return re.findall(r"~\s*(-?[\d.]+)", comment) or [comment.strip()]


def test_quick_start_prints_its_comments():
    code = _block("Python quick start", "```python")
    comments = [line.split("#", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = [line.split() for line in out.getvalue().splitlines()]
    assert len(printed) == len(comments) == 4
    for values, comment in zip(printed, comments):
        expected = _expected(comment)
        assert len(values) == len(expected), comment
        for value, shown in zip(values, expected):
            if re.fullmatch(r"-?[\d.]+", shown):
                # Agreement to the last digit shown.
                decimals = len(shown.partition(".")[2])
                assert abs(float(value) - float(shown)) <= 0.5 * 10.0**-decimals, (value, comment)
            else:
                assert value == shown, comment


def test_readme_lists_six_cli_examples():
    assert [example.split()[1] for example in _cli_examples()] == [
        "simulate", "predict", "scan", "classify", "cdt", "width",
    ]


@pytest.mark.parametrize("example", _cli_examples(), ids=lambda example: example.split()[1])
def test_cli_example_runs(capsys, tmp_path, example):
    target = tmp_path / "out"
    assert main(shlex.split(example)[1:] + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.stat().st_size > 0


def test_module_map_names_public_names():
    rows = re.findall(r"^\| `(\w+)` \| (.+) \|$", _README, flags=re.MULTILINE)
    assert [module for module, _ in rows] == ["dynamics", "specfun", "rwa", "transfer_matrix", "analysis"]
    for module, names in rows:
        public = importlib.import_module(f"drivenqubit.{module}").__all__
        assert set(re.findall(r"`(\w+)`", names)) <= set(public), module
