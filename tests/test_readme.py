"""The README's command lines and Library example, run as written.

Every line of a ``sh`` block that starts with ``loopwalk`` (with its ``\\``
continuations, without its trailing comment) runs as ``python -m
loopwalk.cli`` in a temporary directory, where the README's "Feasibility
input" block is ``params.json``; the ``python`` block runs as a script.
"""

import os
import re
import shlex
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as _fh:
    README = _fh.read()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def _command_lines() -> list[str]:
    lines = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("loopwalk "):
                lines.append(" ".join(line.split(" #", 1)[0].split()))
    return lines


def _run(tmp_path, argv):
    (tmp_path / "params.json").write_text(_blocks("json")[-1], encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "QWALK_OUT"}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, text=True
    )


def test_readme_has_commands_and_one_library_example():
    assert len(_command_lines()) >= 7
    assert len(_blocks("python")) == 1
    assert "## Feasibility input" in README.split("```json")[-2]


@pytest.mark.parametrize("line", _command_lines())
def test_readme_command_line_runs(tmp_path, line):
    proc = _run(tmp_path, ["-m", "loopwalk.cli", *shlex.split(line)[1:]])
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs(tmp_path):
    proc = _run(tmp_path, ["-c", _blocks("python")[0]])
    assert proc.returncode == 0, proc.stderr
