"""Each demo script, the library tour in README.md and its command lines
run to completion against the package in ``src``."""
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py")) + [ROOT / "README.md"]


def _program(script: Path) -> list:
    """The interpreter arguments that run a demo script, or the ```python
    blocks of a Markdown file as one program."""
    if script.suffix == ".py":
        return [str(script)]
    blocks = re.findall(r"^```python\n(.*?)^```", script.read_text(), re.DOTALL | re.MULTILINE)
    assert blocks, f"{script.name} holds no python block"
    return ["-c", "\n".join(blocks)]


def _run(args: list, **kwargs) -> subprocess.CompletedProcess:
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
        **kwargs,
    )


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    result = _run(_program(script))
    assert result.returncode == 0, result.stderr


def test_readme_command_lines_run(tmp_path):
    # each `clearnet ...` line of README.md's ```bash blocks, in order (the
    # first writes the document the others read), then the clear line
    # again with --pretty
    blocks = re.findall(
        r"^```bash\n(.*?)^```", (ROOT / "README.md").read_text(), re.DOTALL | re.MULTILINE
    )
    lines = [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.splitlines()
        if line.startswith("clearnet ")
    ]
    clear = next(argv for argv in lines if argv[1] == "clear")
    assert len(lines) > 1
    for argv in lines + [clear + ["--pretty"]]:
        result = _run(["-m", "clearnet", *argv[1:]], cwd=tmp_path)
        assert result.returncode == 0, (argv, result.stderr)
