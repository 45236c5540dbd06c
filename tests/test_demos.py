"""Each demo script, and the library tour in README.md, runs to completion
against the package in ``src``."""
import os
import re
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


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, *_program(script)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
