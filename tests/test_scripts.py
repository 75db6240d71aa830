import os
import subprocess
import sys
from pathlib import Path

import pytest

import tskpabe

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    ("name", "last_line"),
    [("bench_counts.py", "all_match=1"), ("demo_pipeline.py", "chain still verifies: True")],
)
def test_script_runs_to_its_last_line(name, last_line):
    env = dict(os.environ)
    src = str(Path(tskpabe.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / name)], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == last_line
