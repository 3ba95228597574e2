"""Each walkthrough in demos/ runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the suite's -X dev and -W options, which a subprocess does not inherit
    flags = [*(["-X", "dev"] if sys.flags.dev_mode else []), *(f"-W{w}" for w in sys.warnoptions)]
    done = subprocess.run(
        [sys.executable, *flags, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
