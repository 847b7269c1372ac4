"""The demos run, and every public name resolves.

Each demo is a script against the public API; running it here means a
deleted or renamed name that a demo still uses fails the suite.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import cuspforge as cf

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_public_names_resolve():
    for name in cf.__all__:
        assert getattr(cf, name, None) is not None, name
