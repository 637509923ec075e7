"""The demos print exactly the recorded output.

Each demo runs in a child process against the imported ``matchgames``
package, and its stdout must equal ``tests/demo_stdout/<demo>.txt`` byte
for byte.  The Python demos also run under every other CPython >= 3.10
found on ``PATH`` (``python3.10``, ``python3.11``, ...), so the exact
arithmetic is checked against each interpreter's own ``fractions``.  The
CLI tour writes its artifacts to a ``mktemp -d`` directory whose path
varies by run; it is replaced by ``$out`` before comparing.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import other_interpreters
from test_cli import checkout_env, declared_script, write_launcher

DEMOS = Path(__file__).resolve().parent.parent / "demos"
EXPECTED = Path(__file__).resolve().parent / "demo_stdout"

PY_DEMOS = [
    "01_first_market.py",
    "02_refinement.py",
    "03_oracle_and_lattice.py",
    "04_classic_markets.py",
    "05_commitment_trees.py",
]


def expected(demo):
    return (EXPECTED / (Path(demo).stem + ".txt")).read_text(encoding="utf-8")


def demo_runs():
    runs = [pytest.param(demo, sys.executable, id=demo) for demo in PY_DEMOS]
    others = other_interpreters()
    for name, path in others:
        runs += [pytest.param(demo, path, id=f"{demo}-{name}") for demo in PY_DEMOS]
    if not others:
        runs.append(
            pytest.param(
                None, None, id="other-interpreters", marks=pytest.mark.skip(reason="no other CPython >= 3.10 found")
            )
        )
    return runs


@pytest.mark.parametrize("demo,python", demo_runs())
def test_python_demo(demo, python):
    run = subprocess.run(
        [python, str(DEMOS / demo)],
        capture_output=True,
        text=True,
        env=checkout_env(),
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == expected(demo)


def test_cli_tour(tmp_path):
    bin_dir = tmp_path / "bin"
    write_launcher(bin_dir, declared_script())
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = checkout_env(bin_dir)
    env["TMPDIR"] = str(scratch)
    run = subprocess.run(
        ["bash", str(DEMOS / "06_cli_tour.sh")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    (out,) = scratch.iterdir()
    assert run.stdout.replace(str(out), "$out") == expected("06_cli_tour.sh")
