"""Golden CLI output: exit code, stdout and stderr of each command on
each file of ``corpus/`` and ``tests/data/``, with paths relative to the
repository root.

To record the outputs afresh, after a change that is meant to move them:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from semistrict.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
INPUTS = sorted(str(p.relative_to(ROOT))
                for p in [*ROOT.glob("corpus/*.catt"), *ROOT.glob("tests/data/*.catt")])
MODES = [("check",), ("normalize",), ("eq",), ("normalize", "--trace")]


def _golden_path(path: str, mode: tuple) -> Path:
    return GOLDEN / (path.replace("/", "__") + "." + "-".join(m.strip("-") for m in mode))


def _render(path: str, mode: tuple) -> str:
    """Run one command from the repository root, as its transcript."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*mode, path])
    finally:
        os.chdir(cwd)
    return (f"$ semistrict {' '.join(mode)} {path}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def test_every_input_has_its_goldens():
    want = {_golden_path(p, m).name for p in INPUTS for m in MODES}
    assert want == {p.name for p in GOLDEN.iterdir()}


@pytest.mark.parametrize("mode", MODES, ids=" ".join)
@pytest.mark.parametrize("path", INPUTS)
def test_output_matches_its_golden(path, mode):
    assert _render(path, mode) == _golden_path(path, mode).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    for p in INPUTS:
        for m in MODES:
            _golden_path(p, m).write_text(_render(p, m), encoding="utf-8")
