import re
from pathlib import Path

import pytest

from semistrict.cli import main

DATA = Path(__file__).parent / "data"


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    return code, out, err


@pytest.mark.parametrize("name, kind", [
    ("bad_parse.catt", "ParseError"),
    ("bad_support.catt", "SupportMismatch"),
    ("bad_endpoints.catt", "InferenceFailure"),
])
@pytest.mark.parametrize("mode", ["check", "normalize", "eq"])
def test_bad_files_give_a_located_diagnostic(capsys, name, kind, mode):
    path = str(DATA / name)
    code, _, err = _run(capsys, mode, path)
    assert code == 1
    assert re.search(rf"^{re.escape(path)}:\d+:\d+: {kind}: \S", err, re.M), err


def _left_nested_comp(n: int) -> str:
    ps = "x0" + "".join(f"(f{i})x{i + 1}" for i in range(n))
    term = "f0"
    for i in range(1, n):
        term = f"comp ({term}) f{i}"
    return f"normalize ({ps}) | {term}\n"


def test_too_deep_to_parse_is_a_resource_limit(capsys, tmp_path):
    path = tmp_path / "deep.catt"
    path.write_text(_left_nested_comp(1000))
    code, out, err = _run(capsys, "normalize", str(path))
    assert code == 1
    assert err == f"{path}:1:1: ResourceLimit: term nests too deeply\n"


def test_too_deep_to_normalize_is_located_at_its_declaration(capsys, tmp_path):
    # parses, but elaborating it runs out of stack
    path = tmp_path / "deep.catt"
    path.write_text("# a 600-arrow chain\n" + _left_nested_comp(600)
                    + "normalize (x(f)y) | comp f (id y)\n")
    code, out, err = _run(capsys, "normalize", str(path))
    assert code == 1
    assert err == f"{path}:2:1: ResourceLimit: term nests too deeply\n"
    assert out == "f\n"  # the next declaration still runs
