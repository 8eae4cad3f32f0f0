import re
from pathlib import Path

import pytest

from semistrict.cli import main
from semistrict.rewriting import clear_caches

DATA = Path(__file__).parent / "data"
CORPUS = Path(__file__).parent.parent / "corpus"


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
    # parses and elaborates, but normalizing it runs out of stack
    path = tmp_path / "deep.catt"
    path.write_text("# a 600-arrow chain\n" + _left_nested_comp(600)
                    + "normalize (x(f)y) | comp f (id y)\n")
    code, out, err = _run(capsys, "normalize", str(path))
    assert code == 1
    assert err == f"{path}:2:1: ResourceLimit: term nests too deeply\n"
    assert out == "f\n"  # the next declaration still runs


def test_an_800_deep_chain_checks(capsys, tmp_path):
    # deep enough to overflow an elaborator that takes two frames per level
    path = tmp_path / "deep.catt"
    path.write_text(_left_nested_comp(800))
    code, out, err = _run(capsys, "check", str(path))
    assert (code, err) == (0, "")


def test_a_450_deep_chain_normalizes(capsys, tmp_path):
    # deep enough to overflow a normalizer that takes three frames per level
    path = tmp_path / "deep.catt"
    path.write_text(_left_nested_comp(450))
    code, out, err = _run(capsys, "normalize", str(path))
    assert (code, err) == (0, "")
    # the unbiased composite, applied to the 450 arrows in order
    assert out.startswith("coh ")
    assert out.endswith(" " + " ".join(f"f{i}" for i in range(450)) + "\n")


def test_a_disabled_rule_is_a_usage_error(capsys):
    # the theory has exactly one rule set; --no-rule is not an option
    code, out, err = _run(capsys, "eq", "--no-rule", "ins",
                          str(DATA / "bad_parse.catt"))
    assert code == 2
    assert out == "" and "--no-rule" in err


@pytest.mark.parametrize("argv", [
    # check normalizes nothing it prints or decides: nothing to trace or bound
    ["check", "--trace"],
    ["check", "--step-budget", "5"],
    ["normalize", "--step-budget", "-3"],
    ["eq", "--step-budget", "-3"],
])
def test_misused_normalizer_options_are_usage_errors(capsys, argv):
    code, out, err = _run(capsys, *argv, str(CORPUS / "basics.catt"))
    assert code == 2
    assert out == "" and argv[1] in err


def test_a_step_budget_counts_every_step(capsys, tmp_path):
    clear_caches()  # a remembered normal form takes no steps
    path = tmp_path / "unit.catt"
    path.write_text("normalize (x(f)y) | comp f (id y)\n")
    code, out, err = _run(capsys, "normalize", "--step-budget", "0", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"{path}:1:1: StepBudgetExceeded: ")
    # an insertion, then a disc removal
    assert _run(capsys, "normalize", "--step-budget", "2", str(path)) == (0, "f\n", "")


def test_equal_deep_chains_in_one_run_normalize(capsys, tmp_path):
    # the second chain's memo lookups meet the first chain's equal keys,
    # which a recursive equality test compares too deeply
    short, long = tmp_path / "c320.catt", tmp_path / "c340.catt"
    short.write_text(_left_nested_comp(320))
    long.write_text(_left_nested_comp(340))
    code, out, err = _run(capsys, "normalize", str(short), str(long))
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 2
