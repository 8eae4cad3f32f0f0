import re
from pathlib import Path

import pytest

from semistrict import rewriting
from semistrict.cli import main

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


def test_a_negative_report_count_is_a_usage_error(capsys):
    code, out, err = _run(capsys, "report", "--count", "-3")
    assert code == 2
    assert out == "" and "--count" in err


def test_a_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.catt"
    # a column counts characters: the two bytes of U+00E9 are one
    bad.write_bytes("coh x \u00e9 ".encode() + b"\xff\n\xfe\n")
    good = tmp_path / "good.catt"
    good.write_text("normalize (x(f)y) | comp f (id y)\n")
    code, out, err = _run(capsys, "normalize", str(bad), str(good))
    # the run ends there, as at any parse error
    assert (code, out) == (1, "")
    assert err == f"{bad}:1:9: ParseError: byte 0xff is not UTF-8\n"


@pytest.mark.parametrize("newline, second", [("\r", (1, 35)), ("\r\n", (2, 17))])
def test_only_a_line_feed_starts_a_line_of_a_file(capsys, tmp_path, newline, second):
    # a lone carriage return is one column, as the tokenizer counts it
    path = tmp_path / "cr.catt"
    path.write_bytes(f"normalize (x) | q{newline}normalize (x) | r\n".encode())
    code, out, err = _run(capsys, "check", str(path))
    assert (code, out) == (1, "")
    assert err == (f"{path}:1:17: UnknownVariable: 'q' is not in scope\n"
                   f"{path}:{second[0]}:{second[1]}: UnknownVariable: 'r' is not in scope\n")


def test_a_definition_whose_body_is_a_variable_applies(capsys, tmp_path):
    path = tmp_path / "var.catt"
    path.write_text("def v (x : *) := x\n"
                    "normalize (y : *) | v y\n"
                    "def w (x(f)y) := f\n"
                    "normalize (x(f)y(g)z) | w (comp f g)\n")
    code, out, err = _run(capsys, "normalize", str(path))
    assert (code, err) == (0, "")
    assert out == "y\ncoh (x(f)y(g)z : x -> z) f g\n"


def test_a_step_budget_counts_every_step(capsys, tmp_path):
    path = tmp_path / "unit.catt"
    path.write_text("normalize (x(f)y) | comp f (id y)\n")
    code, out, err = _run(capsys, "normalize", "--step-budget", "0", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"{path}:1:1: StepBudgetExceeded: ")
    # an insertion, then a disc removal
    assert _run(capsys, "normalize", "--step-budget", "2", str(path)) == (0, "f\n", "")


def test_a_stated_budget_overrun_names_the_budget(capsys, tmp_path):
    path = tmp_path / "unit.catt"
    path.write_text("normalize (x(f)y) | comp f (id y)\n")
    assert _run(capsys, "normalize", "--step-budget", "1", str(path)) == (
        1, "", f"{path}:1:1: StepBudgetExceeded: step budget of 1 exhausted\n")


@pytest.mark.parametrize("trace", [[], ["--trace"]], ids=["shared", "traced"])
def test_only_a_default_budget_overrun_reads_as_a_kernel_bug(capsys, tmp_path, monkeypatch, trace):
    # reduction terminates, so no term needs the default budget; shrink
    # it to see what its overrun prints, with no memo to take steps from
    monkeypatch.setattr(rewriting, "DEFAULT_BUDGET", 1)
    rewriting.clear_caches()
    path = tmp_path / "unit.catt"
    path.write_text("normalize (x(f)y) | comp f (id y)\n")
    code, out, err = _run(capsys, "normalize", *trace, str(path))
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == (f"{path}:1:1: StepBudgetExceeded: "
                                    "step budget exhausted; reduction should always terminate")


# whose elaboration normalizes comp f (id y) to bind vert's middle arrow
_VERT = "normalize (x : *) (y : *) (f : x -> y) (a : f -> f) (b : comp f (id y) -> f) | vert a b\n"
_UNIT = "normalize (x(f)y) | comp f (id y)\n"


@pytest.mark.parametrize("budget", ["0", "1", "2"])
def test_a_step_budget_verdict_does_not_depend_on_earlier_declarations(capsys, tmp_path, budget):
    # a stated budget normalizes cold, so each declaration's verdict is
    # the same in either order
    verdicts = []
    for name, decls in (("vu.catt", [_VERT, _UNIT]), ("uv.catt", [_UNIT, _VERT])):
        path = tmp_path / name
        path.write_text("".join(decls))
        _, out, err = _run(capsys, "normalize", "--step-budget", budget, str(path))
        lines = iter(out.splitlines())
        got = {}
        for line, decl in enumerate(decls, 1):
            failed = f"{path}:{line}:1: StepBudgetExceeded: " in err
            got[decl] = "exceeded" if failed else next(lines)
        verdicts.append(got)
    assert verdicts[0] == verdicts[1]
    unit = verdicts[0][_UNIT]
    assert unit == ("exceeded" if budget in ("0", "1") else "f")


_F = "normalize (x : *) (f : x -> x) | "
_DOUBLING = (["def d0 (x : *) := id x\n"]
             + [f"def d{n} (x : *) := comp (d{n - 1} x) (d{n - 1} x)\n" for n in range(1, 11)]
             + ["normalize (x : *) | d10 x\n"])


@pytest.mark.parametrize("decls, steps", [
    # the last term holds the first one twice
    ([_F + "comp f (id x)\n", _F + "comp (comp f (id x)) (comp f (id x))\n"], 2),
    # the first two terms' normalizations share comp f (id x)'s steps
    ([_F + "comp (comp f (id x)) f\n", _F + "comp f (comp f (id x))\n",
      _F + "comp (comp (comp f (id x)) f) (comp f (comp f (id x)))\n"], 4),
    # d10 x holds d9 x twice, which holds d8 x twice, and so on; every
    # level's head over normal arguments is d1 x, whose two steps are taken once
    (_DOUBLING, 2),
], ids=["repeated", "overlapping", "doubling"])
def test_a_step_budget_spends_the_steps_of_a_cold_normalization(capsys, tmp_path, decls, steps):
    # --trace and --step-budget each normalize with a memo of their own,
    # so the last declaration fits a budget just when its traced steps do,
    # whatever the earlier ones remembered
    path, before = tmp_path / "all.catt", tmp_path / "before.catt"
    path.write_text("".join(decls))
    before.write_text("".join(decls[:-1]))
    traced = (len(_run(capsys, "normalize", "--trace", str(path))[2].splitlines())
              - len(_run(capsys, "normalize", "--trace", str(before))[2].splitlines()))
    assert traced == steps
    nf = _run(capsys, "normalize", str(path))[1].splitlines()[-1]
    last = f"{path}:{len(decls)}:1: StepBudgetExceeded: "
    _, out, err = _run(capsys, "normalize", "--step-budget", str(steps - 1), str(path))
    assert last in err
    _, out, err = _run(capsys, "normalize", "--step-budget", str(steps), str(path))
    assert last not in err and out.splitlines()[-1] == nf


@pytest.mark.parametrize("mode", ["normalize", "eq"])
def test_a_stated_default_sized_budget_prints_what_no_budget_does(capsys, mode):
    # a stated budget runs cold and no budget runs over the shared memos;
    # the normal forms and verdicts are the same
    for path in sorted([*CORPUS.glob("*.catt"), *DATA.glob("*.catt")]):
        plain = _run(capsys, mode, str(path))
        assert _run(capsys, mode, "--step-budget", "1000000", str(path)) == plain


def test_equal_deep_chains_in_one_run_normalize(capsys, tmp_path):
    # the second chain's memo lookups meet the first chain's equal keys,
    # which a recursive equality test compares too deeply
    short, long = tmp_path / "c320.catt", tmp_path / "c340.catt"
    short.write_text(_left_nested_comp(320))
    long.write_text(_left_nested_comp(340))
    code, out, err = _run(capsys, "normalize", str(short), str(long))
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 2


def test_forty_doubling_definitions_check(capsys, tmp_path):
    # d{k} x unfolds to 2^k identities: only shared substitution keeps it small
    path = tmp_path / "doubling.catt"
    path.write_text("def d0 (x : *) := id x\n" + "".join(
        f"def d{k} (x : *) := comp (d{k - 1} x) (d{k - 1} x)\n" for k in range(1, 41))
        + "normalize (x : *) | d40 x\n")
    assert _run(capsys, "check", str(path)) == (0, "", "")
    assert _run(capsys, "normalize", str(path)) == (0, "coh (x : x -> x) x\n", "")


@pytest.mark.parametrize("name", ["basics.catt", "monoidal.catt"])
@pytest.mark.parametrize("mode", ["normalize", "eq"])
def test_tracing_the_corpus_prints_steps_and_the_same_results(capsys, mode, name):
    path = str(CORPUS / name)
    untraced = _run(capsys, mode, path)
    code, out, err = _run(capsys, mode, "--trace", path)
    assert (code, out) == untraced[:2] == (0, untraced[1])
    for line in err.splitlines():
        assert re.match(r"[a-z-]+ @ \S+: .+ ==> .+", line), line


def test_tracing_the_corpus_takes_a_remembered_heads_steps_once(capsys):
    # 55 steps while only whole terms were remembered: 7 of them were taken
    # again on a head that other unnormalized syntax had already reached
    paths = [str(CORPUS / "basics.catt"), str(CORPUS / "monoidal.catt")]
    untraced = _run(capsys, "normalize", *paths)
    code, out, err = _run(capsys, "normalize", "--trace", *paths)
    assert (code, out) == untraced[:2] == (0, untraced[1])
    assert len(err.splitlines()) == 48


_EH = CORPUS / "eckmann_hilton.catt"
_EH_CTX = "(x : *) (a : id x => id x) (b : id x => id x)"


def test_eckmann_hilton_composed_in_the_wrong_order_fails_to_infer(capsys, tmp_path):
    # eh a b runs from vert a b to vert b a, so composing it after the
    # identity on vert b a leaves no consistent middle 2-cell
    path = tmp_path / "wrong.catt"
    text = _EH.read_text()
    line = text.count("\n") + 1
    path.write_text(text + f"def wrong {_EH_CTX} := "
                    "vert3 (id2 (vert b a)) (vert3 (eh a b) (id2 (vert a b)))\n")
    code, out, err = _run(capsys, "check", str(path))
    assert (code, out) == (1, "")
    assert re.fullmatch(rf"{re.escape(str(path))}:{line}:\d+: InferenceFailure: .+\n", err), err


def test_eckmann_hilton_takes_eighteen_cold_steps(capsys):
    # 18 traced steps; the verdict is a cold run's whatever the memos hold
    path = str(_EH)
    line = next(i for i, s in enumerate(_EH.read_text().splitlines(), 1)
                if s.startswith("normalize"))
    untraced = _run(capsys, "normalize", path)
    assert len(_run(capsys, "normalize", "--trace", path)[2].splitlines()) == 18
    code, out, err = _run(capsys, "normalize", "--step-budget", "17", path)
    assert (code, out) == (1, "")
    assert err.startswith(f"{path}:{line}:1: StepBudgetExceeded: ")
    assert _run(capsys, "normalize", "--step-budget", "18", path) == untraced
    assert untraced[0] == 0 and len(untraced[1]) == 698 + 1


def test_a_step_inside_a_cell_is_printed_over_its_heads_context(capsys, tmp_path):
    # the coherence's head has five variables, the declaration's context three
    path = tmp_path / "cell.catt"
    path.write_text("normalize (x(f)y) | coh (a(p)b(q)c : comp p (comp q (id c)) "
                    "-> comp p q) f (id y)\n")
    code, out, err = _run(capsys, "normalize", "--trace", str(path))
    assert (code, out) == (0, "coh (x(f)y : f -> f) f\n")
    assert err.splitlines()[:2] == [
        "insertion @ cell.src.arg[4]: coh (x(f)y(g)z : x -> z) g (coh (x : x -> x) z)"
        " ==> coh (x(f)y : x -> y) g   [S=[[],[]] P=[1] T=[] -> [[]]]",
        "disc-removal @ cell.src.arg[4]: coh (x(f)y : x -> y) g ==> g",
    ]
