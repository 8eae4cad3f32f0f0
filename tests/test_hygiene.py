"""Static hygiene of the package.

Every import is used, ``harness`` (generators, oracles and metatheory
helpers) stays out of the kernel, every top-level name in a kernel
module has a use outside its own definition, no kernel module keeps an
lru cache (a fact about a tree lives on the tree), the step enumerators
stay in ``harness``, and every kernel name the benchmark imports or
patches by string exists.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from semistrict import check, rewriting, syntax, trees
from semistrict.cli import main
from semistrict.harness import GenConfig, gen_population
from semistrict.syntax import Arrow, Coh, Tree

from conftest import TREE_FACTS, forget_tree_facts
from test_check import _clear_memos, _deep_chain

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semistrict"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
KERNEL = [p for p in MODULES if p.name != "harness.py"]
BENCH = sorted((ROOT / "bench").glob("*.py"))

# names a kernel module keeps without a use yet, each with its reason
UNUSED_ALLOWED = {
    # rewriting.clear_caches: empties the process-wide normal-form memos,
    # so a test can start from cold memos; the kernel keeps them for the
    # life of the process
    "clear_caches",
}

def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


def _used(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _local_imports(path):
    """(function, imported module) for each import inside a function."""
    out = []
    for fn in ast.walk(_parse(path)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    out.append((fn.name, node.module or ""))
                elif isinstance(node, ast.Import):
                    out.extend((fn.name, a.name) for a in node.names)
    return out


def _imports_harness(path):
    """Line of every import of the harness module, at any depth."""
    lines = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.ImportFrom):
            mods = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        else:
            continue
        if any(m.split(".")[-1] == "harness" for m in mods):
            lines.append(node.lineno)
    return lines


def _code_names(path):
    """(name, line) of every name, attribute and imported name in the code,
    leaving out strings and comments."""
    out = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out.extend((a.name, node.lineno) for a in node.names)
    return out


def _top_level_defs(path):
    """(name, first line, last line) of each top-level definition."""
    for node in _parse(path).body:
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, first, node.end_lineno


def test_modules_found():
    assert len(MODULES) >= 10
    assert len(KERNEL) == len(MODULES) - 1
    assert BENCH


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _parse(path)
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_the_only_import_inside_a_function_is_reports_harness():
    local = [(p.name, fn, mod) for p in sorted(SRC.glob("*.py"))
             for fn, mod in _local_imports(p)]
    assert local == [("cli.py", "run_report", "harness")]


def test_only_the_report_command_imports_harness():
    for path in sorted(SRC.glob("*.py")):
        if path.name != "cli.py":
            assert not _imports_harness(path), path.name
    report_imports = [node.lineno
                      for fn in ast.walk(_parse(SRC / "cli.py"))
                      if isinstance(fn, ast.FunctionDef) and fn.name == "run_report"
                      for node in ast.walk(fn)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert _imports_harness(SRC / "cli.py") == report_imports != []


def test_loading_the_cli_leaves_harness_unloaded():
    probe = "import sys, semistrict.cli; print('semistrict.harness' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "False"


def test_no_kernel_module_imports_dataclasses():
    # importing dataclasses pulls in inspect, and each @dataclass builds
    # its methods with exec on every start; only harness, which the CLI
    # loads lazily, may use them
    users = [p.name for p in KERNEL for node in ast.walk(_parse(p))
             if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
             or (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))]
    assert not users, f"modules importing dataclasses: {', '.join(users)}"


def test_starting_the_cli_loads_neither_dataclasses_nor_inspect():
    probe = ("import sys, semistrict.cli; from semistrict import elaborate; "
             "elaborate.prelude(); print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]"


def test_every_kernel_name_is_used_outside_its_definition():
    # a use is a name in the code of another module (not __init__, which
    # re-exports nothing) or of its own module outside its own definition,
    # so a recursive call does not count; bench/ looks some names up by
    # string, so there any word-bounded occurrence counts
    tokens = {p: _code_names(p) for p in MODULES}
    bench_text = "\n".join(p.read_text(encoding="utf-8") for p in BENCH)
    unused = []
    for path in KERNEL:
        elsewhere = {n for p, toks in tokens.items() if p != path for n, _ in toks}
        for name, first, last in _top_level_defs(path):
            if name in UNUSED_ALLOWED or name in elsewhere:
                continue
            if any(n == name and not first <= line <= last for n, line in tokens[path]):
                continue
            if re.search(rf"\b{re.escape(name)}\b", bench_text):
                continue
            unused.append(f"{path.stem}.{name}")
    assert not unused, f"defined but used only by tests or not at all: {', '.join(unused)}"


def _lru_cached(path):
    """Name of each function an ``lru_cache`` or ``cache`` decorates."""
    for node in ast.walk(_parse(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in node.decorator_list:
                f = d.func if isinstance(d, ast.Call) else d
                if getattr(f, "id", getattr(f, "attr", None)) in ("lru_cache", "cache"):
                    yield node.name


def test_no_kernel_module_keeps_an_lru_cache():
    # a fact about a tree lives on the tree, filled by the function that
    # builds it, and a table keyed by more than a tree is a plain dict;
    # an lru cache would be a second home, keyed by a plain tuple too
    cached = [f"{p.name}: {name}" for p in KERNEL for name in _lru_cached(p)]
    assert not cached, f"lru caches in the kernel: {', '.join(cached)}"
    users = [p.name for p in KERNEL for node in ast.walk(_parse(p))
             if (isinstance(node, ast.ImportFrom) and node.module == "functools")
             or (isinstance(node, ast.Import) and any(a.name == "functools" for a in node.names))]
    assert not users, f"kernel modules importing functools: {', '.join(users)}"


def _object_new_calls(path):
    """(class name, enclosing function) of each ``object.__new__(X)`` or
    ``tuple.__new__(X, ...)`` call."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__new__"
                    and isinstance(child.func.value, ast.Name)
                    and child.func.value.id in ("object", "tuple")
                    and child.args):
                arg = child.args[0]
                out.append((arg.attr if isinstance(arg, ast.Attribute) else getattr(arg, "id", None),
                            fn))
            visit(child, inner)

    visit(_parse(path), None)
    return out


def test_interned_terms_are_made_only_by_their_constructors():
    # a Coh, Arrow or Tree made any other way would bypass the intern
    # table, and identity would no longer be syntactic equality
    files = MODULES + BENCH + sorted((ROOT / "tests").glob("*.py"))
    made = [(p.name, cls, fn) for p in files for cls, fn in _object_new_calls(p)
            if cls in ("Coh", "Arrow", "Tree")]
    assert sorted(made) == [("syntax.py", "Arrow", "__new__"), ("syntax.py", "Coh", "__new__"),
                            ("syntax.py", "Tree", "tree")]
    # neither class, nor a base, defines __eq__ or __hash__
    for cls in (Coh, Arrow):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    # a tree is hashed by identity and equals the plain tuple of its shape
    assert Tree.__eq__ is tuple.__eq__ and Tree.__hash__ is object.__hash__


def test_the_kernel_keeps_only_interned_trees(capsys):
    # the benchmark's children decode their inputs into interned syntax,
    # so from there on the kernel must make and pass interned trees only:
    # a plain tuple would hash by value in these tables, and miss, and
    # would keep no fact
    chains = [_deep_chain(n, shape) for n in (2, 40, 160) for shape in ("left", "right")]
    chains = [(trees.tree_to_ctx(tr), t) for tr, t in chains]
    pop = gen_population(GenConfig(seed=11), 300)
    _clear_memos()
    forget_tree_facts()
    for ctx, t in chains + pop:
        check.infer_term(ctx, t)
        rewriting.normalize(t)
    corpus = sorted(str(p) for p in (ROOT / "corpus").glob("*.catt"))
    for mode in ("check", "normalize", "eq"):
        assert main([mode, *corpus]) == 0
    capsys.readouterr()
    found = [key[0] for key in syntax._COHS]
    found += [x for key, head in rewriting._HEADS.items() for x in (key[0], key[3], head[0])]
    found += [head for head, _ in check._GOOD_HEADS]
    assert rewriting._HEADS and check._GOOD_HEADS
    plain = [x for x in found if type(x) is not Tree]
    assert not plain, f"plain tuples where trees belong: {plain[:5]}"
    # the run filled each fact on the trees it met: checking a head builds
    # its context, a found redex compared its argument's cell with an
    # unbiased type, and a head with a remembered step was scanned unless
    # a step built it and carried its redexes
    built = {head[0] for head in rewriting._HEADS.values()}
    assert all("ctx" in s.__dict__ for s, _ in check._GOOD_HEADS)
    assert all("unbiased" in key[3].__dict__ for key in rewriting._HEADS)
    assert all("branches" in key[0].__dict__ or key[0] in built for key in rewriting._HEADS)
    kept = [name for t in syntax._TREES.values() for name in TREE_FACTS if name in t.__dict__]
    assert set(kept) == set(TREE_FACTS)


def test_every_name_the_traced_benchmark_patches_resolves(monkeypatch):
    # bench/tracing.py names the functions it wraps by string, so a kernel
    # refactor that drops one breaks only a --trace 1 run; catch it here
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod, attr, cls, _ in tracing.WRAPS:
        owner = importlib.import_module(mod)
        if cls:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{mod}.{cls}.{attr}" if cls else f"{mod}.{attr}")
    assert not missing, f"bench/tracing.py wraps names that are gone: {', '.join(missing)}"
    state = tracing.kernel_state()
    assert {"nf_entries", "infer_entries", "trees", "unbiased"} <= set(state)


# the enumeration of every congruence-closed step is an oracle, not a rule
ENUMERATORS = {"one_step", "one_step_term", "one_step_type", "one_step_sub", "under"}


def test_no_kernel_module_defines_a_step_enumerator():
    found = [f"{p.name}: {node.name}" for p in KERNEL for node in ast.walk(_parse(p))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name in ENUMERATORS]
    assert not found, f"step enumerators in the kernel: {', '.join(found)}"


def test_every_name_the_benchmark_imports_resolves():
    # bench/ imports some names inside functions, so a refactor that moves
    # one breaks only the workload that calls it; catch it here
    seen, missing = set(), []
    for path in BENCH:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "semistrict":
                owner = importlib.import_module(node.module)
                for a in node.names:
                    name = f"{node.module}.{a.name}"
                    seen.add(name)
                    if not hasattr(owner, a.name):
                        try:
                            importlib.import_module(name)
                        except ImportError:
                            missing.append(f"{path.name}: {name}")
    assert not missing, f"bench/ imports names that are gone: {', '.join(missing)}"
    assert {"semistrict.rewriting.normalize_first_step", "semistrict.harness.gen_population"} <= seen
