"""Seeded inputs for the three workloads, each with its known answer.

    python3 bench/workloads.py WORKLOAD SEED WORKDIR

runs in a process of its own.  It writes the children's inputs (a node
table, or file paths) and, apart from them, the answers for ``run.py``.
A child never sees the answers, and nothing it receives was computed in
its own interpreter, so its kernel caches start cold.

- ``chains``: bracketings of n-arrow ``comp`` chains.  Every bracketing
  normalizes to the unbiased composite ``unbiased_coh(d, tree)`` and has
  the unbiased type, by the paper's coherence theorem.
- ``population``: ``harness.gen_population`` terms; the reference normal
  form comes from the independent outermost-strategy oracle
  ``normalize_first_step``.
- ``surface``: generated ``.catt`` files and the corpus, with outcomes
  fixed by construction (see ``surface_check``).
"""

from __future__ import annotations

import json
import random
import sys

import codec

CHAIN_SIZES = (40, 80, 160, 320)
# random bracketings per size; the many small ones give p90 its ten
# samples, the few large ones keep a pass near five seconds
CHAIN_RANDOM = {40: 50, 80: 12, 160: 2, 320: 1}
# left- and right-nested dimension-2 copies stop here: at n=320 the two
# take about 7 s, more than the rest of the pass together
D2_NESTED_MAX = 160
# n=400 fails today with RecursionError under the default limit; the
# probes are attempted in every run, counted as failures, never timed
PROBE_SIZE = 400
POPULATION_COUNT = 3000
SURFACE_FILES = 200
# hand-written from the coherence theorem, not from kernel output:
# basics.catt's four asserteq hold; unitor-r f and assoc f g h are
# 2-cell laws (one identity around f, resp. around the composite f g h);
# twocell a = vert (id1 f) a is the unit law, so it normalizes to a;
# triangle and pentagon are 3-cell laws (two identities)
CORPUS = {
    "basics.catt": {
        "eq": {"exit": 0, "err": [],
               "out": [["verdict", ln, "ok"] for ln in (3, 4, 5, 6)]},
        "normalize": {"exit": 0, "err": [],
                      "out": [["cell", 1, ["f"]], ["cell", 1, ["f", "g", "h"]],
                              ["cell", 0, ["a"]]]},
    },
    "monoidal.catt": {
        "eq": {"exit": 0, "err": [], "out": []},
        "normalize": {"exit": 0, "err": [],
                      "out": [["cell", 2, ["f", "g"]],
                              ["cell", 2, ["f", "g", "h", "i"]]]},
    },
}


def _kernel():
    from semistrict import syntax, trees, unbiased
    return syntax, trees, unbiased


# --- chains ------------------------------------------------------------------

def _bracketing(rng, n, shape, lo=0, hi=None):
    """A bracketing of arrows lo..hi as nested (left, right) pairs; leaves are ints."""
    hi = n if hi is None else hi
    if hi - lo == 1:
        return lo
    if shape == "left":
        cut = hi - 1
    elif shape == "right":
        cut = lo + 1
    else:
        cut = rng.randint(lo + 1, hi - 1)
    return (_bracketing(rng, n, shape, lo, cut), _bracketing(rng, n, shape, cut, hi))


def _chain_item(n, br, pad, dim):
    """(ctx, term, expected type, expected normal form) for one bracketing."""
    S, T, U = _kernel()
    tree = ((),) * n
    pts, arrows = T.point_positions(tree), T.block_starts(tree)
    shift = tuple(S.Var(pad + i) for i in range(T.ctx_len(tree)))
    comp = U.unbiased_type(1, ((), ()))

    def build(b):
        # iterative post-order, so a 400-deep bracketing needs no stack
        done, stack = {}, [(b, False)]
        while stack:
            x, expanded = stack.pop()
            if isinstance(x, int):
                done[x] = (x, x + 1, shift[arrows[x]])
            elif expanded:
                (lo, mid, l), (_, hi, r) = done[x[0]], done[x[1]]
                args = (shift[pts[lo]], shift[pts[mid]], l, shift[pts[hi]], r)
                done[x] = (lo, hi, S.Coh(((), ()), comp, args))
            else:
                stack += [(x, True), (x[1], False), (x[0], False)]
        return done[b][2]

    base = T.tree_to_ctx(tree)
    ctx = S.Context(tuple((f"p{j}", S.STAR) for j in range(pad))
                    + tuple((nm, S.apply_sub_type(ty, shift)) for nm, ty in base.entries))
    term, args = build(br), shift
    if dim == 2:
        ctx, term, args = T.suspend_ctx(ctx), T.suspend_term(term), T.suspend_sub(shift)
        tree = T.suspend_tree(tree)
    nf = S.apply_sub_term(U.unbiased_coh(dim, tree), args)
    return ctx, term, S.apply_sub_type(U.unbiased_type(dim, tree), args), nf


def chains(seed: int):
    """Timed items and failure probes; items ordered by dimension, then size.

    The dimension-2 items are the same bracketings, suspended.  Each size class gets its own padding of leading objects, so that the
    left-nested chain of one size never shares a prefix with another's.
    """
    rng = random.Random(seed)
    shapes = {n: [(s, _bracketing(rng, n, s)) for s in ["left", "right"] + ["random"] * CHAIN_RANDOM[n]]
              for n in CHAIN_SIZES}
    specs = []
    for dim in (1, 2):
        for k, n in enumerate(CHAIN_SIZES):
            for j, (shape, br) in enumerate(shapes[n]):
                if dim == 2 and shape != "random" and n > D2_NESTED_MAX:
                    continue
                specs.append((f"d{dim}-n{n}-{shape}-{j}", n, shape, dim, k, br))
    probes = [(f"probe-n{PROBE_SIZE}-{shape}", PROBE_SIZE, shape, 1, 0,
               _bracketing(rng, PROBE_SIZE, shape)) for shape in ("left", "right")]
    return _kernel_items(specs), _kernel_items(probes)


def _kernel_items(specs):
    S = _kernel()[0]
    items, answers, roots = [], [], []
    for ident, n, shape, dim, pad, br in specs:
        ctx, term, ty, nf = _chain_item(n, br, pad, dim)
        at = len(roots)
        roots += list(ctx.types) + [term]
        items.append({"id": ident, "size": n, "family": f"{shape}{dim}",
                      "ctx": [at, at + len(ctx)], "term": at + len(ctx)})
        answers.append({"ty": codec.digest([ty], S), "nf": codec.digest([nf], S)})
    return _pack(items, roots), answers


def _pack(items, roots):
    S = _kernel()[0]
    table, idx = codec.encode(roots, S)
    for it in items:
        lo, hi = it.pop("ctx")
        it["ctx"] = idx[lo:hi]
        it["term"] = idx[it["term"]]
    return {"table": table, "items": items}


# --- population --------------------------------------------------------------

def population(seed: int):
    """Inputs only; the reference normal forms come from population_answers."""
    from semistrict.harness import GenConfig, gen_population
    S = _kernel()[0]
    # gen_population may return more than asked; the workload is exactly
    # the first POPULATION_COUNT terms either way
    pop = gen_population(GenConfig(seed=seed), POPULATION_COUNT)[:POPULATION_COUNT]
    items, roots = [], []
    for i, (ctx, t) in enumerate(pop):
        at = len(roots)
        roots += list(ctx.types) + [t]
        items.append({"id": f"pop-{i}", "size": len(codec.encode([t], S)[0]),
                      "family": "population", "ctx": [at, at + len(ctx)],
                      "term": at + len(ctx)})
    return _pack(items, roots), [t for _, t in pop]


def population_answers(terms):
    from semistrict.rewriting import normalize_first_step
    S = _kernel()[0]
    return [{"ty": None, "nf": codec.digest([normalize_first_step(t)], S)} for t in terms]


# --- surface -----------------------------------------------------------------

def _paren(s: str) -> str:
    return s if " " not in s else f"({s})"


def _bracket(rng, atoms, op) -> str:
    if len(atoms) == 1:
        return atoms[0]
    cut = rng.randint(1, len(atoms) - 1)
    return f"{op} {_paren(_bracket(rng, atoms[:cut], op))} {_paren(_bracket(rng, atoms[cut:], op))}"


def _with_units(rng, cells, joints, unit, p=0.25):
    """Interleave unit atoms at random joints: joints[i] sits before cells[i]."""
    out = []
    for i, c in enumerate(cells + [None]):
        if rng.random() < p:
            out.append(f"({unit} {joints[i]})")
        if c is not None:
            out.append(c)
    return out


class _Chain:
    """The 1-dimensional chain x0 -f1-> x1 ... -fk-> xk in paren notation."""

    def __init__(self, k):
        self.k = k
        self.objs = [f"x{i}" for i in range(k + 1)]
        self.arrows = [f"f{i}" for i in range(1, k + 1)]
        self.ps = "(x0" + "".join(f"(f{i})x{i}" for i in range(1, k + 1)) + ")"

    def composite(self, rng, lo=0, hi=None, units=True):
        hi = self.k if hi is None else hi
        cells = self.arrows[lo:hi]
        atoms = _with_units(rng, cells, self.objs[lo:hi + 1], "id") if units else cells
        return _bracket(rng, atoms, "comp")

    def groups(self, rng, g):
        """Bracketed composites of g consecutive, nonempty groups of arrows."""
        cuts = sorted(rng.sample(range(1, self.k), g - 1))
        bounds = [0] + cuts + [self.k]
        return [_paren(self.composite(rng, a, b, units=False))
                for a, b in zip(bounds, bounds[1:])]


def _eq_file(rng, count):
    decls, out, err = [], [], []

    def add(text, verdict=None, diag=None):
        decls.append(text)
        line = len(decls) + 1
        if verdict:
            out.append(["verdict", line, verdict])
        if diag:
            err.append([line, diag])

    for _ in range(count):
        roll = rng.random()
        if roll < 0.3:
            c = _Chain(rng.randint(2, 9))
            add(f"asserteq {c.ps} | {c.composite(rng)} = {c.composite(rng)}", "ok")
        elif roll < 0.45:
            k = rng.randint(2, 6)
            ps = "(x(g0" + "".join(f"(a{i})g{i}" for i in range(1, k + 1)) + ")y)"
            cells = [f"a{i}" for i in range(1, k + 1)]
            joints = [f"g{i}" for i in range(k + 1)]
            lhs = _bracket(rng, _with_units(rng, cells, joints, "id1"), "vert")
            rhs = _bracket(rng, _with_units(rng, cells, joints, "id1"), "vert")
            add(f"asserteq {ps} | {lhs} = {rhs}", "ok")
        elif roll < 0.8:
            # endo-cells: words are equal exactly when they are the same
            # word, so swapping two distinct neighbours plants a FAIL
            two = rng.random() < 0.4
            letters = ["b1", "b2", "b3"] if two else ["e1", "e2", "e3"]
            if two:
                ctx = "(x : *) (y : *) (g : x -> y) " + " ".join(f"({b} : g => g)" for b in letters)
                unit, op, joint = "id1", "vert", "g"
            else:
                ctx = "(x : *) " + " ".join(f"({e} : x -> x)" for e in letters)
                unit, op, joint = "id", "comp", "x"
            word = [rng.choice(letters) for _ in range(rng.randint(3, 8))]
            while len(set(word)) == 1:
                word = [rng.choice(letters) for _ in range(len(word))]
            other = list(word)
            if rng.random() < 0.5:
                i = rng.choice([i for i in range(len(word) - 1) if word[i] != word[i + 1]])
                other[i], other[i + 1] = other[i + 1], other[i]
            joints = [joint] * (len(word) + 1)
            lhs = _bracket(rng, _with_units(rng, word, joints, unit), op)
            rhs = _bracket(rng, _with_units(rng, other, joints, unit), op)
            add(f"asserteq {ctx} | {lhs} = {rhs}", "ok" if other == word else "FAIL")
        elif roll < 0.9:
            k = rng.randint(2, 5)
            c, big = _Chain(k), _Chain(k + rng.randint(0, 3))
            name = f"d{len(decls)}"
            add(f"def {name} {c.ps} := {c.composite(rng)}")
            add(f"asserteq {big.ps} | {name} {' '.join(big.groups(rng, k))} = {big.composite(rng)}", "ok")
        else:
            c = _Chain(rng.randint(3, 6))
            kind = rng.choice(["InferenceFailure", "ArityMismatch", "UnknownVariable", "TypeMismatch"])
            ps, good = c.ps, c.composite(rng)
            bad = {"InferenceFailure": "comp f1 f3",  # f1 ends at x1, f3 starts at x2
                   "ArityMismatch": "comp f1",
                   "UnknownVariable": "comp f1 q9",
                   "TypeMismatch": "comp a1 g1"}[kind]  # a 2-cell where an arrow goes
            if kind == "TypeMismatch":
                ps, good = "(x(g0(a1)g1)y)", "a1"
            add(f"asserteq {ps} | {bad} = {good}", diag=kind)
    failing = any(v[2] == "FAIL" for v in out) or err
    return decls, {"exit": 1 if failing else 0, "out": out, "err": err}


TRIANGLE = ("(x(f)y(g)z) : vert (assoc f (id y) g) (horiz (id1 f) (unitor-l g))"
            " => horiz (unitor-r f) (id1 g)")


def _normalize_file(rng, count):
    decls, out = [], []
    k = rng.randint(2, 4)
    law = _Chain(k)
    decls.append(f"coh r {law.ps} : {law.composite(rng)} -> {law.composite(rng)}")
    decls.append(f"def e {law.ps} := vert (r {' '.join(law.arrows)}) (r {' '.join(law.arrows)})")
    decls.append(f"coh tri {TRIANGLE}")
    for _ in range(count):
        roll = rng.random()
        if roll < 0.25:
            c = _Chain(k + rng.randint(0, 4))
            body, depth = f"r {' '.join(c.groups(rng, k))}", 1
        elif roll < 0.4:
            c = _Chain(k + rng.randint(0, 3))
            body = (f"vert (r {' '.join(c.groups(rng, k))}) "
                    f"(r {' '.join(c.groups(rng, k))})")
            depth = 1
        elif roll < 0.55:
            c = _Chain(k + rng.randint(0, 3))
            body, depth = f"e {' '.join(c.groups(rng, k))}", 1
        elif roll < 0.7:
            c = _Chain(rng.randint(3, 7))
            body, depth = f"assoc {' '.join(c.groups(rng, 3))}", 1
        elif roll < 0.85:
            c = _Chain(rng.randint(1, 6))
            unitor = rng.choice(["unitor-l", "unitor-r"])
            body, depth = f"{unitor} {_paren(c.composite(rng, units=False))}", 1
        else:
            c = _Chain(rng.randint(2, 6))
            body, depth = f"tri {' '.join(c.groups(rng, 2))}", 2
        decls.append(f"normalize {c.ps} | {body}")
        out.append(["cell", depth, c.arrows])
    return decls, {"exit": 0, "out": out, "err": []}


def surface(seed: int, root, gen_dir):
    """(spec, answers, files to write) with the corpus appended."""
    rng = random.Random(seed)
    items, answers, files = [], [], {}
    for i in range(SURFACE_FILES):
        # the seed varies what the files say; their mix of lengths is fixed
        mode = "eq" if i % 2 == 0 else "normalize"
        count = 2 + (i // 2) % 8
        decls, expected = (_eq_file if mode == "eq" else _normalize_file)(rng, count)
        text = f"# generated input {i}, seed {seed}\n" + "\n".join(decls) + "\n"
        path = gen_dir / f"s{i:03d}.catt"
        files[path] = text
        items.append({"id": path.name, "mode": mode,
                      "path": str(path.relative_to(root)), "size": len(text.encode())})
        answers.append(expected)
    for name, modes in CORPUS.items():
        path = root / "corpus" / name
        if not path.is_file():
            sys.exit(f"missing corpus file {path}")
        for mode, expected in modes.items():
            items.append({"id": f"{name}:{mode}", "mode": mode,
                          "path": str(path.relative_to(root)),
                          "size": path.stat().st_size})
            answers.append(expected)
    return {"items": items}, answers, files


def generate(workload, seed, root, wdir, answer=True):
    """Inputs, files and answers of one workload; probes are chains only."""
    out = {"probes": None, "probe_answers": None, "files": {}}
    if workload == "chains":
        (out["spec"], out["answers"]), (out["probes"], out["probe_answers"]) = chains(seed)
    elif workload == "population":
        out["spec"], terms = population(seed)
        out["answers"] = population_answers(terms) if answer else None
    else:
        out["spec"], out["answers"], out["files"] = surface(seed, root, wdir / "surface")
    return out


def _inputs(gen) -> str:
    return json.dumps([gen["spec"], gen["probes"],
                       sorted((str(p), t) for p, t in gen["files"].items())])


def main(workload, seed, wdir):
    """Write a workload's inputs for the children, and its answers for
    ``run.py``, which so never holds kernel terms and stays smaller than
    any child: a child's ru_maxrss counts its parent's resident set too."""
    from pathlib import Path
    root, wdir, seed = Path(__file__).resolve().parent.parent, Path(wdir), int(seed)
    sys.path.insert(0, str(root / "src"))
    sys.setrecursionlimit(20000)  # dict lookups compare 400-deep input terms
    gen = generate(workload, seed, root, wdir)
    same = _inputs(gen) == _inputs(generate(workload, seed, root, wdir, answer=False))
    (wdir / "surface").mkdir(parents=True, exist_ok=True)
    for old in (wdir / "surface").glob("*.catt"):
        old.unlink()
    for path, text in gen["files"].items():
        path.write_text(text, encoding="utf-8")
    (wdir / "spec.json").write_text(json.dumps(gen["spec"]))
    meta = {"deterministic": same, "answers": gen["answers"],
            "items": [{k: v for k, v in it.items() if k not in ("ctx", "term")}
                      for it in gen["spec"]["items"]]}
    if gen["probes"] is not None:
        (wdir / "probes.json").write_text(json.dumps(gen["probes"]))
        meta["probe_items"] = gen["probes"]["items"]
        meta["probe_answers"] = gen["probe_answers"]
    (wdir / "answers.json").write_text(json.dumps(meta))


if __name__ == "__main__":
    main(*sys.argv[1:4])
