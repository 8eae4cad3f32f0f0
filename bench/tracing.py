"""Span tracing at the kernel's module boundaries, from the outside.

Each wrapped function is replaced under the name its caller looks it
up by: ``semistrict.check.def_eq`` and ``semistrict.elaborate.def_eq``
are the same function but distinct spans, and methods are wrapped on
the class.  A span is (name, start, end, parent span, item); spans stay
in flat arrays in memory and are written out once the pass ends.

Rule steps are counted from results of ``disc_removal``,
``endo_coherence_removal`` and ``apply_insertion``, never through the
normalizer's ``trace=`` hook, which swaps the global normal-form memo
for fresh per-call tables and so runs a different program.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

# (module, attribute, class or None, layer); the span name is the
# caller's lookup path, the layer is where the time is booked
WRAPS = [
    ("semistrict.cli", "main", None, "cli"),
    ("semistrict.parser", "parse", None, "parser"),
    ("semistrict.cli", "process_decl", None, "elaborate"),
    ("semistrict.cli", "normalize", None, "rewriting"),
    ("semistrict.cli", "fmt_term", None, "printer"),
    ("semistrict.elaborate", "infer_term", None, "check"),
    ("semistrict.elaborate", "def_eq", None, "rewriting"),
    ("semistrict.check", "infer_term", None, "check"),
    ("semistrict.check", "_infer", None, "check"),
    ("semistrict.check", "def_eq", None, "rewriting"),
    ("semistrict.rewriting", "normalize", None, "rewriting"),
    ("semistrict.rewriting", "term", "Normalizer", "rewriting"),
    ("semistrict.rewriting", "_term", "Normalizer", "rewriting"),
    ("semistrict.rewriting", "disc_removal", None, "rewriting"),
    ("semistrict.rewriting", "endo_coherence_removal", None, "rewriting"),
    ("semistrict.rewriting", "apply_insertion", None, "insertion"),
    ("semistrict.rewriting", "find_redexes", None, "insertion"),
    ("semistrict.rewriting", "exterior_sub", None, "insertion"),
    ("semistrict.rewriting", "inserted_sub", None, "insertion"),
    ("semistrict.rewriting", "apply_sub_type", None, "syntax"),
    ("semistrict.rewriting", "apply_sub_term", None, "syntax"),
]
ITEM = "bench.item"  # the benchmark's own span around one item


def _name(mod, attr, cls):
    return f"{mod}.{cls}.{attr}" if cls else f"{mod}.{attr}"


class Tracer:
    def __init__(self):
        self.names = [ITEM] + [_name(m, a, c) for m, a, c, _ in WRAPS]
        self.layers = ["unattributed"] + [layer for *_, layer in WRAPS]
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self.truthy = [0] * len(self.names)  # calls that returned a non-empty result
        self.stack = [-1]
        self.current = -1

    def _wrap(self, fn, k):
        kind, start, end, parent, item = self.kind, self.start, self.end, self.parent, self.item
        stack, truthy, clock = self.stack, self.truthy, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(kind)
            kind.append(k)
            parent.append(stack[-1])
            item.append(self.current)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if out:
                truthy[k] += 1
            return out
        return wrapper

    def install(self):
        for k, (mod, attr, cls, _) in enumerate(WRAPS, start=1):
            owner = importlib.import_module(mod)
            if cls:
                owner = getattr(owner, cls)
            setattr(owner, attr, self._wrap(getattr(owner, attr), k))

    def run_item(self, index, fn, *args):
        self.current = index
        return self._wrap(fn, 0)(*args)

    def self_times(self):
        """Per span name: (calls, non-empty results, self seconds, layer)."""
        n = len(self.kind)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.kind[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
        return {self.names[k]: (calls[k], self.truthy[k], self_s[k], self.layers[k])
                for k in range(len(self.names))}

    def write(self, prefix):
        """Spans as raw arrays plus a JSON header naming the layout."""
        cols = ["kind", "start", "end", "parent", "item"]
        with open(f"{prefix}.bin", "wb") as fh:
            for c in cols:
                getattr(self, c).tofile(fh)
        header = {"spans": len(self.kind), "names": self.names, "layers": self.layers,
                  "columns": [[c, getattr(self, c).typecode] for c in cols]}
        with open(f"{prefix}.json", "w") as fh:
            json.dump(header, fh)


def lru_stats(module) -> tuple:
    """(hits, misses, entries) summed over a module's lru caches."""
    hits = misses = size = 0
    for value in vars(module).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            ci = info()
            hits, misses, size = hits + ci.hits, misses + ci.misses, size + ci.currsize
    return hits, misses, size


def kernel_state():
    """Cache sizes and lru counters, read without touching any cache."""
    from semistrict import check, rewriting, trees, unbiased
    nf = sum(len(d) for d in rewriting._NF_TERMS.values())
    nf += sum(len(d) for d in rewriting._NF_TYPES.values())
    return {"nf_entries": nf, "infer_entries": len(check._INFER_CACHE),
            "trees": lru_stats(trees), "unbiased": lru_stats(unbiased)}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans: dict, before: dict, after: dict, parsed_bytes: int) -> dict:
    """The per-layer figures of one traced pass, keyed by metric name."""
    def calls(*names):
        return sum(spans[n][0] for n in names)

    def secs(*names):
        return sum(spans[n][2] for n in names)

    def layer_s(layer):
        return sum(v[2] for v in spans.values() if v[3] == layer)

    c, r = "semistrict.check.", "semistrict.rewriting."
    infer = calls("semistrict.elaborate.infer_term", c + "infer_term")
    parse_s = secs("semistrict.parser.parse")
    out = {
        "parser.parse_s": parse_s,
        "parser.kb_per_s": _ratio(parsed_bytes / 1000, parse_s),
        "cli.self_s": layer_s("cli"),
        "printer.fmt_s": layer_s("printer"),
        "elaborate.self_s": layer_s("elaborate"),
        "elaborate.decls": calls("semistrict.cli.process_decl"),
        "elaborate.def_eq_calls": calls("semistrict.elaborate.def_eq"),
        "check.self_s": layer_s("check"),
        "check.infer_calls": infer,
        "check.infer_miss_ratio": _ratio(calls(c + "_infer"), infer),
        "check.def_eq_calls": calls(c + "def_eq"),
        "check.infer_entries": after["infer_entries"],
        "rewriting.self_s": layer_s("rewriting"),
        "rewriting.normalize_calls": calls("semistrict.cli.normalize", r + "normalize"),
        "rewriting.term_calls": calls(r + "Normalizer.term"),
        "rewriting.memo_miss_ratio": _ratio(calls(r + "Normalizer._term"),
                                            calls(r + "Normalizer.term")),
        "rewriting.steps_dr": spans[r + "disc_removal"][1],
        "rewriting.steps_ecr": spans[r + "endo_coherence_removal"][1],
        "rewriting.steps_ins": calls(r + "apply_insertion"),
        "rewriting.nf_entries": after["nf_entries"],
        "insertion.find_redexes_calls": calls(r + "find_redexes"),
        "insertion.find_redexes_s": secs(r + "find_redexes"),
        "insertion.hit_ratio": _ratio(spans[r + "find_redexes"][1], calls(r + "find_redexes")),
        "insertion.apply_s": secs(r + "apply_insertion"),
        "insertion.exterior_sub_s": secs(r + "exterior_sub"),
        "insertion.inserted_sub_s": secs(r + "inserted_sub"),
        "syntax.subst_s": layer_s("syntax"),
        "trace.unattributed_s": layer_s("unattributed"),
    }
    for mod in ("trees", "unbiased"):
        h0, m0, _ = before[mod]
        h1, m1, size = after[mod]
        out[f"{mod}.lru_hit_ratio"] = _ratio(h1 - h0, (h1 - h0) + (m1 - m0))
        out[f"{mod}.lru_entries"] = size
    return out
