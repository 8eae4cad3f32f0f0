"""One pass over a workload's items in a fresh interpreter.

    python3 bench/child.py MODE SPEC OUT

MODE is ``setup`` (time set-up only), ``pass`` (time every item) or
``trace`` (one pass with spans recorded at the kernel's boundaries).
The kernel is imported from the ``src`` directory of the checkout this
file sits in, with cold caches and the interpreter's default recursion
limit, exactly as a ``semistrict`` invocation starts.  The machine's
speed is sampled (``calibrate``) just before set-up, and between items
every CALIBRATE_EVERY_S during the pass.
Results go to the JSON file OUT.
"""

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import calibrate
import codec

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

CALIBRATE_EVERY_S = 0.2  # between items, so slow machine phases are seen


def setup() -> float:
    """What every semistrict invocation pays before its first declaration."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import semistrict.cli
    from semistrict import elaborate
    elaborate.prelude()
    took = time.perf_counter() - t0
    if not semistrict.__file__.startswith(SRC + os.sep):
        sys.exit(f"imported semistrict from {semistrict.__file__}, not from {SRC}")
    return took


def main(mode, spec_path, out_path):
    before = min(calibrate.sample() for _ in range(3))
    result = {"setup_s": setup(), "setup_speed": before}
    if mode == "setup":
        return result
    with open(spec_path) as fh:
        spec = json.load(fh)
    from semistrict import check, cli, rewriting, syntax
    kernel = "table" in spec
    if kernel:
        nodes = codec.decode(spec["table"], syntax)
        items = [(syntax.Context(tuple((f"v{j}", nodes[r]) for j, r in enumerate(it["ctx"]))),
                  nodes[it["term"]]) for it in spec["items"]]

        def run(ctx, term):
            return check.infer_term(ctx, term), rewriting.normalize(term)
    else:
        items = [(it["mode"], it["path"]) for it in spec["items"]]

        def run(mode_, path):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main([mode_, path])
            return code, out.getvalue(), err.getvalue()

    tracer = None
    if mode == "trace":
        import tracing
        # every wrapper adds a frame below each kernel frame; scale the
        # limit so the traced pass reaches the depths the untraced one does
        sys.setrecursionlimit(sys.getrecursionlimit() * 3)
        tracer = tracing.Tracer()
        state = tracing.kernel_state()
        tracer.install()

    times, outcomes = [], []
    marks = [[0, calibrate.sample()]]  # [i, s]: a speed sample taken just before item i
    last = time.perf_counter()
    for i, args in enumerate(items):
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            marks.append([i, calibrate.sample()])
            last = time.perf_counter()
        t = time.perf_counter()
        try:
            got = tracer.run_item(i, run, *args) if tracer else run(*args)
            error = None
        except Exception as e:  # any exception is the item's failure, kept and reported
            got, error = None, f"{type(e).__name__}: {str(e)[:200]}"
        times.append(time.perf_counter() - t)
        outcomes.append((got, error))
    result["times"] = times
    result["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    marks.append([len(items), calibrate.sample()])
    result["marks"] = marks

    verdicts = []
    for got, error in outcomes:
        if error is not None:
            verdicts.append({"error": error})
        elif kernel:
            ty, nf = got
            verdicts.append({"ty": codec.digest([ty], syntax), "nf": codec.digest([nf], syntax)})
        else:
            code, out, err = got
            verdicts.append({"exit": code, "out": out, "err": err})
    result["verdicts"] = verdicts

    if tracer is not None:
        after = tracing.kernel_state()
        parsed = sum(it.get("size", 0) for it in spec["items"]) if not kernel else 0
        result["layers"] = tracing.layer_metrics(tracer.self_times(), state, after, parsed)
        tracer.write(out_path[:-len(".json")] + "-spans")
    return result


if __name__ == "__main__":
    res = main(*sys.argv[1:4])
    with open(sys.argv[3], "w") as fh:
        json.dump(res, fh)
