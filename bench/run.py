"""Benchmark of the semistrict kernel, end to end and layer by layer.

    python3 bench/run.py --workload {surface,chains,population,all} \\
        --seed N --seconds S --trace {0,1}

The kernel is imported from the ``src`` directory of the checkout this
file sits in.  A generator process makes the workload's inputs from the seed,
then times passes over them, each pass in a fresh child interpreter (one
child at a time) until S seconds have gone.  It checks every verdict
against an answer known by construction, prints a report and, as the
last line, one JSON object with the metrics named in BENCHMARK.json: the
end-to-end ones with ``--trace 0``; with ``--trace 1``, the per-layer
ones from two extra traced passes.  ``all`` runs the three workloads in
turn.  Scratch files (generated inputs, child results, spans) go to
``.bench_work/``.  See README.md for the reasoning.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from surface_check import check_surface

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("surface", "chains", "population")
MIN_PASSES = 3  # timed passes per run, even when one pass outlasts --seconds
MIN_SETUPS = 9  # set-up samples per run; setup_s is their median
DEADLINE_S = 170  # a run must end within 180 s


def child(mode, spec, out, deadline):
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), mode, str(spec), str(out)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=deadline - time.perf_counter())
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"child {mode} pass failed with exit code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def judge(item, answer, verdict) -> str:
    """Why the item's outcome in one pass is wrong, or an empty string."""
    if "error" in verdict:
        return verdict["error"]
    if "exit" in verdict:
        return check_surface(item["path"], answer, verdict["exit"], verdict["out"], verdict["err"])
    if verdict["nf"] != answer["nf"]:
        return "normal form differs from the known answer"
    if answer["ty"] is not None and verdict["ty"] != answer["ty"]:
        return "type differs from the known answer"
    return ""


def scaled_times(res):
    """A pass's item times at the reference speed.  Each is scaled by the
    faster of the speed samples taken just before and just after it, so a
    sample slowed by something else never flatters an item."""
    marks, out, k = res["marks"], [], 0
    for i, t in enumerate(res["times"]):
        while marks[k + 1][0] <= i:
            k += 1
        out.append(t * calibrate.REFERENCE_S / min(marks[k][1], marks[k + 1][1]))
    return out


def slope(points):
    """Least-squares slope of log time on log size, with a separate
    intercept per family: a ratio within one run, so machine speed cancels."""
    fams = {}
    for fam, size, t in points:
        fams.setdefault(fam, []).append((math.log(size), math.log(t)))
    sxy = sxx = 0.0
    for pts in fams.values():
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
    return sxy / sxx


def measure(workload, seed, seconds, trace, units, bench):
    deadline = time.perf_counter() + DEADLINE_S
    wdir = WORK / workload
    wdir.mkdir(parents=True, exist_ok=True)
    subprocess.run([sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(wdir)],
                   cwd=ROOT, check=True, timeout=deadline - time.perf_counter())
    meta = json.loads((wdir / "answers.json").read_text())
    notes = [] if meta["deterministic"] else ["inputs differ between two generations from the same seed"]
    items, answers = meta["items"], meta["answers"]
    spec_path, out = wdir / "spec.json", wdir / "child.json"

    # an item fails when any pass got it wrong or raised; it is wrong
    # only when it completed with an answer other than the known one
    failed, wrong = {}, set()

    def judged(res, its=items, ans=answers):
        for it, a, v in zip(its, ans, res.pop("verdicts")):
            why = judge(it, a, v)
            if why:
                failed.setdefault(it["id"], why)
                if "error" not in v:
                    wrong.add(it["id"])
        return res

    child("setup", spec_path, out, deadline)  # compiles bytecode; not measured
    passes = []
    t_pass = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t_pass < seconds:
        passes.append(judged(child("pass", spec_path, out, deadline)))
    setups = list(passes)
    while len(setups) < MIN_SETUPS:
        setups.append(child("setup", spec_path, out, deadline))
    traced = [judged(child("trace", spec_path, wdir / f"trace{k}.json", deadline))
              for k in range(2 if trace else 0)]
    attempted = len(items)
    if "probe_items" in meta:
        judged(child("pass", wdir / "probes.json", out, deadline),
               meta["probe_items"], meta["probe_answers"])
        attempted += len(meta["probe_items"])

    # slow machine phases can outlast a run, so every time is scaled to
    # the reference speed (see calibrate.py) before taking medians
    ok = [i for i, it in enumerate(items) if it["id"] not in failed]
    scaled = [scaled_times(p) for p in passes]
    per_item = {i: statistics.median(s[i] for s in scaled) for i in ok}
    timed = list(per_item.values())
    if workload == "chains":
        points = [(items[i]["family"], items[i]["size"], t) for i, t in per_item.items()
                  if items[i]["family"][:-1] in ("left", "right")]
    else:
        points = [("all", items[i]["size"], t) for i, t in per_item.items()]
    e2e = {
        "setup_s": statistics.median(calibrate.REFERENCE_S * p["setup_s"] / p["setup_speed"]
                                     for p in setups),
        "decide_s": statistics.median(sum(s[i] for i in ok) for s in scaled),
        "verdict_ms_p50": 1000 * statistics.median(timed),
        "verdict_ms_p90": 1000 * statistics.quantiles(timed, n=10)[-1],
        "peak_rss_mib": statistics.median(p["rss_mib"] for p in passes),
        "size_slope": slope(points),
    }
    layers = {}
    if traced:
        a, b = (t["layers"] for t in traced)
        for name in a:
            if name.endswith("_s"):
                layers[name] = (a[name] + b[name]) / 2
            else:
                layers[name] = a[name]
                if a[name] != b[name]:
                    notes.append(f"counter {name} differs between traced passes: "
                                 f"{a[name]} vs {b[name]}")
        traced_s = statistics.median(sum(s[i] for i in ok) for s in map(scaled_times, traced))
        layers["trace.overhead_ratio"] = traced_s / e2e["decide_s"]
    report(workload, seed, len(passes), items, attempted, failed, e2e, layers, notes, units)
    chosen = layers if trace else e2e
    wanted = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    print(json.dumps({
        "correct": not wrong and not notes,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {n: {"value": chosen[n], "unit": units[n]} for n in wanted},
    }), flush=True)


def report(workload, seed, n_passes, items, attempted, failed, e2e, layers, notes, units):
    print(f"workload {workload}, seed {seed}: {n_passes} timed passes in fresh "
          f"interpreters, {len(items)} timed items"
          + (f", {attempted - len(items)} failure probes" if attempted > len(items) else ""))
    for name, value in e2e.items():
        print(f"  {name:<30} {value:12.6g} {units[name]}")
    if workload == "chains":
        print(f"  {'chain_slope':<30} {e2e['size_slope']:12.6g} (size_slope on chains)")
    print(f"  {'failed_ratio':<30} {len(failed) / attempted:12.6g} "
          f"({len(failed)} failed of {attempted} attempted items)")
    for ident, why in list(failed.items())[:10]:
        print(f"    failed {ident}: {why}")
    for name, value in layers.items():
        print(f"  {name:<30} {value:12.6g} {units[name]}")
    for note in notes:
        print(f"  CHECK FAILED: {note}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "semistrict" / "__init__.py").is_file():
        sys.exit(f"no kernel source under {ROOT / 'src'}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        measure(workload, args.seed, args.seconds, args.trace, units, bench)


if __name__ == "__main__":
    main()
