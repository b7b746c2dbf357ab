#!/usr/bin/env python3
"""Bench gate: run the smoke matrix, diff every axis, compare with baselines.

Usage: tools/check_bench_regress.py [BUILD_DIR]      (default: build)

Each MATRIX row is (bench, fixed settings, axes). A setting that starts
with "--" is a command-line argument; any other is NAME=value in the
environment. The axes are crossed; the first combination is the row's
reference run, which every other run must reproduce. Each run gets the
caller's environment minus all CRONETS_* variables, plus
CRONETS_QUICK=1, and a fresh working directory under
bench_results/gate/. A run's JSON must read back the axis values it was
given (READBACK): its thread count, and its SIMD level, so an axis that
the program ignored cannot pass by comparing two identical runs. Each
bench's first reference run is then compared with its bench/baselines/
file (compare), and must fail against that baseline with its
fingerprints perturbed (perturb_errors). A lint (lint_errors) first fails
on a standard-library random engine or distribution anywhere under src/,
and on a node-based container (<set>, <map>, <unordered_map>,
<unordered_set>) in the hot-path modules: src/route/ and the src/sim/
headers. EXPERIMENTS.md ("CI gates") lists every rule.
"""

import copy
import difflib
import glob
import itertools
import json
import os
import re
import shutil
import subprocess
import sys

THREADS = ("CRONETS_THREADS", ("1", "4"))
SIMD = ("CRONETS_SIMD", ("auto", "scalar"))

MATRIX = [
    ("bench_fig2_weblarge", (), (THREADS, SIMD)),
    ("bench_fig3_controlled", (), ()),
    ("bench_fig6_longitudinal", (), ()),
    ("bench_micro", ("--benchmark_min_time=0.2",), ()),
    # ^$ skips the Google Benchmarks; the recorded sweep and its checks run.
    ("bench_micro", ("--benchmark_filter=^$",), (SIMD,)),
    ("bench_service_scale", (), (THREADS,)),
    ("bench_service_scale", (), (SIMD,)),
    *[("bench_service_scale",
       (f"CRONETS_COST_POLICY={policy}", "CRONETS_COST_BUDGET_USD=0.5"),
       (THREADS,))
      for policy in ("max_goodput_under_budget", "min_cost_meeting_slo",
                     "pareto")],
    ("bench_chaos", (), (THREADS,)),
    ("bench_multihop_routing", (), (THREADS,)),
    ("bench_multihop_routing", (), (SIMD,)),
    ("bench_cost_model", (), ()),
    ("bench_cost_pareto", (), (THREADS, SIMD)),
]

# Wall-clock gates cannot be seed-pure check rows: they read `extra` of
# each bench's first reference run. bench -> [(what, test, hard)].
GATES = {
    "bench_service_scale": [
        ("p99 decision latency under 50 us",
         lambda x: x.get("p99_under_50us") == 1.0, True)],
    "bench_micro": [
        ("scalar and batch kernel rates recorded",
         lambda x: min(x.get("scalar_pairs_per_s", 0),
                       x.get("batch_pairs_per_s", 0)) > 0, True),
        ("batched sampling kernel >= 1.5x scalar",
         lambda x: x.get("batch_pairs_per_s", 0) >=
         1.5 * x.get("scalar_pairs_per_s", 0), False)],
    "bench_chaos": [("extra recorded", bool, True)],
    "bench_cost_pareto": [("extra recorded", bool, True)],
}

# Where a run's JSON records an axis value it was given: name -> (field,
# does the recorded value honour the setting?). CRONETS_SIMD=auto picks a
# level the host runs; any other setting must be read back as given.
READBACK = {
    "CRONETS_THREADS": ("threads", lambda got, want: float(got) == float(want)),
    "CRONETS_SIMD": ("simd", lambda got, want: got in simd_levels()
                     if want == "auto" else got == want),
}

REQUIRED_FIELDS = ("bench", "seed", "threads", "simd", "wall_s", "pairs",
                   "pairs_per_s", "checks")
FILTER = re.compile(r"timing:|^-- config")
THROUGHPUT_DROP_WARN = 0.20
BASELINES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "bench", "baselines")
RESULTS = os.path.join("bench_results", "gate")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
# Every draw under src/ comes from sim::Rng's own engine and distributions.
# The standard fixes an engine's output but not the algorithms of its
# distributions or shuffle, so these would make a seed's world depend on
# the standard library.
STD_RANDOM = re.compile(
    r"mt19937|std::\w+_distribution|std::shuffle|generate_canonical")
# Hot paths use dense indices, not trees or hash tables: the routing plane
# and the simulation core's headers include no node-based container.
# src/sim/env.cc's warn-once set is cold code, so only the headers count.
HOT_PATH = re.compile(r"route/|sim/[^/]+\.h$")
NODE_CONTAINER = re.compile(
    r"#\s*include\s*<(set|map|unordered_map|unordered_set)>")


def load(path):
    with open(path) as f:
        return json.load(f)


def simd_levels():
    """SIMD levels this host runs: scalar always, avx2 where the CPU flags
    list it (every level the build knows when the flags cannot be read)."""
    try:
        with open("/proc/cpuinfo") as f:
            flags = f.read().split()
    except OSError:
        return ("scalar", "avx2")
    return ("scalar", "avx2") if "avx2" in flags else ("scalar",)


def check_rows(doc):
    return {c["metric"]: c["measured"] for c in doc["checks"]}


def lint_errors():
    """Lines under src/ that name a standard-library random engine,
    distribution or shuffle, or include a node-based container on a hot
    path (HOT_PATH)."""
    errors = []
    for root, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            rel = os.path.relpath(path, SRC).replace(os.sep, "/")
            hot = HOT_PATH.match(rel)
            with open(path, errors="replace") as f:
                for n, line in enumerate(f, 1):
                    where = f"src/{rel}:{n}: {line.strip()}"
                    if STD_RANDOM.search(line):
                        errors.append(f"{where}: use sim::Rng")
                    if hot and NODE_CONTAINER.search(line):
                        errors.append(f"{where}: use dense indices")
    return errors


def run(build, bench, settings, workdir):
    """Run one configuration; return (stdout, JSON doc or None, errors)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CRONETS_")}
    env["CRONETS_QUICK"] = "1"
    argv = [os.path.abspath(os.path.join(build, "bench", bench))]
    for s in settings:
        if s.startswith("--"):
            argv.append(s)
        else:
            name, _, value = s.partition("=")
            env[name] = value
    os.makedirs(workdir)
    try:
        p = subprocess.run(argv, cwd=workdir, env=env, capture_output=True,
                           text=True)
    except OSError as e:
        return "", None, [f"cannot run: {e}"]
    with open(os.path.join(workdir, "stdout.txt"), "w") as f:
        f.write(p.stdout)
    if p.returncode != 0:
        return p.stdout, None, [f"exit code {p.returncode}: "
                                f"{p.stderr.strip()[-400:]}"]
    found = glob.glob(os.path.join(workdir, "bench_results", "smoke_*.json"))
    if len(found) != 1:
        return p.stdout, None, [f"wrote {len(found)} smoke_*.json, want 1"]
    try:
        doc = load(found[0])
    except json.JSONDecodeError as e:
        return p.stdout, None, [f"unparseable result JSON: {e}"]
    missing = [k for k in REQUIRED_FIELDS if k not in doc]
    if missing:
        return p.stdout, None, [f"result JSON missing fields {missing}"]
    doc["json"] = os.path.basename(found[0])
    errors = [f"invariant broken: {m!r} = {v}"
              for m, v in check_rows(doc).items()
              if "(1=yes)" in m and v != 1.0]
    if not (doc["pairs"] > 0 and doc["pairs_per_s"] > 0):
        errors.append(f"empty measurement: {doc['pairs']} pairs at "
                      f"{doc['pairs_per_s']}/s")
    return p.stdout, doc, errors


def axis_errors(combo, out, doc, ref):
    """A run against its axis values and its row's reference run `ref`
    ((stdout, doc); None for the reference run itself)."""
    errors = []
    for name, value in combo:
        if name not in READBACK:
            continue
        field, honours = READBACK[name]
        got = doc[field]
        if got is None or not honours(got, value):
            errors.append(f"{name} {value} not applied: the JSON reads "
                          f"{field} {got!r}")
    if ref is None or ref[1] is None:
        return errors
    a = [l for l in ref[0].splitlines() if not FILTER.search(l)]
    b = [l for l in out.splitlines() if not FILTER.search(l)]
    if a != b:
        diff = difflib.unified_diff(a, b, "reference", "this run", n=0,
                                    lineterm="")
        errors.append("stdout differs from the reference run:\n  " +
                      "\n  ".join(list(diff)[:12]))
    if doc["checks"] != ref[1]["checks"]:
        ra, rb = check_rows(ref[1]), check_rows(doc)
        errors.append("checks differ from the reference run: " +
                      str(sorted(m for m in ra.keys() | rb.keys()
                                 if ra.get(m) != rb.get(m))))
    return errors


def compare(baseline, current):
    """(errors, warnings) of a fresh reference run against its baseline."""
    errors, warnings = [], []
    cur = check_rows(current)
    for metric, want in check_rows(baseline).items():
        got = cur.get(metric)
        if metric not in cur:
            errors.append(f"check row disappeared: {metric!r}")
        elif "fingerprint" in metric and got != want:
            errors.append(
                f"fingerprint drift: {metric!r} {want} -> {got} (decision "
                "behaviour changed; regenerate bench/baselines/ if "
                "intentional)")
        elif got != want:
            warnings.append(f"seed-pure row drifted: {metric!r} "
                            f"{want} -> {got}")
    base, now = baseline["pairs_per_s"], current["pairs_per_s"]
    if now < (1.0 - THROUGHPUT_DROP_WARN) * base:
        warnings.append(
            f"throughput dropped {100 * (1 - now / base):.0f}% "
            f"({base:.0f} -> {now:.0f} pairs/s; want within "
            f"{100 * THROUGHPUT_DROP_WARN:.0f}%)")
    return errors, warnings


def perturb_errors(baseline, current):
    """compare() must catch every baseline fingerprint row, perturbed."""
    perturbed = copy.deepcopy(baseline)
    rows = [c for c in perturbed["checks"] if "fingerprint" in c["metric"]]
    for c in rows:
        c["measured"] += 1.0
    caught = [e for e in compare(perturbed, current)[0]
              if e.startswith("fingerprint drift")]
    if rows and len(caught) == len(rows):
        return []
    return [f"{len(caught)} of {len(rows)} perturbed fingerprint row(s) "
            "caught: the gate cannot fail"]


def main():
    build = sys.argv[1] if len(sys.argv) > 1 else "build"
    if len(sys.argv) > 2 or not os.path.isdir(os.path.join(build, "bench")):
        sys.exit(f"{__doc__}\nno bench binaries under {build}/bench")
    shutil.rmtree(RESULTS, ignore_errors=True)
    errors, warnings, first, runs = [], [], {}, 0
    lint = lint_errors()
    print(f"FAIL lint src/ ({len(lint)} line(s))" if lint else
          "ok   lint src/ (no standard-library random engine or distribution, "
          "no node-based container on a hot path)", flush=True)
    errors += lint
    for bench, fixed, axes in MATRIX:
        ref = None
        for combo in itertools.product(
                *[[(name, v) for v in values] for name, values in axes]):
            settings = list(fixed) + [f"{n}={v}" for n, v in combo]
            label = " ".join([bench] + settings)
            runs += 1
            out, doc, errs = run(build, bench, settings,
                                 os.path.join(RESULTS, f"{runs:02d}-{bench}"))
            if doc is not None:
                errs += axis_errors(combo, out, doc, ref)
            if ref is None:
                ref = (out, doc)
                if doc is not None:
                    first.setdefault(doc["json"], (bench, doc))
            print(f"{'FAIL' if errs else 'ok  '} {label}", flush=True)
            errors += [f"{label}: {e}" for e in errs]

    for bench, doc in first.values():
        for what, test, hard in GATES.get(bench, []):
            if not test(doc.get("extra", {})):
                (errors if hard else warnings).append(f"{bench}: {what}: no")

    baselines = sorted(f for f in os.listdir(BASELINES) if f.endswith(".json"))
    for fname in baselines:
        if fname not in first:
            errors.append(f"{fname}: no matrix run wrote it")
            continue
        baseline = load(os.path.join(BASELINES, fname))
        e, w = compare(baseline, first[fname][1])
        e += perturb_errors(baseline, first[fname][1])
        print(f"FAIL baseline {fname}" if e else
              f"ok   baseline {fname} (perturbed fingerprints caught)")
        errors += [f"{fname}: {x}" for x in e]
        warnings += [f"{fname}: {x}" for x in w]

    for w in warnings:
        print(f"::warning::{w}")
    for e in errors:
        print(f"ERROR: {e}")
    print(f"bench gate: {'FAILED' if errors else 'OK'} ({runs} runs, "
          f"{len(baselines)} baselines, {len(errors)} error(s), "
          f"{len(warnings)} warning(s))")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
