#!/usr/bin/env python3
"""CRONets repo benchmark: build, run one workload, check, report.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload churn_direct --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first run builds perfbench/ (CMake) against the checkout's src/ into
.bench_build/ (or $CARGO_TARGET_DIR). The benchmark binary generates the
workload from --seed, measures for --seconds and reports metrics, gates and
fingerprints; this script checks the fingerprints, then prints one JSON
result line last: the BENCHMARK.json end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. Exit code 0 only when a result line
was printed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd), 3)
    return out / "perfbench"


def clean_env():
    # The library reads CRONETS_* knobs (threads, SIMD, batch, policies);
    # the benchmark sets everything it needs explicitly.
    return {k: v for k, v in os.environ.items() if not k.startswith("CRONETS_")}


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=clean_env(),
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} timed out", 4)
    if r.returncode != 0:
        fail(f"{workload} exited with {r.returncode}", 4)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"{workload} printed no report", 4)
    return json.loads(lines[-1])


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """Digest of the library and benchmark sources (the checkout is not
    always a git repository)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        return r.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def check_fingerprints(out):
    """The pinned values for the default seed. Returns mismatch messages.
    (Agreement across tracing, thread and shard counts is the self-test's.)"""
    fps = out["report"]["fingerprints"]
    pinned = json.loads((HERE / "pinned.json").read_text()).get(out["workload"], {})
    if out["seed"] != pinned.get("seed"):
        return []
    return [f"{k} fingerprint {fps.get(k)} != pinned {v}"
            for k, v in pinned["fingerprints"].items() if fps.get(k) != v]


def result(out, spec, trace, problems):
    rep = out["report"]
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = rep["metrics"].get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got["unit"] != m["unit"]:
            problems.append(f"{m['name']} unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"] if got else 0.0, "unit": m["unit"]}
    problems += [f"gate {k} failed" for k, ok in rep["gates"].items() if not ok]
    attempted = max(1, int(rep["attempted"]))
    failed = attempted if problems else int(rep["failed"])
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def measure(args, spec):
    binary = build()
    extra = []
    out_dir = build_dir().parent / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        extra += ["--trace-out", str(out_dir / f"{tag}.trace.json")]
    out = run_binary(binary, args.workload, args.seed, args.seconds, args.trace, extra)
    problems = check_fingerprints(out)
    res = result(out, spec, args.trace, problems)
    out["env"].update({"cpu_model": cpu_model(), "python": platform.python_version(),
                       "src_digest": source_digest(), "commit": commit()})
    summary = {"workload": args.workload, "seed": args.seed, "env": out["env"],
               "fingerprints": out["report"]["fingerprints"],
               "detail": out["report"]["detail"]}
    if args.trace:
        summary["self_share"] = self_shares(out_dir / f"{tag}.trace.json")
        summary["borrowed"] = out["report"]["borrowed"]
    (out_dir / f"{tag}.json").write_text(
        json.dumps({"summary": summary, "problems": problems, "result": res}, indent=1))
    for p in problems:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps(summary))
    print(json.dumps(res))


def self_shares(trace_file):
    """Each span's self time as a share of the traced wall time (the root
    spans' total): the per-layer split, which sums to 1."""
    trace = json.loads(trace_file.read_text())
    total = sum(s["total_ns"] for s in trace["spans"] if not s["parent"])
    return {s["name"]: round(s["self_ns"] / total, 4) for s in trace["spans"]
            if total > 0}


def selftest(spec):
    """Reduced-scale run of every workload on a held-out seed: every metric
    present with its unit (each per-layer one measured by the workload that
    owns its layer), fingerprints equal across traced/untraced runs, thread
    counts 1 vs nproc and shard counts 1 vs 4."""
    binary = build()
    nproc = os.cpu_count() or 1
    ok = True
    per_layer_owned = set()
    for w in [x["name"] for x in spec["workloads"]]:
        variants = {"base": ["--threads", str(nproc), "--shards", "4"],
                    "threads1": ["--threads", "1", "--shards", "4"]}
        if w.startswith("churn"):
            variants["shards1"] = ["--threads", str(nproc), "--shards", "1"]
        runs = {}
        for name, extra in variants.items():
            runs[name] = run_binary(binary, w, HELD_OUT_SEED, 1, 0, ["--small", *extra])
        runs["traced"] = run_binary(binary, w, HELD_OUT_SEED, 1, 1,
                                    ["--small", *variants["base"]])
        fps = {k: r["report"]["fingerprints"] for k, r in runs.items()}
        same = all(f == fps["base"] for f in fps.values()) and fps["base"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rep = runs["traced" if trace else "base"]["report"]
            problems = []
            result({"report": rep}, spec, trace, problems)
            for p in problems:
                print(f"  {w}: {p}")
            ok = ok and not problems
        own = runs["traced"]["report"]
        per_layer_owned.update(set(own["metrics"]) - set(own["borrowed"]))
        for r in runs.values():
            gates = r["report"]["gates"]
            if not all(gates.values()) or r["report"]["failed"]:
                print(f"  {w}: gates {gates}, failed ops {r['report']['failed']}")
                ok = False
        print(f"{w}: fingerprints {'equal' if same else 'DIFFER'} across "
              f"{', '.join(runs)} {fps['base']}")
        ok = ok and bool(same)
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in per_layer_owned]
    if missing:
        print(f"  per-layer metrics no workload measures itself: {missing}")
        ok = False
    print("selftest", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    if args.selftest:
        sys.exit(selftest(spec))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        fail("--seed must be >= 0")
    measure(args, spec)


if __name__ == "__main__":
    main()
