#!/usr/bin/env python3
"""chantbench: the repository's benchmark.

Run one workload (builds the benchmark first, incrementally):

    python3 chantbench/run.py --workload fig9_p2p --seed 1 --seconds 10 --trace 0

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics (and the spans of
the last traced round land in .bench_build/traces/). The line before it
is a "chantbench-record" line carrying the provenance stamp; save runs'
output and compare two sets of them with

    python3 chantbench/run.py --compare SET_A SET_B

where each set is a file or a directory of files holding run output.
See chantbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "chantbench"
RECORD_TAG = "chantbench-record "
RUN_TIMEOUT_S = 170
# Stamp fields two result sets must share to be comparable. The seed and
# git sha are expected to differ between sets.
STAMP_KEYS = ("cores", "cpu_model", "build_type", "compiler", "transport",
              "policy", "workers", "placement", "rounds", "seconds")


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def reduce_rounds(rounds, names):
    """Medians over a run's rounds for each metric in `names`.

    End-to-end metrics come from untraced rounds. Per-layer counters come
    from untraced rounds too, span metrics from traced rounds; a layer the
    workload never reaches reads 0. trace.overhead_pct compares the
    throughput of untraced and traced rounds.
    """
    plain = [r["metrics"] for r in rounds if not r["traced"]]
    traced = [r["metrics"] for r in rounds if r["traced"]]
    out = {}
    for name in names:
        if name == "trace.overhead_pct":
            if plain and traced:
                base = median([m["ops_per_s"] for m in plain])
                with_spans = median([m["ops_per_s"] for m in traced])
                out[name] = 100.0 * (base / with_spans - 1.0)
            else:
                out[name] = 0.0
            continue
        source = plain if any(name in m for m in plain) else traced
        values = [m[name] for m in source if name in m]
        out[name] = median(values) if values else 0.0
    return out


def git_sha():
    """HEAD of the checkout when it is a git work tree, else "none"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def fail(msg):
    print(f"chantbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no chant source tree at {ROOT}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_workload(args, spec):
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {sorted(names)}")
    build()
    cmd = [str(BUILD / "chantbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out",
                str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{args.workload} printed no result (exit {proc.returncode})")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in spec[section]}
    values = reduce_rounds(rec["rounds"], metrics)
    attempted = sum(r["attempted"] for r in rec["rounds"])
    failed = sum(r["failed"] for r in rec["rounds"])
    correct = bool(rec["correct"]) and failed == 0 and proc.returncode == 0

    stamp = dict(rec["provenance"], git_sha=git_sha(), trace=args.trace)
    for r in rec["rounds"]:
        for check in r["checks"]:
            print(f"check failed: {check}")
    ratio = failed / attempted if attempted else 0.0
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rec['rounds'])} attempted={attempted} "
          f"failed={failed} failed_ops_ratio={ratio:.6g} "
          f"placement={stamp['placement']}")
    for name, m in metrics.items():
        print(f"  {name:32s} {values[name]:14.6g} {m['unit']}")
    print(RECORD_TAG + json.dumps(
        {"provenance": stamp, "correct": correct, "attempted": attempted,
         "failed": failed, "metrics": values}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": values[n], "unit": m["unit"]}
                    for n, m in metrics.items()}}))
    return 0 if correct else 1


def read_records(path):
    p = Path(path)
    files = sorted(f for f in p.iterdir() if f.is_file()) if p.is_dir() \
        else [p]
    recs = []
    for f in files:
        for line in f.read_text().splitlines():
            if line.startswith(RECORD_TAG):
                recs.append(json.loads(line[len(RECORD_TAG):]))
    return [r for r in recs if not r["provenance"]["trace"]]


def stamp_of(rec):
    return {k: rec["provenance"].get(k) for k in STAMP_KEYS}


def verdict(a, b, better, bound):
    """Compares run set b against run set a for one metric.

    "unresolved" when either set's spread exceeds the bound (unless every
    b run beats every a run); otherwise "worse" when b's median is worse
    than a's by more than the bound, else "agree".
    """
    sign = 1.0 if better == "higher" else -1.0
    if spread(a) > bound or spread(b) > bound:
        all_better = min(b) > max(a) if sign > 0 else max(b) < min(a)
        return "better" if all_better else "unresolved"
    change = sign * (median(b) - median(a)) / abs(median(a))
    return "worse" if change < -bound else "agree"


def compare(set_a, set_b, spec):
    recs_a, recs_b = read_records(set_a), read_records(set_b)
    if not recs_a or not recs_b:
        fail("each set needs at least one untraced chantbench-record line")
    by_wl = {}
    for side, recs in (("a", recs_a), ("b", recs_b)):
        for r in recs:
            if not r["correct"]:
                fail(f"set {side} holds a failed run: {r['provenance']}")
            by_wl.setdefault(r["provenance"]["workload"], {"a": [], "b": []})
            by_wl[r["provenance"]["workload"]][side].append(r)
    status = 0
    for wl, sides in sorted(by_wl.items()):
        stamps = {json.dumps(stamp_of(r), sort_keys=True)
                  for r in sides["a"] + sides["b"]}
        if len(stamps) != 1:
            print(f"{wl}: refusing to compare runs whose stamps differ:")
            for s in sorted(stamps):
                print("  " + s)
            status = 2
            continue
        if not sides["a"] or not sides["b"]:
            print(f"{wl}: present in one set only")
            status = max(status, 1)
            continue
        print(f"{wl}: {len(sides['a'])} vs {len(sides['b'])} runs")
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]] for r in sides["a"]]
            b = [r["metrics"][m["name"]] for r in sides["b"]]
            v = verdict(a, b, m["better"], m["bound"])
            qa, qb = quartiles(a), quartiles(b)
            print(f"  {m['name']:16s} A {qa[1]:12.6g} [{qa[0]:.6g}, "
                  f"{qa[2]:.6g}] spread {spread(a):6.1%}   B {qb[1]:12.6g} "
                  f"[{qb[0]:.6g}, {qb[2]:.6g}] spread {spread(b):6.1%}   "
                  f"bound {m['bound']:.0%}  {v}")
            if v in ("worse", "unresolved"):
                status = max(status, 1)
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("SET_A", "SET_B"))
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
    except OSError as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.compare:
        return compare(*args.compare, spec)
    if not args.workload:
        fail("--workload is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
