#!/usr/bin/env python3
"""Checks on the benchmark itself, run from the repository root.

  python3 perfbench/check.py spread [--workload W ...] [--runs 10] [--first-seed 1]
      Runs the benchmark command once per seed and reports, for every
      end-to-end metric, the median and the inter-quartile range as a share
      of the median (statistics.quantiles(values, n=4)), against the
      metric's bound in BENCHMARK.json. A spread must stay below a third of
      its bound (setup_s is reported but exempt).

  python3 perfbench/check.py sensitivity [--runs 3] [--seconds S]
      Doubles one layer's public call at a time (the benchmark's --double
      option; the cases are in perfbench/layers.json) and checks, on the
      median of --runs seeds, that the end-to-end metric the layer is mapped
      to moves past its bound on the workload that exercises the layer,
      while a workload that bypasses the layer stays inside every bound.

  python3 perfbench/check.py layers
      Checks that a traced run of every workload prints exactly the
      per-layer metrics BENCHMARK.json lists, plus every end-to-end metric
      untraced.

Every run goes through the command in BENCHMARK.json, so cargo rebuilds the
benchmark when its sources change. Exit status is non-zero on any failure.
"""

import argparse
import json
import statistics
import subprocess
import sys

with open("BENCHMARK.json") as f:
    BENCH = json.load(f)
BOUNDS = {m["name"]: m for m in BENCH["end_to_end"]}

with open("perfbench/layers.json") as f:
    LAYERS = json.load(f)
# BENCHMARK.json bounds only the metrics every workload reports; the
# sensitivity check also holds edit_mix's write latencies to the bounds
# layers.json gives them.
ALL_BOUNDS = {m["name"]: m for m in LAYERS["end_to_end"] if "bound" in m}


def run(workload, seed, trace=0, double=None, seconds=None, full=False):
    """The result line's metrics, or with `full` the full report's."""
    cmd = BENCH["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds or BENCH["run_seconds"]),
        "--trace", str(trace),
    ]
    if double:
        cmd += ["--double", double]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    metrics = json.loads(lines[-2])["report"]["metrics"] if full else result["metrics"]
    return {k: v["value"] for k, v in metrics.items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def worse(metric, base, new):
    """How much worse `new` is than `base`, as a share of `base`."""
    if ALL_BOUNDS[metric]["better"] == "lower":
        return (new - base) / base
    return (base - new) / base


def cmd_spread(args):
    ok = True
    for workload in args.workload or [w["name"] for w in BENCH["workloads"]]:
        runs = [run(workload, args.first_seed + i) for i in range(args.runs)]
        for name, m in BOUNDS.items():
            values = [r[name] for r in runs]
            med, s = spread(values)
            steady = name == "setup_s" or s < m["bound"] / 3
            ok &= steady
            print(f"{workload:10} {name:12} median {med:12.5g} {m['unit']:6} "
                  f"spread {s:6.3f}  bound {m['bound']:.2f}  {'ok' if steady else 'WIDE'}  "
                  f"[{' '.join(f'{v:.4g}' for v in values)}]", flush=True)
    return ok


def cmd_sensitivity(args):
    seeds = [101 + i for i in range(args.runs)]
    medians = {}

    def med(workload, double):
        key = (workload, double)
        if key not in medians:
            runs = [run(workload, s, double=double, seconds=args.seconds, full=True) for s in seeds]
            medians[key] = {n: statistics.median(r[n] for r in runs) for n in runs[0]}
        return medians[key]

    ok = True
    for case in LAYERS["sensitivity"]:
        double, hit = case["double"], case["exercised_by"]
        metric, bypass = case["must_move"], case["bypassed_by"]
        moved = worse(metric, med(hit, None)[metric], med(hit, double)[metric])
        caught = moved > ALL_BOUNDS[metric]["bound"]
        print(f"--double {double:8} {hit:10} {metric:12} worse by {moved:+.3f} "
              f"(bound {ALL_BOUNDS[metric]['bound']:.2f}): {'caught' if caught else 'MISSED'}",
              flush=True)
        ok &= caught
        for name, m in BOUNDS.items():
            if name == "setup_s":
                continue
            drift = worse(name, med(bypass, None)[name], med(bypass, double)[name])
            inside = drift <= m["bound"]
            ok &= inside
            print(f"    bypass {bypass:10} {name:12} worse by {drift:+.3f}: "
                  f"{'inside' if inside else 'OUTSIDE'}", flush=True)
    return ok


def cmd_layers(args):
    wanted_layers = {m["name"] for m in BENCH["per_layer"]}
    ok = True
    for w in BENCH["workloads"]:
        untraced = set(run(w["name"], 1, seconds=2))
        traced = set(run(w["name"], 1, trace=1, seconds=2))
        for label, got, want in [("end_to_end", untraced, set(BOUNDS)),
                                 ("per_layer", traced, wanted_layers)]:
            if got != want:
                ok = False
                print(f"{w['name']} {label}: missing {sorted(want - got)}, extra {sorted(got - want)}")
        print(f"{w['name']}: {len(untraced)} end-to-end and {len(traced)} per-layer metrics")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", action="append")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--first-seed", type=int, default=1)
    s = sub.add_parser("sensitivity")
    s.add_argument("--runs", type=int, default=3)
    s.add_argument("--seconds", type=int, help="run length (default: BENCHMARK.json run_seconds)")
    sub.add_parser("layers")
    args = p.parse_args()
    ok = {"spread": cmd_spread, "sensitivity": cmd_sensitivity, "layers": cmd_layers}[args.cmd](args)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
