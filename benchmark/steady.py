"""Steadiness self-check: run every workload ten times, report each
end-to-end metric's median and quartiles, and check that the work repeated.

    python3 benchmark/steady.py

Every workload runs RUNS times with seeds 1..RUNS, each run as long as
BENCHMARK.json's `run_seconds`.  For each workload the table gives the
median, the first and third quartiles (`statistics.quantiles(n=4)`) and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
The check fails (exit code 1) when a run is not correct, when the share of
failed operations differs between runs, when the work signature (operations,
fallbacks, quality events, trials, drops, CSV bytes) differs between any two
rounds of any runs, or when any spread exceeds its bound.  It then makes
TRACED traced runs (seeds 1..TRACED) and requires every per-layer count
(quadrature integrals and panels, kernel calls, fallbacks) to repeat
exactly.
"""

import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as wl  # noqa: E402

RUNS = 10
TRACED = 2


def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = ([w["name"] for w in spec["workloads"]],
             {m["name"]: m["unit"] for m in spec["end_to_end"]},
             {m["name"]: m["unit"] for m in spec["per_layer"]})
    if names != (list(wl.WORKLOADS), run.END_TO_END, run.PER_LAYER):
        raise SystemExit("BENCHMARK.json does not list the workloads and "
                         "metrics that run.py reports")
    return spec


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = os.path.join(run.OUT_ROOT,
                           f"{workload}-seed{seed}-trace{trace}.json")
    with open(details) as fh:
        details = json.load(fh)
    if not result["metrics"]:  # the run could not finish its work
        raise SystemExit(f"{' '.join(cmd)} did not finish: "
                         + "; ".join(details["problems"]))
    return result, details


def main():
    spec = _bench_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in wl.WORKLOADS:
        values = {name: [] for name in bounds}
        shares, signatures, problems = set(), [], []
        for seed in range(1, RUNS + 1):
            result, details = _run(workload, seed, seconds, 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            shares.add(Fraction(result["failed"], result["attempted"]))
            signatures += details["signatures"]
            if not result["correct"]:
                problems.append(f"seed {seed}: "
                                + "; ".join(details["problems"][:3]))
        print(f"{workload}: {RUNS} runs of {seconds:g} s, "
              f"{len(signatures)} rounds")
        print(f"  {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > bounds[name]:
                flag, ok = "  TOO WIDE", False
            print(f"  {name:<12} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {bounds[name]:6.2f}{flag}")
        same = all(s == signatures[0] for s in signatures)
        print(f"  work signature identical in every round: {same}")
        print(f"  failed share of attempted operations: "
              f"{', '.join(sorted(str(s) for s in shares))}")
        print(f"  correct in every run: {not problems}")
        for p in problems:
            print(f"    {p}")
        ok = ok and same and not problems and len(shares) == 1
        layers = []
        for seed in range(1, TRACED + 1):
            result, details = _run(workload, seed, seconds, 1)
            layers.append({n: m["value"] for n, m
                           in result["metrics"].items()
                           if m["unit"] == "count"})
            ok = ok and result["correct"]
            print(f"  traced seed {seed}: overhead "
                  f"{result['metrics']['tracing.overhead_s']['value']:.3f}"
                  f" s, {details.get('spans', 'per-process')} spans")
        same = all(lay == layers[0] for lay in layers)
        print(f"  per-layer counts identical in {TRACED} traced runs: {same}")
        ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
