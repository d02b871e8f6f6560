"""Benchmark entry point: one run of one workload, checked against references.

    python3 benchmark/run.py --workload closed-rate --seed 1 --seconds 30 \
        --trace 0

Workloads: `closed-rate` (exact-rate library calls), `ser-cli` (the `mumimo`
command line, one subprocess per sweep) and `simulation` (Monte Carlo and
the hexagonal network).  The program always runs in child processes, with
PYTHONPATH set to this checkout's `src` and one BLAS thread; this process
only starts them, times them from outside and checks what they produced.

The last line on stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`).  Everything else a run learns (work
signature per round, latencies, failed operations) is written to
`bench_out/<workload>-seed<seed>-trace<trace>.json`.
"""

import argparse
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from decimal import Decimal
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, "bench_out")
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (only its span arithmetic runs in this process)
import workloads as wl  # noqa: E402

RUN_LIMIT_S = 170.0    # every child is killed before the run passes this
SETUP_REPEATS = 4      # fresh set-up processes before and again after the
                       # rounds, so that the median spans the whole run
RATE_RTOL = 1e-8       # rate and Jensen bound against the 30-digit values
OUTAGE_RTOL = 1e-6
LIMIT_RTOL = 1e-12
SER_RTOL = 1e-6        # the program's theta integral aims at 1e-8
MC_SIGMAS = 5.0        # Monte Carlo estimates within 5 standard errors
OUTAGE_NOISE = 1e-13   # outage-tail: what double-precision cancellation leaves

END_TO_END = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "specfun.ei_moment.calls": "count",
    "specfun.ei_moment.quadratures": "count",
    "specfun.ei_moment.self_s": "s",
    "specfun.tricomi_u.calls": "count",
    "specfun.tricomi_u.self_s": "s",
    "specfun.log_moment.calls": "count",
    "specfun.log_moment.self_s": "s",
    "specfun.hyp2f0_neg.calls": "count",
    "specfun.hyp2f0_neg.self_s": "s",
    "specfun.expint.calls": "count",
    "specfun.expint.self_s": "s",
    "closedform.rate.calls": "count",
    "closedform.rate.fallbacks": "count",
    "closedform.rate.closed_accept_ratio": "ratio",
    "closedform.rate.self_s": "s",
    "closedform.rate_bound.self_s": "s",
    "closedform.outage.calls": "count",
    "closedform.outage.self_s": "s",
    "closedform.ser.calls": "count",
    "closedform.ser.self_s": "s",
    "sinrdist.mgf.calls": "count",
    "sinrdist.mgf.fallbacks": "count",
    "sinrdist.mgf.closed_accept_ratio": "ratio",
    "sinrdist.mgf.self_s": "s",
    "asymptotic.self_s": "s",
    "quadrature.integrals": "count",
    "quadrature.panels": "count",
    "quadrature.self_s": "s",
    "fading.expansions": "count",
    "fading.self_s": "s",
    "cli.invocations": "count",
    "cli.self_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.thread_speedup": "ratio",
    "montecarlo.trials": "count",
    "montecarlo.trials_per_s": "1/s",
    "montecarlo.self_s": "s",
    "cellnet.drops": "count",
    "cellnet.samples": "count",
    "cellnet.self_s": "s",
    "tracing.overhead_s": "s",
}

_START = perf_counter()


def _env():
    env = dict(os.environ)
    # a fixed hash seed gives every process the same dict and set layout
    env.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


class RunFailed(RuntimeError):
    """The program could not finish the run: it crashed, resolved to another
    copy of mumimo, or did not end before the run's time limit."""


def _spawn(cmd, **kwargs):
    """Run a child to completion (killed and reaped past the run's limit)."""
    left = RUN_LIMIT_S - (perf_counter() - _START)
    if left <= 0:
        raise RunFailed(f"run time limit of {RUN_LIMIT_S:g} s reached")
    try:
        return subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=left, **kwargs)
    except subprocess.TimeoutExpired:
        what = " ".join(os.path.basename(c) for c in cmd[1:3])
        raise RunFailed(f"run time limit of {RUN_LIMIT_S:g} s reached in "
                        f"{what}") from None


def _peak_rss_mb():
    """Largest resident set of any child so far (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _median(values):
    return statistics.median(values)


def _finite(out):
    return isinstance(out.get("value"), float) and math.isfinite(out["value"])


# How each known fault shows (see README.md): an operation with a `fault`
# that fails its check in any other way is a problem like any other.
KNOWN_FAULTS = {
    # the broken expansion still yields a float, just a wrong one
    "expansion-breakdown": _finite,
    # 1 - e^{-ct} sum in double precision leaves rounding noise near 1.8e-15
    "outage-tail": lambda out: (_finite(out)
                                and abs(out["value"]) < OUTAGE_NOISE),
}


class Verdict:
    """Operations attempted and failed, and problems that make a run wrong.

    An operation that fails its check is counted in `failed`.  Unless it is
    one of the known faults (an operation's `fault`) failing the way that
    fault is known to fail, it is also a problem; so is a violated property
    or output that changed between rounds.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}   # operation -> reason (one entry per operation)
        self.problems = []

    def op(self, name, ok, why, fault=None, output=None):
        """Count one operation; return the fault it failed by, if known."""
        self.attempted += 1
        if ok:
            return None
        self.failed += 1
        known = fault if fault and KNOWN_FAULTS[fault](output or {}) else None
        self.failures[name] = f"{known or 'unexpected'}: {why}"
        if not known:
            self.problems.append(f"{name}: {why}")
        return known

    def require(self, ok, why):
        if not ok:
            self.problems.append(why)


def _rel_check(value, ref, rtol):
    """Relative error of a float against a reference string, in decimal
    arithmetic (references may lie below the double range, e.g. 1e-602)."""
    if not isinstance(value, float) or not math.isfinite(value):
        return False, f"value {value!r}, reference {ref}"
    err = abs(Decimal(value) - Decimal(ref)) / abs(Decimal(ref))
    return err <= rtol, (f"value {value!r}, reference {ref}, relative "
                         f"error {float(err):.3g} > {rtol:g}")


# ---------------------------------------------------------------------------
# library workloads (closed-rate, simulation): a worker process runs them
# ---------------------------------------------------------------------------

def _worker(workload, seed, seconds, trace, out, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    proc = _spawn(cmd)
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}:\n"
                           f"{proc.stderr}")
    with open(out) as fh:
        result = json.load(fh)
    if not result["mumimo"].startswith(SRC + os.sep):
        raise RunFailed(f"worker imported {result['mumimo']}, not the "
                           f"checkout's program under {SRC}")
    return result


def _check_closed_rate(rounds, refs, verdict):
    ops = wl.closed_rate_ops()
    signatures = []
    for rnd in rounds:
        values, noise = {}, set()
        for op, out in zip(ops, rnd["outputs"]):
            if "error" in out:
                ok, why = False, out["error"]
            else:
                tol = {"rate": RATE_RTOL, "bound": RATE_RTOL,
                       "outage": OUTAGE_RTOL, "limit": LIMIT_RTOL}[op["kind"]]
                ok, why = _rel_check(out["value"],
                                     refs[wl.reference_key(op)], tol)
                values[op["id"]] = out["value"]
            fault = verdict.op(op["id"], ok, why, op["fault"], out)
            if fault == "outage-tail":
                noise.add(op["id"])
        _check_outage_monotone(ops, values, noise, verdict)
        for op in ops:  # properties the method must have
            rate = values.get(op["id"])
            if op["kind"] != "rate" or rate is None:
                continue
            bound = values.get(op["id"].replace("rate|", "bound|", 1))
            verdict.require(bound is None or bound <= rate,
                            f"{op['id']}: lower bound {bound!r} above the "
                            f"rate {rate!r}")
            limit = values.get(op["id"].replace("rate|", "limit|", 1))
            verdict.require(limit is None or rate < limit,
                            f"{op['id']}: power-scaled rate {rate!r} not "
                            f"below its limit {limit!r}")
        methods = [out.get("method") for op, out in zip(ops, rnd["outputs"])
                   if op["kind"] == "rate"]
        signatures.append({
            "operations": len(ops),
            "rate_methods": methods,
            "rate_fallbacks": methods.count("quadrature_fallback"),
            "quality_events": sum(out.get("events", 0)
                                  for out in rnd["outputs"]),
        })
    return signatures


def _check_outage_monotone(ops, values, noise, verdict):
    """Outage must not fall as gamma_th rises, at every point of every
    profile.  Two values that are both outage-tail noise (`noise`: the
    operations that failed as that fault does) have no order to keep; a
    fall between them is added to their failure reasons."""
    curves = {}
    for op in ops:
        if op["kind"] == "outage":
            curves.setdefault(op["id"].rsplit("|g=", 1)[0], []).append(op)
    for curve in curves.values():
        curve.sort(key=lambda op: op["gamma_th"])
        for lo, hi in zip(curve, curve[1:]):
            a, b = values.get(lo["id"]), values.get(hi["id"])
            if a is None or b is None or a <= b:
                continue
            why = (f"outage {a!r} at gamma_th={lo['gamma_th']!r} above "
                   f"{b!r} at gamma_th={hi['gamma_th']!r}")
            if lo["id"] in noise and hi["id"] in noise:
                for op in (lo, hi):
                    verdict.failures[op["id"]] += f"; {why}"
            else:
                verdict.problems.append(f"{lo['id']}: {why}")


def _check_simulation(rounds, refs, verdict):
    ops = wl.simulation_ops()
    signatures = []
    for rnd in rounds:
        likely = {}
        trials = drops = samples = 0
        for op, out in zip(ops, rnd["outputs"]):
            kind = op["kind"]
            if "error" in out:
                verdict.op(op["id"], False, out["error"], op["fault"])
                continue
            if kind.startswith("mc-"):
                ref = float(refs[wl.reference_key(op)])
                dev = abs(out["value"] - ref)
                ok = (out["trials"] == wl.MC_TRIALS
                      and dev <= MC_SIGMAS * out["std_error"])
                why = (f"estimate {out['value']!r} +- {out['std_error']!r} "
                       f"({out['trials']} trials), reference {ref!r}")
                trials += out["trials"]
            elif kind == "network":
                # NetworkScenario's default K=10 users per cell
                want = wl.NET_DROPS * wl.NET_SAMPLES * 10
                ok = (out["samples"] == want and out["min"] > 0
                      and math.isfinite(out["max"]))
                why = (f"{out['samples']} samples (want {want}), range "
                       f"[{out['min']!r}, {out['max']!r}]")
                likely[(op["reuse"], op["n"])] = out["likely95"]
                drops += out["drops"]
                samples += out["samples"]
            else:
                ref = [float(v) for v in refs["fixed-drop"]]
                devs = [abs(m - r) / s for m, r, s in
                        zip(out["mean"], ref, out["std_error"])]
                ok = len(devs) == len(ref) and max(devs) <= MC_SIGMAS
                why = f"user means {max(devs):.2f} standard errors off"
                samples += out["samples"]
            verdict.op(op["id"], ok, why, op["fault"])
        for reuse in (1, 3, 7):
            small, large = likely.get((reuse, 20)), likely.get((reuse, 100))
            verdict.require(small is None or large is None or large > small,
                            f"reuse {reuse}: 95%-likely rate at N=100 "
                            f"({large!r}) not above N=20 ({small!r})")
        signatures.append({"operations": len(ops), "trials": trials,
                           "drops": drops, "samples": samples})
    return signatures


CHECKERS = {"closed-rate": _check_closed_rate,
            "simulation": _check_simulation}


def _rounds_consistent(results, verdict):
    """Every round of every worker must give the same outputs."""
    first = results[0]["rounds"][0]["outputs"]
    for res in results:
        for rnd in res["rounds"]:
            verdict.require(rnd["outputs"] == first,
                            "outputs differ between rounds")


def _library_setups(workload, seed, out_dir, tag):
    return [_worker(workload, seed, 0, 0,
                    os.path.join(out_dir, f"setup{tag}{k}.json"),
                    setup_only=True)["setup_s"]
            for k in range(SETUP_REPEATS)]


def _library_end_to_end(workload, seed, seconds, out_dir, refs, verdict):
    setups = _library_setups(workload, seed, out_dir, "a")
    res = _worker(workload, seed, seconds, 0,
                  os.path.join(out_dir, "worker.json"))
    setups.append(res["setup_s"])
    setups += _library_setups(workload, seed, out_dir, "b")
    signatures = CHECKERS[workload](res["rounds"], refs, verdict)
    _rounds_consistent([res], verdict)
    walls = [r["wall_s"] for r in res["rounds"]]
    latencies = [t for r in res["rounds"] for t in r["latencies"]]
    metrics = {"wall_s": _median(walls), "op_p50_s": _median(latencies),
               "setup_s": _median(setups), "peak_rss_mb": _peak_rss_mb()}
    return metrics, {"signatures": signatures, "round_walls": walls,
                     "setups": setups, "operations": res["ids"],
                     "latencies": res["rounds"][0]["latencies"]}


def _load_spans(path):
    with open(path) as fh:
        data = json.load(fh)
    return [tuple(s) for s in data["spans"]], data["events"]


def _scaled(metrics, factor):
    return {k: v * factor for k, v in metrics.items()}


def _summed(*parts):
    out = {}
    for part in parts:
        for k, v in part.items():
            out[k] = out.get(k, 0) + v
    return out


def _layers_from_signature(workload, sig, layers):
    """Layer counts the program reports itself (RateResult.method,
    Estimate.num_trials, sample sizes), per round."""
    if workload == "closed-rate":
        return {"closedform.rate.fallbacks": sig["rate_fallbacks"]}
    # montecarlo spans have no traced children: self time is busy time
    return {"montecarlo.trials": sig["trials"],
            "montecarlo.trials_per_s": (sig["trials"]
                                        / layers["montecarlo.self_s"]),
            "cellnet.drops": sig["drops"],
            "cellnet.samples": sig["samples"]}


def _library_traced(workload, seed, seconds, out_dir, refs, verdict):
    plain = _worker(workload, seed, 0, 0,
                    os.path.join(out_dir, "untraced.json"))
    traced = _worker(workload, seed, seconds, 1,
                     os.path.join(out_dir, "traced.json"))
    CHECKERS[workload](plain["rounds"], refs, verdict)
    signatures = CHECKERS[workload](traced["rounds"], refs, verdict)
    _rounds_consistent([plain, traced], verdict)
    spans, events = _load_spans(traced["spans_file"])
    first = traced["marks"][0]
    rounds = len(traced["rounds"])
    layers = _summed(
        tracing.layer_metrics(spans[:first], {}),
        _scaled(tracing.layer_metrics(spans[first:], events), 1.0 / rounds))
    layers.update(_layers_from_signature(workload, signatures[0], layers))
    traced_wall = _median([r["wall_s"] for r in traced["rounds"]])
    layers["tracing.overhead_s"] = traced_wall - plain["rounds"][0]["wall_s"]
    return layers, {"traced_round_walls": [r["wall_s"]
                                           for r in traced["rounds"]],
                    "untraced_round_wall": plain["rounds"][0]["wall_s"],
                    "spans": len(spans), "signatures": signatures}


# ---------------------------------------------------------------------------
# ser-cli: the mumimo command line, one subprocess per sweep
# ---------------------------------------------------------------------------

_EVENTS = re.compile(r"numerical-quality flag: (\d+) cancellation")


def _cli_args(sweep, out, threads, fading_file):
    args = [sweep["mode"], "--threads", str(threads), "--out", out,
            "--set", f"n_list={','.join(map(str, sweep['n_list']))}",
            "--set", "snr_db_list="
            + ",".join(repr(v) for v in sweep["snr_db_list"]),
            "--set", f"psk_order={wl.PSK_ORDER}"]
    prof = wl.PROFILES[sweep["profile"]]
    args += ["--set", f"cells={prof['cells']}", "--set",
             f"users={prof['users']}"]
    if len(set(prof["cross"])) == 1:
        args += ["--set", f"cross_gain_list={prof['cross'][0]!r}"]
    else:
        args += ["--set", f"fading_file={fading_file}"]
    if "gamma_th_list" in sweep:
        args += ["--set", "gamma_th_list="
                 + ",".join(repr(v) for v in sweep["gamma_th_list"])]
    return args


def _write_fading_file(path):
    """The distinct profile as a `fading_file` (format of
    mumimo.fading.save_fading_text), written by the benchmark itself."""
    beta = wl.beta_tensor("distinct")
    cells, users = len(beta), len(beta[0][0])
    with open(path, "w") as fh:
        fh.write(f"{cells} {users}\n")
        for l in range(cells):
            for i in range(cells):
                gains = " ".join(repr(v) for v in beta[l][i])
                fh.write(f"{l} {i} {gains}\n")


def _invoke(sweep, out_dir, threads, fading_file, spans_file=None):
    out = os.path.join(out_dir, sweep["name"])
    shutil.rmtree(out, ignore_errors=True)
    args = _cli_args(sweep, out, threads, fading_file)
    if spans_file:
        cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"),
               spans_file] + args
    else:
        cmd = [sys.executable, "-m", "mumimo.cli"] + args
    start = perf_counter()
    proc = _spawn(cmd)
    wall = perf_counter() - start
    csv_path = os.path.join(out, f"{sweep['mode']}.csv")
    csv = None
    if os.path.exists(csv_path):
        with open(csv_path, "rb") as fh:
            csv = fh.read()
    match = _EVENTS.search(proc.stderr)
    return {"sweep": sweep["name"], "wall_s": wall, "code": proc.returncode,
            "events": int(match.group(1)) if match else 0, "csv": csv,
            "stderr": proc.stderr[-2000:], "spans_file": spans_file}


def _cli_round(out_dir, fading_file, traced=False):
    os.makedirs(out_dir, exist_ok=True)
    start = perf_counter()
    calls = [_invoke(sweep, out_dir, wl.CLI_THREADS, fading_file,
                     os.path.join(out_dir, f"{sweep['name']}.spans")
                     if traced else None)
             for sweep in wl.CLI_SWEEPS]
    return perf_counter() - start, calls


def _parse_csv(data):
    lines = [ln for ln in data.decode().splitlines()
             if ln and not ln.startswith("#")]
    cols = lines[0].split(",")
    return [dict(zip(cols, ln.split(","))) for ln in lines[1:]]


def _judge_csv(sweep, rows, refs, verdict):
    """(ok, reason) of one sweep's values against the references; the
    method's properties go to `verdict` directly."""
    prof = sweep["profile"]
    bad = []
    seen = {}
    for row in rows:
        snr, n = float(row["snr_db"]), int(row["n"])
        p_u = wl.db_to_linear(snr)
        if sweep["mode"] == "ser":
            key = wl.ser_key(prof, n, p_u)
            pairs = [("ser_exact", key), ("ser_high_snr_floor", key + "|floor"),
                     ("ser_approx", key + "|approx")]
            seen[(snr, n)] = {c: float(row[c]) for c, _ in pairs}
        else:
            g = float(row["gamma_th"])
            key = wl.outage_key(prof, n, p_u, g)
            pairs = [("outage_exact", key),
                     ("outage_small_threshold", key + "|limit")]
            seen[(snr, n, g)] = float(row["outage_exact"])
        for col, ref_key in pairs:
            ok, why = _rel_check(float(row[col]), refs[ref_key],
                                 OUTAGE_RTOL if sweep["mode"] == "outage"
                                 else SER_RTOL)
            if not ok:
                bad.append(f"{col} at snr={snr} N={n}: {why}")
    grid = [(s, n) for s in sweep["snr_db_list"] for n in sweep["n_list"]]
    if sweep["mode"] == "ser":
        want = set(grid)
        for n in sweep["n_list"]:
            pts = [seen.get((s, n)) for s in sweep["snr_db_list"]]
            if None in pts:
                continue
            for p in pts:
                verdict.require(p["ser_high_snr_floor"] <= p["ser_exact"],
                                f"{sweep['name']} N={n}: SER floor above SER")
            sers = [p["ser_exact"] for p in pts]
            verdict.require(all(a >= b for a, b in zip(sers, sers[1:])),
                            f"{sweep['name']} N={n}: SER rises with SNR")
    else:
        want = {(s, n, g) for s, n in grid for g in sweep["gamma_th_list"]}
        for s, n in grid:
            outs = [seen.get((s, n, g)) for g in sweep["gamma_th_list"]]
            if None not in outs:
                verdict.require(all(a <= b for a, b in zip(outs, outs[1:])),
                                f"{sweep['name']} snr={s} N={n}: outage "
                                f"falls as the threshold rises")
    if set(seen) != want or len(rows) != len(want):
        bad.append(f"rows {sorted(seen)} do not match the sweep grid")
    return not bad, "; ".join(bad[:3])


def _check_cli_calls(calls, refs, verdict):
    for call in calls:
        sweep = next(s for s in wl.CLI_SWEEPS if s["name"] == call["sweep"])
        if call["code"] not in (0, 3) or call["csv"] is None:
            ok, why = False, (f"exit code {call['code']}: "
                              f"{call['stderr'][-300:]}")
        else:
            ok, why = _judge_csv(sweep, _parse_csv(call["csv"]), refs,
                                 verdict)
        verdict.op(f"cli {call['sweep']}", ok, why)


def _cli_signature(calls):
    return {"invocations": len(calls),
            "exit_codes": [c["code"] for c in calls],
            "quality_events": [c["events"] for c in calls],
            "csv_bytes": sum(len(c["csv"] or b"") for c in calls)}


def _cli_setup():
    walls = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = _spawn([sys.executable, "-c", "import mumimo.cli"])
        walls.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RunFailed(f"importing mumimo.cli failed:\n{proc.stderr}")
    return walls


def _cli_outputs_consistent(rounds, verdict):
    first = {c["sweep"]: c["csv"] for c in rounds[0]}
    for calls in rounds:
        for c in calls:
            verdict.require(c["csv"] == first[c["sweep"]],
                            f"cli {c['sweep']}: CSV differs between rounds")


def _cli_prepare():
    """Check which program `python3 -m mumimo.cli` runs; write the
    fading file.  Returns its path relative to the checkout."""
    proc = _spawn([sys.executable, "-c",
                   "import mumimo, os; print(os.path.abspath(mumimo.__file__))"])
    path = proc.stdout.strip()
    if proc.returncode != 0 or not path.startswith(SRC + os.sep):
        raise RunFailed(f"mumimo resolves to {path!r}, not the checkout's "
                           f"program under {SRC}")
    # one path for every run: the CLI writes it into each CSV's header
    fading_file = os.path.join(os.path.basename(OUT_ROOT),
                               "distinct_fading.txt")
    _write_fading_file(os.path.join(ROOT, fading_file))
    return fading_file


def _cli_rounds(seconds, out_dir, fading_file, traced):
    """Whole rounds until `seconds` have passed: (round walls, calls)."""
    rounds, walls = [], []
    begin = perf_counter()
    while True:
        tag = f"{'t' if traced else 'r'}{len(rounds)}"
        wall, calls = _cli_round(os.path.join(out_dir, tag), fading_file,
                                 traced)
        walls.append(wall)
        rounds.append(calls)
        if perf_counter() - begin >= seconds:
            return walls, rounds


def _cli_end_to_end(seconds, out_dir, refs, verdict):
    fading_file = _cli_prepare()
    setups = _cli_setup()
    walls, rounds = _cli_rounds(seconds, out_dir, fading_file, traced=False)
    setups += _cli_setup()
    for calls in rounds:
        _check_cli_calls(calls, refs, verdict)
    _cli_outputs_consistent(rounds, verdict)
    latencies = [c["wall_s"] for calls in rounds for c in calls]
    metrics = {"wall_s": _median(walls), "op_p50_s": _median(latencies),
               "setup_s": _median(setups), "peak_rss_mb": _peak_rss_mb()}
    return metrics, {"signatures": [_cli_signature(c) for c in rounds],
                     "round_walls": walls, "setups": setups,
                     "latencies": [c["wall_s"] for c in rounds[0]]}


def _cli_traced(seconds, out_dir, refs, verdict):
    fading_file = _cli_prepare()
    plain_wall, plain = _cli_round(os.path.join(out_dir, "untraced"),
                                   fading_file)
    sweep = next(s for s in wl.CLI_SWEEPS
                 if s["name"] == wl.THREAD_SPEEDUP_SWEEP)
    single = _invoke(sweep, os.path.join(out_dir, "threads1"), 1,
                     fading_file)
    two = next(c for c in plain if c["sweep"] == sweep["name"])
    verdict.require(single["csv"] == two["csv"],
                    f"cli {sweep['name']}: CSV differs between --threads 1 "
                    f"and --threads {wl.CLI_THREADS}")
    walls, rounds = _cli_rounds(seconds, out_dir, fading_file, traced=True)
    for calls in [plain, [single]] + rounds:
        _check_cli_calls(calls, refs, verdict)
    _cli_outputs_consistent([plain] + rounds, verdict)
    per_call = []
    for calls in rounds:
        for c in calls:
            spans, events = _load_spans(c["spans_file"])
            per_call.append(tracing.layer_metrics(spans, events))
    layers = _scaled(_summed(*per_call), 1.0 / len(rounds))
    layers["cli.invocations"] = len(wl.CLI_SWEEPS)
    layers["cli.csv_bytes"] = sum(len(c["csv"] or b"") for c in plain)
    layers["cli.thread_speedup"] = single["wall_s"] / two["wall_s"]
    layers["tracing.overhead_s"] = _median(walls) - plain_wall
    return layers, {"traced_round_walls": walls,
                    "untraced_round_wall": plain_wall,
                    "threads1_wall": single["wall_s"],
                    "threads2_wall": two["wall_s"],
                    "signatures": [_cli_signature(c) for c in rounds]}


# ---------------------------------------------------------------------------

def _per_layer(layers):
    """Every per-layer metric, 0 for layers the workload never reaches."""
    out = {name: float(layers.get(name, 0.0)) for name in PER_LAYER}
    for layer, fallbacks in (("closedform.rate", "closedform.rate.fallbacks"),
                             ("sinrdist.mgf", "sinrdist.mgf.fallbacks")):
        calls = out[f"{layer}.calls"]
        out[f"{layer}.closed_accept_ratio"] = (
            (calls - out[fallbacks]) / calls if calls else 0.0)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mumimo", "__init__.py")):
        print(f"run.py: no program at {SRC}/mumimo; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(OUT_ROOT, name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    verdict = Verdict()
    units = PER_LAYER if args.trace else END_TO_END
    try:
        if args.workload == "ser-cli":
            run = _cli_traced if args.trace else _cli_end_to_end
            metrics, details = run(args.seconds, out_dir, refs, verdict)
        else:
            run = _library_traced if args.trace else _library_end_to_end
            metrics, details = run(args.workload, args.seed, args.seconds,
                                   out_dir, refs, verdict)
        if args.trace:
            metrics = _per_layer(metrics)
        reported = {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}
    except RunFailed as exc:
        # no metrics: the run's work was not done; the whole run is one
        # failed operation and the reason a problem
        verdict.op("run", False, str(exc))
        metrics, details, reported = {}, {}, {}
    details.update(failures=verdict.failures, problems=verdict.problems,
                   metrics=metrics)
    with open(os.path.join(OUT_ROOT, name + ".json"), "w") as fh:
        json.dump(details, fh, indent=1)
    for problem in verdict.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
