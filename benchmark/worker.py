"""Run the operation list of a library workload (`closed-rate` or
`simulation`) in a process of its own, so that its peak memory is the
program's and not the checker's.

    python3 benchmark/worker.py --workload closed-rate --seed 1 \
        --seconds 30 --trace 0 --out result.json [--setup-only]

`run.py` starts it with PYTHONPATH pointing at the checkout's `src`.  The
worker repeats whole rounds of the operation list until `--seconds` have
passed (at least one round) and writes every output and latency to `--out`;
with `--trace 1` it also writes the spans next to it.  It checks nothing:
judging the outputs is the checker's job.
"""

import argparse
import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))


def _closed_rate(np, seed):
    """(op, thunk) pairs; builds every config and expansion up front."""
    import workloads as wl
    from mumimo import asymptotic, closedform, fading

    fads, expansions = {}, {}
    for name, prof in wl.PROFILES.items():
        fad = fading.LargeScaleFading(np.array(wl.beta_tensor(name)))
        cfg = fading.SystemConfig(prof["cells"], prof["users"],
                                  prof["users"], 1.0)
        fads[name] = fad
        expansions[name] = fading.characteristic_coefficients(
            fading.build_profile(cfg, fad, 0))

    def rate(cfg, fad, exp):
        quality = closedform.QualityLog()
        res = closedform.rate_exact(cfg, fad, exp, 0, 0, quality=quality)
        return {"value": res.value, "method": res.method,
                "events": len(quality.events)}

    thunks = {
        "rate": rate,
        "bound": lambda cfg, fad, exp: {"value": closedform.rate_lower_bound(
            cfg, fad, exp, 0, 0).value},
        "limit": lambda cfg, fad, exp: {
            "value": asymptotic.power_scaled_limit_rate(fad, 0, 0, wl.E_U)},
    }
    out = []
    for op in wl.closed_rate_ops():
        prof = wl.PROFILES[op["profile"]]
        cfg = fading.SystemConfig(prof["cells"], prof["users"], op["n"],
                                  op["p_u"])
        fad, exp = fads[op["profile"]], expansions[op["profile"]]
        if op["kind"] == "outage":
            def thunk(cfg=cfg, fad=fad, exp=exp, g=op["gamma_th"]):
                return {"value": closedform.outage_exact(cfg, fad, exp, 0, 0,
                                                         g)}
        else:
            def thunk(cfg=cfg, fad=fad, exp=exp, fn=thunks[op["kind"]]):
                return fn(cfg, fad, exp)
        out.append((op, thunk))
    return out


def _simulation(np, seed):
    import workloads as wl
    from mumimo import cellnet, closedform, fading, montecarlo

    s1 = fading.LargeScaleFading(np.array(wl.beta_tensor("s1-a0.1")))
    qpsk = closedform.ModulationScheme(wl.PSK_ORDER)
    ofdm = cellnet.OfdmParams()
    with open(os.path.join(HERE, "fixed_drop.json")) as fh:
        stored = json.load(fh)
    drop = cellnet.UserDrop(np.array(stored["bs_positions"]),
                            np.array(stored["positions"]),
                            np.array(stored["beta_home"]))

    def estimate(est):
        return {"value": est.value, "std_error": est.std_error,
                "trials": est.num_trials}

    out = []
    for index, op in enumerate(wl.simulation_ops()):
        kind, n = op["kind"], op["n"]
        # per-operation streams: the same in every round, new with the seed
        stream = [seed, index]
        if kind.startswith("mc-"):
            cfg = fading.SystemConfig(4, 10, n, op["p_u"])
            plan = montecarlo.TrialPlan(wl.MC_TRIALS,
                                        base_seed=seed * 1000 + index)
            call = {
                "mc-rate": lambda cfg=cfg, plan=plan:
                    montecarlo.estimate_rate(cfg, s1, plan),
                "mc-ser": lambda cfg=cfg, plan=plan:
                    montecarlo.estimate_ser(cfg, s1, qpsk, plan),
                "mc-outage": lambda cfg=cfg, plan=plan, g=op["gamma_th"]:
                    montecarlo.estimate_outage(cfg, s1, plan, g),
            }[kind]

            def thunk(call=call):
                return estimate(call())
        elif kind == "network":
            scenario = cellnet.NetworkScenario(reuse_factor=op["reuse"],
                                               antennas=n,
                                               transmit_snr=op["p_u"])

            def thunk(scenario=scenario, stream=stream):
                dist = cellnet.rate_distribution(
                    scenario, ofdm, wl.NET_DROPS, wl.NET_SAMPLES,
                    np.random.default_rng(stream))
                return {"likely95": dist.likely_95, "mean": dist.mean,
                        "samples": int(dist.samples.size),
                        "min": float(dist.samples[0]),
                        "max": float(dist.samples[-1]),
                        "drops": wl.NET_DROPS}
        else:
            scenario = cellnet.NetworkScenario(reuse_factor=op["reuse"],
                                               antennas=n,
                                               transmit_snr=op["p_u"])

            def thunk(scenario=scenario, stream=stream):
                rates = cellnet.net_rate_samples(
                    scenario, ofdm, drop, np.random.default_rng(stream),
                    samples=wl.FIXED_DROP_SAMPLES)
                return {"mean": rates.mean(axis=0).tolist(),
                        "std_error": (rates.std(axis=0, ddof=1)
                                      / np.sqrt(rates.shape[0])).tolist(),
                        "samples": int(rates.size)}
        out.append((op, thunk))
    return out


OPERATION_LISTS = {"closed-rate": _closed_rate, "simulation": _simulation}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(OPERATION_LISTS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # set-up: importing the program and building every input
    start = perf_counter()
    import numpy as np
    import mumimo
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install(tracing.Tracer())
    ops = OPERATION_LISTS[args.workload](np, args.seed)
    setup_s = perf_counter() - start
    result = {"setup_s": setup_s, "mumimo": os.path.abspath(mumimo.__file__)}
    if args.setup_only:
        return _write(args.out, result)

    rounds, marks = [], []
    begin = perf_counter()
    while True:
        marks.append(len(tracer.spans) if tracer else 0)
        latencies, outputs = [], []
        round_start = perf_counter()
        for op, thunk in ops:
            t = perf_counter()
            try:
                output = thunk()
            except Exception as exc:  # an operation that raises has failed
                output = {"error": f"{type(exc).__name__}: {exc}"}
            latencies.append(perf_counter() - t)
            outputs.append(output)
        wall = perf_counter() - round_start
        rounds.append({"wall_s": wall, "latencies": latencies,
                       "outputs": outputs})
        if perf_counter() - begin >= args.seconds:
            break
    result.update(rounds=rounds, ids=[op["id"] for op, _ in ops])
    if tracer:
        result["spans_file"] = args.out + ".spans"
        result["marks"] = marks
        with open(result["spans_file"], "w") as fh:
            json.dump({"spans": tracer.spans, "events": tracer.events}, fh)
    return _write(args.out, result)


def _write(path, result):
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
