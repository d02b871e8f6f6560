"""The fixed operation lists of the three benchmark workloads.

This module is shared by the worker that runs the operations, the checker
that judges their outputs and `make_references.py`, which computes the
expected values apart from the program.  It imports neither numpy nor
mumimo, so every input is a plain Python number that all three read alike.

No random draw decides which code path runs or how much work is done: the
seed only feeds the Monte Carlo trials and the network drops of the
`simulation` workload.
"""

PSK_ORDER = 4
DIRECT_GAIN = 1.0
E_U = 10.0  # energy of the power-scaled points (p_u = E_U / N)


def geometric(lo, hi, count):
    """`count` gains spaced geometrically from lo to hi (both included)."""
    return [lo * (hi / lo) ** (k / (count - 1)) for k in range(count)]


# Cross-cell gains seen by home cell 0, listed cell by cell (cells 1, 2, ...),
# K gains per interfering cell.
PROFILES = {
    # scenario 1: L=4, K=10, beta=1, every cross gain equal to a
    "s1-a0.1": {"cells": 4, "users": 10, "cross": [0.1] * 30},
    "s1-a0.5": {"cells": 4, "users": 10, "cross": [0.5] * 30},
    # all-distinct profile: L=3, K=4, 8 cross gains geometric in [0.05, 0.5]
    "distinct": {"cells": 3, "users": 4, "cross": geometric(0.05, 0.5, 8)},
    # expansion breakdown: 30 cross gains geometric in [0.05, 0.2]; the
    # partial-fraction expansion of this profile loses every digit
    "breakdown": {"cells": 4, "users": 10,
                  "cross": geometric(0.05, 0.2, 30)},
}


def beta_tensor(name):
    """beta[l][i][k] for a profile: direct gains DIRECT_GAIN, and every base
    station sees the profile's cross gains from the other cells in order."""
    prof = PROFILES[name]
    cells, users, cross = prof["cells"], prof["users"], prof["cross"]
    chunks = [cross[j * users:(j + 1) * users] for j in range(cells - 1)]
    beta = []
    for l in range(cells):
        others = iter(chunks)
        beta.append([[DIRECT_GAIN] * users if i == l else list(next(others))
                     for i in range(cells)])
    return beta


def _op(kind, profile, n, p_u, gamma_th=None, fault=None):
    key = f"{kind}|{profile}|N={n}|pu={p_u!r}"
    if gamma_th is not None:
        key += f"|g={gamma_th!r}"
    return {"id": key, "kind": kind, "profile": profile, "n": n,
            "p_u": p_u, "gamma_th": gamma_th, "fault": fault}


# Operations that carry a `fault` name fail their check because of a known
# fault of the program (see README.md): "expansion-breakdown" and
# "outage-tail".  They are counted in `failed`; any other failure makes the
# run incorrect.


def closed_rate_ops():
    """Library calls of the `closed-rate` workload, in run order."""
    ops = []
    for a, ns in ((0.1, (10, 20, 50, 100, 500)), (0.5, (10, 50, 100, 500))):
        prof = f"s1-a{a}"
        for n in ns:
            ops.append(_op("rate", prof, n, 10.0))
            ops.append(_op("bound", prof, n, 10.0))
            if a == 0.1:
                for g in (0.5, 1.0, 2.0):
                    ops.append(_op("outage", prof, n, 10.0, g,
                                   fault="outage-tail" if n >= 40 else None))
    for n in (100, 500):  # power scaling p_u = E_U / N
        ops.append(_op("rate", "s1-a0.1", n, E_U / n))
        ops.append(_op("bound", "s1-a0.1", n, E_U / n))
        ops.append(_op("limit", "s1-a0.1", n, E_U / n))
    for n in (6, 16, 40):
        ops.append(_op("rate", "distinct", n, 10.0))
        ops.append(_op("bound", "distinct", n, 10.0))
    ops.append(_op("outage", "breakdown", 20, 10.0, 1.0,
                   fault="expansion-breakdown"))
    ops.append(_op("bound", "breakdown", 20, 10.0,
                   fault="expansion-breakdown"))
    ops.append(_op("outage", "s1-a0.1", 40, 10.0, 1.0, fault="outage-tail"))
    return ops


# `ser-cli`: one `mumimo` invocation per entry, run one at a time.
CLI_THREADS = 2
CLI_SWEEPS = [
    {"name": "ser-s1", "mode": "ser", "profile": "s1-a0.1",
     "n_list": (15, 20, 50), "snr_db_list": (10.0, 30.0)},
    {"name": "ser-distinct", "mode": "ser", "profile": "distinct",
     "n_list": (8, 16), "snr_db_list": (10.0, 30.0)},
    {"name": "outage-s1", "mode": "outage", "profile": "s1-a0.1",
     "n_list": (15, 20, 25), "snr_db_list": (0.0, 10.0, 20.0, 30.0),
     "gamma_th_list": (1.0, 2.0)},
]
# sweep run again at --threads 1 in the traced run (thread speed-up and
# byte-identical CSVs)
THREAD_SPEEDUP_SWEEP = "ser-s1"


def db_to_linear(snr_db):
    """The CLI's own dB conversion, so references see the same p_u."""
    return 10.0 ** (snr_db / 10.0)


def ser_key(profile, n, p_u):
    return f"ser|{profile}|N={n}|pu={p_u!r}"


def outage_key(profile, n, p_u, gamma_th):
    return f"outage|{profile}|N={n}|pu={p_u!r}|g={gamma_th!r}"


# `simulation`: Monte Carlo at scenario 1 and the hexagonal network.
MC_TRIALS = 2048
MC_OUTAGE_THRESHOLD = {20: 2.0, 100: 28.0}  # both give outage in (0.05, 0.5)
NET_DROPS = 200
NET_SAMPLES = 100
FIXED_DROP_SAMPLES = 5000
FIXED_DROP_SEED = 20120212  # the fixed reuse-1 drop (N=20) is stored data


def simulation_ops():
    ops = []
    for n in (20, 100):
        for kind in ("mc-rate", "mc-ser", "mc-outage"):
            g = MC_OUTAGE_THRESHOLD[n] if kind == "mc-outage" else None
            ops.append(_op(kind, "s1-a0.1", n, 10.0, g))
    for reuse in (1, 3, 7):
        for n in (20, 100):
            op = _op("network", f"hex-r{reuse}", n, 10.0)
            op["reuse"] = reuse
            ops.append(op)
    op = _op("fixed-drop", "hex-r1", 20, 10.0)
    op["reuse"] = 1
    ops.append(op)
    return ops


def reference_key(op):
    """Key of the reference an operation's output is checked against."""
    if op["kind"] == "fixed-drop":
        return "fixed-drop"
    if op["kind"] == "network":
        return None
    return op["id"].replace("mc-", "", 1)


WORKLOADS = ("closed-rate", "ser-cli", "simulation")
