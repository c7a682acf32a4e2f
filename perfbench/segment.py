"""One segment of a benchmark run, in a process of its own.

It sets up (imports, inputs, warm-up), prints `ready`, runs whole rounds of
its workload for the given seconds and prints one JSON line with the rounds
and their time, the outputs' digest and, with --check, the problems the
checks found.  run.py starts the segments and times their set-up from
outside.
"""

import argparse
import json
import os
import resource
import sys
import time

# One BLAS thread per process, set before numpy loads (pool workers inherit
# it): with a thread per CPU, the dense solves at m >= 64 turned erratic and
# up to 15x slower on a 2-CPU machine; see README.md.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (needs the path above)

OUT_DIR = os.path.join(HERE, "out")


def measure(wl, seconds, expected=None):
    """Whole rounds of wl.calls until `seconds` have passed in them.

    Returns the phase's figures and the first round's outputs.  Rounds whose
    outputs differ from the first round's (or from `expected`) are counted.
    """
    first = None
    phase = {"rounds": 0, "wall_s": 0.0, "busy_s": 0.0, "iterations": 0, "differing": 0}
    while phase["rounds"] == 0 or phase["wall_s"] < seconds:
        start = time.perf_counter()
        outs = [call() for call in wl.calls]
        phase["wall_s"] += time.perf_counter() - start
        phase["rounds"] += 1
        digest = wl.digest(outs)
        if first is None:
            first = outs
            expected = expected or digest
        phase["differing"] += digest != expected
        phase["busy_s"] += wl.busy_s(outs)
        phase["iterations"] += wl.iterations(outs)
    phase["digest"] = expected
    return phase, first


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--segment", type=int, default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, OUT_DIR, args.segment)
    wl.warm_up()
    print("ready", flush=True)

    result = {"workers": wl.workers}
    if args.trace:
        import spans

        plain, first = measure(wl, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, _ = measure(wl, args.seconds / 2, plain["digest"])
        finally:
            tracer.remove()
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.segment}.csv"))
        result["traced"] = traced
        result["layers"] = tracer.layer_totals()
        result["certify_calls"] = tracer.calls("certify_nonzero")
        result["tasks"] = tracer.tasks
        phases = [plain, traced]
    else:
        plain, first = measure(wl, args.seconds)
        phases = [plain]
    result["plain"] = plain

    problems, failed = wl.check(first) if args.check else ([], None)
    differing = sum(ph["differing"] for ph in phases)
    if differing:
        problems.append(f"{differing} rounds gave outputs that differ from the first round's")
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(
        rounds=sum(ph["rounds"] for ph in phases),
        instances=wl.instances,
        failed_per_round=failed,
        problems=problems,
        # pool workers run at once; each is counted at the largest one's peak
        peak_rss_kb=own + wl.workers * child,
    )
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
