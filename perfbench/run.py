"""Benchmark of the lps solvers: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload mc-newton --seed 1 --seconds 24 --trace 0

Run from the root of the repository.  The run is split into SEGMENTS
segments, each a fresh process (segment.py) that imports lps from src/,
builds the workload's inputs from the seed, warms up, then repeats whole
rounds of calls for seconds / SEGMENTS.  Every segment runs the same round.
Throughput is the median over segments of the instances each segment
completed per second of its timed phase.  Each segment's set-up is timed
from its start to its `ready` line, so a run sets up SEGMENTS times and
reports the median.  The first segment checks the outputs; the others must
give the same outputs.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer ones.  Problems found by the checks
go to standard error.
"""

import argparse
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc-newton", "mc-path", "mc-pool", "solve-mixed")
SEGMENTS = 4
DEADLINE_S = 170.0  # the whole run, set-ups and checks included


class SegmentError(RuntimeError):
    pass


def _read_line(fd, buf, deadline):
    """Next line from a pipe, waiting at most until `deadline`; returns (line, rest)."""
    while b"\n" not in buf:
        wait = deadline - time.monotonic()
        if wait <= 0 or not select.select([fd], [], [], wait)[0]:
            raise SegmentError("segment timed out")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            raise SegmentError("segment ended without output")
        buf += chunk
    line, rest = buf.split(b"\n", 1)
    return line.decode(), rest


def run_segment(args, segment, deadline):
    cmd = [sys.executable, os.path.join(HERE, "segment.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--segment", str(segment), "--check", str(int(segment == 0)),
           "--seconds", repr(args.seconds / SEGMENTS), "--trace", str(args.trace)]
    start = time.perf_counter()
    # its own process group, so that a segment killed on timeout takes its
    # pool workers with it
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, start_new_session=True)
    try:
        fd = proc.stdout.fileno()
        ready, buf = _read_line(fd, b"", deadline)
        setup_s = time.perf_counter() - start
        if ready != "ready":
            raise SegmentError(f"segment said {ready!r} in place of ready")
        line, _ = _read_line(fd, buf, deadline)
        if proc.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
            raise SegmentError(f"segment exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
    seg = json.loads(line)
    seg["setup_s"] = setup_s
    return seg


def _segment_rate(seg, phase):
    """Instances per second of one segment's whole timed phase."""
    return seg[phase]["rounds"] * seg["instances"] / seg[phase]["wall_s"]


def _rate(segs, phase):
    return statistics.median(_segment_rate(s, phase) for s in segs)


def _per(total, instances):
    return total / instances if instances else 0.0


def end_to_end(segs):
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "instances_per_s": {"value": _rate(segs, "plain"), "unit": "instances/s"},
        "setup_s": {"value": statistics.median(s["setup_s"] for s in segs), "unit": "s"},
        "peak_rss_mb": {"value": (own_kb + max(s["peak_rss_kb"] for s in segs)) / 1024.0,
                        "unit": "MB"},
    }


def per_layer(segs):
    traced = [s["traced"] for s in segs]
    plain = [s["plain"] for s in segs]
    n = sum(t["rounds"] for t in traced) * segs[0]["instances"]
    totals = {layer: [sum(s["layers"][layer][k] for s in segs) for k in range(3)]
              for layer in segs[0]["layers"]}
    workers = segs[0]["workers"]
    metrics = {
        "pnorm.calls": (_per(totals["pnorm"][0], n), "count/instance"),
        "pnorm.self_ms": (_per(totals["pnorm"][1], n) / 1e6, "ms/instance"),
        "linalg.calls": (_per(totals["linalg"][0], n), "count/instance"),
        "linalg.self_ms": (_per(totals["linalg"][1], n) / 1e6, "ms/instance"),
        "solvers.newton_iters": (_per(sum(t["iterations"] for t in traced), n),
                                 "count/instance"),
        "solvers.self_ms": (_per(totals["solvers"][1], n) / 1e6, "ms/instance"),
        "path.rr_solves": (_per(totals["path"][0], n), "count/instance"),
        "path.ms": (_per(totals["path"][2], n) / 1e6, "ms/instance"),
        "ensembles.self_ms": (_per(totals["ensembles"][1], n) / 1e6, "ms/instance"),
        "analysis.self_ms": (_per(totals["analysis"][1], n) / 1e6, "ms/instance"),
        "analysis.certify_calls": (_per(sum(s["certify_calls"] for s in segs), n),
                                   "count/instance"),
        "pool.tasks": (_per(sum(s["tasks"] for s in segs), n), "count/instance"),
        "pool.busy_fraction": (sum(p["busy_s"] for p in plain)
                               / (workers * sum(p["wall_s"] for p in plain)), "fraction"),
        "trace.overhead_pct": (100.0 * (1.0 - _rate(segs, "traced") / _rate(segs, "plain")), "%"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lps", "__init__.py")):
        print(f"error: no lps package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    segs = []
    try:
        for k in range(SEGMENTS):
            segs.append(run_segment(args, k, deadline))
    except (SegmentError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {args.workload} segment {len(segs)}: {exc}", file=sys.stderr)
        return 1
    problems = [p for s in segs for p in s["problems"]]
    if len({s["plain"]["digest"] for s in segs}) != 1:
        problems.append("segments gave different outputs for the same inputs")
    for p in problems[:50]:
        print(f"check failed: {p}", file=sys.stderr)
    metrics = per_layer(segs) if args.trace else end_to_end(segs)
    for k, s in enumerate(segs):
        print(f"segment {k}: set-up {s['setup_s']:.3f} s, {s['plain']['rounds']} rounds, "
              f"{_segment_rate(s, 'plain'):.1f} instances/s", file=sys.stderr)
    rounds = sum(s["rounds"] for s in segs)
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * segs[0]["instances"],
        "failed": rounds * segs[0]["failed_per_round"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
