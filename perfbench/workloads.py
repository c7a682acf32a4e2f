"""The four workloads: inputs made from a seed, one round of program calls, checks.

A round is a fixed list of calls drawn from (seed, workload); every run
repeats whole rounds, so the share of failed operations is the same in every
run.  Each round is timed whole (see segment.measure).  Every round's
outputs must equal the first round's, and the first round's are checked in
full.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

import lps.analysis
import lps.cli
import lps.solvers

import checks

M, N = 8, 20            # the criterion-7 shape
P_GEN = (1.5, 3.0)      # the criterion-7 p grid
EPSILON_FRACTION = 0.1  # the harness's bpdn_eps target: 0.1 |y|
ETA_FRACTION = 0.5      # the harness's bpdn_eta target: 0.5 |x_bp|_p
TRIALS_NEWTON = 48      # trials per p of each mc-newton config
TRIALS_PATH = 24        # trials per p of each mc-path config
SAMPLE = 2              # trials per (family, p) cell re-solved and checked in full
FAULT_SEED = 20260808   # fixed inputs of the kept failures, independent of --seed


def derive(*keys) -> int:
    """A 32-bit seed that is a pure function of the integer keys."""
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0])


def _sha(parts) -> str:
    return hashlib.sha1(repr(parts).encode()).hexdigest()


def _experiment(cfg):
    return lps.analysis.run_genericity_experiment(cfg)


def _resolve(family, A, y, params, iterations, support_size, scipy_sample):
    """Solve one instance again through the public solver and check it apart."""
    res = getattr(lps.solvers, "solve_" + family)(A, y, **params)
    out = checks.solution(family, A, y, params, res.x, res.multiplier)
    if res.iterations != iterations or checks.support_size(res.x) != support_size:
        out.append(f"{family}: record says {iterations} iterations and support {support_size}, "
                   f"the same solve gives {res.iterations} and {checks.support_size(res.x)}")
    if scipy_sample:
        out += checks.objective_vs_scipy(family, A, y, params, res.x)
    return out


class MonteCarlo:
    """run_genericity_experiment, serial: one config per family, many trials.

    A round is one call per config, each over the whole p grid as the
    criterion-7 experiment runs it.
    """

    workers = 1

    def __init__(self, families, p_grid, trials, seed, tag):
        self.cfgs = [
            lps.analysis.ExperimentConfig(
                family=family, m=M, N=N, trials=trials, p_grid=p_grid,
                master_seed=derive(seed, tag, i))
            for i, family in enumerate(families)
        ]
        self.calls = [functools.partial(_experiment, cfg) for cfg in self.cfgs]
        self.instances = sum(cfg.trials * len(cfg.p_grid) for cfg in self.cfgs)

    def warm_up(self):
        for cfg in self.cfgs:
            _experiment(dataclasses.replace(cfg, trials=1))

    @staticmethod
    def _records(out):
        return [r for stats in out for r in stats.trials]

    def digest(self, out) -> str:
        return _sha([(r.family, r.p, r.trial, r.seed, r.support_size, r.min_rel_magnitude,
                      r.kkt_residual, r.iterations, r.status, r.full_support_certified,
                      r.constraint_value, r.multiplier_value) for r in self._records(out)])

    def busy_s(self, out) -> float:
        return sum(r.wall_time_ms for r in self._records(out)) / 1e3

    def iterations(self, out) -> int:
        return sum(r.iterations for r in self._records(out))

    def check(self, out):
        """Returns (problems, failed operations)."""
        recs = self._records(out)
        problems = checks.records(recs, M, N)
        if len(recs) != self.instances:
            problems.append(f"{len(recs)} trial records, expected {self.instances}")
        for cfg, stats in zip(self.cfgs, out):
            for rec in stats.trials:
                if rec.trial < SAMPLE:
                    scipy_sample = rec.trial == 0 and rec.p == cfg.p_grid[0]
                    problems += self._resolve(cfg, rec, scipy_sample)
        return problems, sum(r.status != "converged" for r in recs)

    @staticmethod
    def _resolve(cfg, rec, scipy_sample):
        A, y = checks.gaussian_instance(rec.seed, M, N)
        p, family = rec.p, rec.family
        params = {"p": p}
        out = []
        if family == "rr":
            params["lam"] = cfg.lam
        elif family == "en":
            params.update(r=cfg.r, lam1=cfg.lam1, lam2=cfg.lam2)
        elif family == "bpdn_eps":
            params["eps"] = EPSILON_FRACTION * float(np.linalg.norm(y))
        elif family == "bpdn_eta":
            bp = lps.solvers.solve_bp(A, y, p)
            out += checks.solution("bp", A, y, {"p": p}, bp.x, bp.multiplier)
            params["eta"] = ETA_FRACTION * checks.pnorm(bp.x, p)
        if family.startswith("bpdn"):
            key = "eps" if family == "bpdn_eps" else "eta"
            if abs(rec.constraint_target - params[key]) > 1e-12 * params[key]:
                out.append(f"{family} trial {rec.trial}: target {rec.constraint_target!r}, "
                           f"expected {params[key]!r}")
            params[key] = rec.constraint_target  # the harness's own bits, for an equal re-solve
        return out + _resolve(family, A, y, params, rec.iterations, rec.support_size, scipy_sample)


class Pool:
    """`lps experiment --kind genericity --workers 2` on the criterion-7/12 bp config.

    A round is CALLS invocations of TRIALS trials each.
    """

    workers = 2
    CALLS, TRIALS = 4, 50

    def __init__(self, seed, outdir, segment):
        self.cfgs, self.argvs = [], []
        for j in range(self.CALLS):
            cfg = {"family": "bp", "m": M, "N": N, "p_grid": list(P_GEN),
                   "trials": self.TRIALS, "master_seed": derive(seed, 3, j)}
            base = os.path.join(outdir, f"pool-{segment}-{j}")
            self.cfgs.append(cfg)
            self.argvs.append(self._write(base, cfg))
        self.calls = [functools.partial(self._experiment, argv) for argv in self.argvs]
        self.instances = self.CALLS * self.TRIALS * len(P_GEN)

    def _write(self, base, cfg):
        with open(base + ".json", "w") as fh:
            json.dump(cfg, fh)
        return ["experiment", "--kind", "genericity", "--config", base + ".json",
                "--out", base + ".csv", "--workers", str(self.workers)]

    def warm_up(self):
        base = self.argvs[0][-3][:-len(".csv")] + "-warm"
        lps.cli.main(self._write(base, dict(self.cfgs[0], trials=1)))

    @staticmethod
    def _experiment(argv):
        rc = lps.cli.main(argv)
        with open(argv[-3]) as fh:
            return rc, fh.read()

    @staticmethod
    def _rows(outs):
        return [row for _, text in outs for row in checks.csv_rows(text)]

    def digest(self, outs) -> str:
        return _sha([(rc, [ln.rsplit(",", 1)[0] if not ln.startswith("#") else ln
                           for ln in text.splitlines()]) for rc, text in outs])

    def busy_s(self, out) -> float:
        return sum(float(r["wall_time_ms"]) for r in self._rows(out)) / 1e3

    def iterations(self, out) -> int:
        return sum(int(r["iterations"]) for r in self._rows(out))

    def check(self, outs):
        problems, failed = [], 0
        for argv, cfg, (rc, text) in zip(self.argvs, self.cfgs, outs):
            if rc != 0:
                problems.append(f"lps experiment exited with {rc}")
                failed += self.TRIALS * len(P_GEN)
                continue
            found, rows = checks.experiment_csv(text, M, N, self.TRIALS, P_GEN)
            problems += found
            failed += sum(r["status"] != "converged" for r in rows)
            try:
                with open(argv[-3] + ".manifest.json") as fh:
                    manifest = json.load(fh)
                if manifest.get("master_seed") != cfg["master_seed"]:
                    problems.append("manifest master_seed differs from the config")
            except (OSError, ValueError) as exc:
                problems.append(f"manifest: {exc}")
            if argv is self.argvs[0]:
                for p in P_GEN:
                    for k, row in enumerate([r for r in rows if float(r["p"]) == p][:SAMPLE]):
                        A, y = checks.gaussian_instance(int(row["seed"]), M, N)
                        problems += _resolve("bp", A, y, {"p": p}, int(row["iterations"]),
                                             int(row["support_size"]), scipy_sample=(k == 0))
        return problems, failed


@dataclass
class Op:
    """One public solve call and what its output is checked against."""

    family: str
    A: np.ndarray
    y: np.ndarray
    params: dict
    x0: Optional[np.ndarray] = None  # planted signal of a bp_l1 instance
    fault: Optional[str] = None      # a known fault this call shows; it counts as failed
    sample: bool = False             # objective checked against scipy.optimize

    @property
    def check_params(self):
        return {"x0": self.x0} if self.family == "bp_l1" else self.params


P_ALL = (1.2, 1.5, 2.0, 3.0, 4.5)
REPEATS = 4  # draws of each call per round: seed-to-seed spread shrinks as 1/sqrt
EN = {"r": 1.0, "lam1": 0.1, "lam2": 0.1}
NEWTON_FAMILIES = ("bp", "rr", "en", "bpdn_eps", "bpdn_eta")


def _gauss(rng, m, n, scale=1.0):
    A = rng.standard_normal((m, n))
    return A * scale, rng.standard_normal(m) * scale


def _pq_bound(A, y, p):
    """A lower bound on min {|x|_p : Ax = y}: |y| <= |A|_2 max(1, N^(1/2-1/p)) |x|_p."""
    n = A.shape[1]
    return float(np.linalg.norm(y) / (np.linalg.norm(A, 2) * max(1.0, n ** (0.5 - 1.0 / p))))


def _family_op(rng, family, m, n, p, scale=1.0, sample=False):
    A, y = _gauss(rng, m, n, scale)
    if family == "bp":
        params = {"p": p}
    elif family == "rr":
        params = {"p": p, "lam": 0.1}
    elif family == "en":
        params = dict(EN, p=p)
    elif family == "bpdn_eps":
        params = {"p": p, "eps": EPSILON_FRACTION * float(np.linalg.norm(y))}
    else:  # bpdn_eta, with eta below the bp optimum so the constraint is active
        params = {"p": p, "eta": 0.5 * _pq_bound(A, y, p)}
    return Op(family, A, y, params, sample=sample)


def _sparse_measured(rng, m, n, s):
    A = rng.standard_normal((m, n))
    x0 = np.zeros(n)
    x0[rng.choice(n, size=s, replace=False)] = rng.choice([-1.0, 1.0], size=s)
    return A, A @ x0, x0


def mixed_ops(seed):
    """The solve-mixed round: REPEATS draws of each call, then the kept failures."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), 4])))
    ops = []
    for rep in range(REPEATS):
        ops += _mixed_draw(rng, sample=(rep == 0))
    return ops + fault_ops()


def _mixed_draw(rng, sample):
    ops = []
    for p in P_ALL:
        for fam in ("bp", "rr", "en"):
            ops.append(_family_op(rng, fam, 8, 20, p, sample=(sample and p == 1.5)))
    for p in (1.2, 2.0, 4.5):
        for fam in ("bpdn_eps", "bpdn_eta"):
            ops.append(_family_op(rng, fam, 8, 20, p, sample=(sample and p == 1.2)))
    for p in (1.2, 2.0, 4.5):
        for fam in ("bp", "rr", "en"):
            ops.append(_family_op(rng, fam, 32, 80, p))
    ops += [_family_op(rng, "bpdn_eps", 32, 80, 1.5), _family_op(rng, "bpdn_eta", 32, 80, 3.0)]
    A, y, x0 = _sparse_measured(rng, 32, 80, 2)
    ops.append(Op("bp_l1", A, y, {}, x0=x0, sample=sample))
    A, y, _ = _sparse_measured(rng, 8, 20, 2)
    ops.append(Op("rr_irls", A, y, {"p": 0.5, "lam": 0.1}))
    # (A, y) scaled by 1e+-6, only where the solvers hold their accuracy (see README)
    for fam, scale, p in (("bp", 1e6, 1.5), ("bp", 1e-6, 3.0), ("rr", 1e6, 3.0), ("rr", 1e-6, 1.5),
                          ("en", 1e6, 1.2), ("en", 1e-6, 4.5), ("bpdn_eta", 1e6, 3.0)):
        ops.append(_family_op(rng, fam, 8, 20, p, scale))
    for fam, p in (("bp", 1.5), ("rr", 1.2), ("en", 3.0)):
        ops.append(_family_op(rng, fam, 128, 320, p))
    return ops


def fault_ops():
    """Calls that fail on every run, from fixed inputs; see README."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([FAULT_SEED])))
    ops = []
    for p in (1.2, 1.5):
        A, y = _gauss(rng, 8, 20, 1e-6)
        ops.append(Op("bp", A, y, {"p": p}, fault="bp-absolute-floor"))
    A, y = _gauss(rng, 8, 20)
    ops.append(Op("en", A, y, dict(EN, p=1.02), fault="en-near-1"))
    return ops


def _solve(op):
    try:
        return getattr(lps.solvers, "solve_" + op.family)(op.A, op.y, **op.params)
    except Exception as exc:  # an operation that raises is a failed operation
        return exc


def op_problems(op, res):
    """Problems of one solve-mixed call's output."""
    if isinstance(res, Exception):
        return [f"raised {res!r}"]
    out = [] if res.status == "converged" else [f"status {res.status}"]
    out += checks.solution(op.family, op.A, op.y, op.check_params, res.x, res.multiplier)
    if op.sample and not out:
        out += checks.objective_vs_scipy(op.family, op.A, op.y, op.params, res.x)
    return out


class Mixed:
    """A fixed list of single public solve calls."""

    workers = 1

    def __init__(self, seed):
        self.ops = mixed_ops(seed)
        self.calls = [functools.partial(_solve, op) for op in self.ops]
        self.instances = len(self.ops)

    def warm_up(self):
        seen = set()
        for op in self.ops:
            if op.family not in seen and op.fault is None:
                seen.add(op.family)
                _solve(op)

    def digest(self, out) -> str:
        parts = []
        for res in out:
            if isinstance(res, Exception):
                parts.append(repr(res))
            else:
                mu = res.multiplier
                mu = mu.tobytes() if isinstance(mu, np.ndarray) else mu
                parts.append((res.x.tobytes(), mu, res.status, res.iterations))
        return _sha(parts)

    def busy_s(self, out) -> float:
        return 0.0  # no trial records: single solves have no harness to be busy in

    def iterations(self, out) -> int:
        return sum(res.iterations for res, op in zip(out, self.ops)
                   if op.family in NEWTON_FAMILIES and not isinstance(res, Exception))

    def check(self, out):
        problems, failed = [], 0
        for i, (op, res) in enumerate(zip(self.ops, out)):
            found = op_problems(op, res)
            if found:
                failed += 1
                if op.fault is None:
                    shape = "x".join(map(str, op.A.shape))
                    problems += [f"op {i} {op.family} {shape} {op.params.get('p')}: {e}" for e in found]
        return problems, failed


def build(name, seed, outdir, segment):
    if name == "mc-newton":
        return MonteCarlo(("bp", "rr", "en"), P_GEN, TRIALS_NEWTON, seed, 1)
    if name == "mc-path":
        return MonteCarlo(("bpdn_eps", "bpdn_eta"), P_GEN, TRIALS_PATH, seed, 2)
    if name == "mc-pool":
        return Pool(seed, outdir, segment)
    if name == "solve-mixed":
        return Mixed(seed)
    raise ValueError(f"unknown workload {name!r}")
