"""Command-line front end.

Subcommands:

  solve       solve one problem instance from matrix/vector files
  experiment  run a genericity / recovery / perturbation experiment to CSV
  gen         generate a Gaussian instance (optionally sparse-measured)
  rip         brute-force restricted isometry constant of a matrix file

Exit codes: 0 success/converged, 1 usage or validation error,
2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__, analysis, ensembles, io_text
from .errors import InvalidInputError, LpsError
from .solvers import (CONVERGED, FAMILIES, ProblemInstance, SolverConfig, _BOUNDS, _valid,
                      solve_instance)

CLI_FAMILIES = tuple(f.replace("_", "-") for f in FAMILIES)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(out_path, command, digest, master_seed, started):
    io_text.RunManifest(
        command=command,
        config_digest=digest,
        master_seed=master_seed,
        tool_version=__version__,
        started=started,
        finished=_now(),
    ).write(str(out_path) + ".manifest.json")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _build_instance(args, A, y) -> ProblemInstance:
    """The --family instance with every parameter flag in its field; the
    family reads the ones it takes, and the solver validates them."""
    return ProblemInstance(A, y, args.family.replace("-", "_"), p=args.p, lam=args.lam,
                           lam1=args.lambda1, lam2=args.lambda2, r=args.r, eps=args.eps,
                           eta=args.eta)


def cmd_solve(args) -> int:
    started = _now()
    try:
        A = io_text.load_matrix(args.matrix)
        y = io_text.load_vector(args.rhs)
        inst = _build_instance(args, A, y)
        cfg = SolverConfig()
        if args.tol is not None:
            cfg.kkt_tol = args.tol
        if args.max_iter is not None:
            cfg.max_iter = args.max_iter
        res = solve_instance(inst, cfg)
    except (LpsError, OSError) as exc:
        return _fail(str(exc))

    rep = analysis.support(res.x, analysis.DEFAULT_SUPPORT_TOL)
    multiplier = res.multiplier
    if isinstance(multiplier, np.ndarray):
        multiplier = multiplier.tolist()
    doc = {
        "family": args.family,
        "p": args.p,
        "m": A.shape[0],
        "N": A.shape[1],
        "status": res.status,
        "objective": res.objective,
        "kkt_residual": res.kkt_residual,
        "iterations": res.iterations,
        "solution": res.x.tolist(),
        "multiplier": multiplier,
        "reduced_to_bp": res.reduced_to_bp,
        "support": asdict(rep),  # json writes the indices tuple as a list
    }
    text = json.dumps(_finite(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        digest = io_text.config_digest({k: v for k, v in vars(args).items() if k != "func"})
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
            _write_manifest(args.out, "solve", digest, None, started)
        except OSError as exc:
            return _fail(str(exc))
    else:
        sys.stdout.write(text)
    return EXIT_OK if res.status == CONVERGED else EXIT_NO_CONVERGENCE


def _finite(v):
    """v with each non-finite float in it as None, JSON's null."""
    if isinstance(v, dict):
        return {k: _finite(e) for k, e in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite(e) for e in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

_EXPERIMENT_KEYS = {
    "family", "m", "N", "p_grid", "trials", "master_seed", "support_tol",
    "sparsity", "epsilon_fraction", "eta_fraction", "lambda", "lambda1",
    "lambda2", "r", "signal_values", "delta_grid",
}


def _number(v):
    """v as a float if it is a finite JSON number (true, false, NaN and
    Infinity are not), else None."""
    ok = type(v) is float and math.isfinite(v) or type(v) is int and abs(v) <= sys.float_info.max
    return float(v) if ok else None


def _load_experiment_config(path, kind):
    """(ExperimentConfig, raw JSON) of a config file; a perturbation config
    becomes a bp_l1 config at p = 1, its delta_grid left in raw."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise InvalidInputError("config must be a JSON object")
    problems = [f"unknown field {k!r}" for k in raw if k not in _EXPERIMENT_KEYS]

    def invalid(key):
        problems.append(f"field {key!r} has invalid value {raw[key]!r}")

    def whole(key, required=True):
        """raw[key] as an int: a JSON number with no fraction (not truncated)."""
        v = raw.get(key)
        if v is None:  # null is absent
            if required:
                problems.append(f"missing field {key!r}")
        elif type(v) is int or type(v) is float and v.is_integer():
            return int(v)
        else:
            invalid(key)
        return None

    def number(key, default=None):
        """raw[key] as a float, or default when it is absent or null."""
        if raw.get(key) is None:
            return default
        v = _number(raw[key])
        if v is None:
            invalid(key)
        return v

    def grid(key, default=None):
        """raw[key] as a non-empty list of floats, or default when absent or null."""
        v = raw.get(key)
        if v is None and default is not None:
            return default
        if not isinstance(v, list) or not v:
            problems.append(f"field {key!r} must be a non-empty list")
            return None
        v = [_number(e) for e in v]
        if None in v:
            invalid(key)
        return v

    fields = dict(
        m=whole("m"), N=whole("N"), trials=whole("trials"), master_seed=whole("master_seed"),
        sparsity=whole("sparsity", required=kind == "perturbation"),
        support_tol=number("support_tol", analysis.DEFAULT_SUPPORT_TOL),
        epsilon_fraction=number("epsilon_fraction"), eta_fraction=number("eta_fraction"),
        lam=number("lambda", 0.1), lam1=number("lambda1", 0.1), lam2=number("lambda2", 0.1),
        r=number("r", 1.0), signal_values=raw.get("signal_values", "pm_one"),
    )
    if fields["signal_values"] not in ensembles.SIGNAL_VALUES:
        invalid("signal_values")
    if kind == "perturbation":
        family, p_grid = "bp-l1", [1.0]
        grid("delta_grid")
    else:
        family = raw.get("family")
        if not isinstance(family, str) or family not in CLI_FAMILIES:
            problems.append(f"field 'family' must be one of {CLI_FAMILIES}")
        p_grid = grid("p_grid", list(analysis.DEFAULT_P_GRID))
    if not problems:  # p and the family's config parameters (not eps, eta) against its ranges
        name = family.replace("-", "_")
        checks = [("p_grid", "p", p) for p in p_grid if FAMILIES[name].p_range]
        checks += [(_BOUNDS[k][0], k, fields[k]) for k in FAMILIES[name].params if k in fields]
        for key, param, v in checks:
            try:
                _valid(name, param, v)
            except LpsError as exc:
                problems.append(f"field {key!r}: {exc}")
    if problems:
        raise InvalidInputError("; ".join(problems))
    cfg = analysis.ExperimentConfig(family=family.replace("-", "_"), p_grid=tuple(p_grid), **fields)
    if kind != "perturbation":
        analysis.check_experiment(cfg, kind)
    return cfg, raw


def _summary_lines(stats) -> list:
    lines = ["# summary"]
    for c in stats.cells:
        parts = [
            f"family={c.family.replace('_', '-')}",
            f"p={repr(c.p)}",
            f"trials_run={c.trials_run}",
            f"full_support_count={c.full_support_count}",
            f"full_support_fraction={repr(c.full_support_fraction)}",
            f"min_support_seen={c.min_support_seen}",
            f"mean_min_rel_magnitude={repr(c.mean_min_rel_magnitude)}",
            f"kkt_residual_max={repr(c.kkt_residual_max)}",
            f"failures={c.failures}",
        ]
        if c.recovered_count is not None:
            parts.append(f"recovered_count={c.recovered_count}")
            parts.append(f"recovery_fraction={repr(c.recovery_fraction)}")
            parts.append(f"support_le_m_count={c.support_le_m_count}")
        lines.append("# " + ",".join(parts))
    return lines


def cmd_experiment(args) -> int:
    started = _now()
    workers = args.workers
    if workers is None:
        env = os.environ.get("LPS_WORKERS", "1")
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            return _fail(f"LPS_WORKERS must be an integer >= 1, got {env!r}")
    if workers < 1:
        return _fail("--workers must be >= 1")
    try:
        cfg, raw = _load_experiment_config(args.config, args.kind)
    except (InvalidInputError, OSError, json.JSONDecodeError) as exc:
        return _fail(f"config: {exc}")

    try:
        if args.kind == "genericity":
            stats = analysis.run_genericity_experiment(cfg, workers=workers)
        elif args.kind == "recovery":
            stats = analysis.run_recovery_comparison(cfg, workers=workers)
        else:
            spec = ensembles.EnsembleSpec(m=cfg.m, N=cfg.N, seed=cfg.master_seed)
            A, _ = ensembles.gen_gaussian_instance(spec)
            rows = analysis.perturbation_robustness(
                A, s=cfg.sparsity, trials=cfg.trials,
                delta_grid=raw["delta_grid"], seed=cfg.master_seed,
            )
    except (LpsError, ValueError) as exc:
        return _fail(str(exc))

    lines = []
    if args.kind == "perturbation":
        lines.append("delta,trials,failures,recovered,recovery_fraction")
        for row in rows:
            lines.append(
                f"{row['delta']!r},{row['trials']},{row['failures']},"
                f"{row['recovered']},{row['recovery_fraction']!r}"
            )
    else:
        lines.append(",".join(io_text.CSV_COLUMNS))
        lines.extend(io_text.trial_csv_row(rec) for rec in stats.trials)
        lines.extend(_summary_lines(stats))

    try:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        _write_manifest(args.out, f"experiment --kind {args.kind}",
                        io_text.config_digest(raw), cfg.master_seed, started)
    except OSError as exc:
        return _fail(str(exc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen / rip
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    try:
        spec = ensembles.EnsembleSpec(
            m=args.m, N=args.n, seed=args.seed, sparsity=args.sparsity
        )
        if spec.sparsity is not None:
            A, y, x0, sup = ensembles.gen_sparse_measured(spec)
        else:
            A, y = ensembles.gen_gaussian_instance(spec)
            x0, sup = None, None
        io_text.save_matrix(args.out_matrix, A)
        io_text.save_vector(args.out_rhs, y)
        if args.out_signal:
            if x0 is None:
                raise InvalidInputError("--out-signal requires --sparsity")
            io_text.save_vector(args.out_signal, x0)
        if args.out_support:
            if sup is None:
                raise InvalidInputError("--out-support requires --sparsity")
            with open(args.out_support, "w") as fh:
                fh.write(" ".join(str(int(i)) for i in sup) + "\n")
    except (LpsError, OSError) as exc:
        return _fail(str(exc))
    return EXIT_OK


def cmd_rip(args) -> int:
    try:
        A = io_text.load_matrix(args.matrix)
        delta = ensembles.rip_constant(A, args.order)
    except (LpsError, OSError) as exc:
        return _fail(str(exc))
    print(f"{delta:.12g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lps", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one instance from files")
    ps.add_argument("--family", required=True, choices=CLI_FAMILIES)
    ps.add_argument("--p", type=float, default=None)
    ps.add_argument("--matrix", required=True)
    ps.add_argument("--rhs", required=True)
    ps.add_argument("--lambda", dest="lam", type=float, default=None)
    ps.add_argument("--lambda1", type=float, default=None)
    ps.add_argument("--lambda2", type=float, default=None)
    ps.add_argument("--r", type=float, default=1.0)
    ps.add_argument("--eps", type=float, default=None)
    ps.add_argument("--eta", type=float, default=None)
    ps.add_argument("--out", default=None)
    ps.add_argument("--tol", type=float, default=None)
    ps.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    ps.set_defaults(func=cmd_solve)

    pe = sub.add_parser("experiment", help="run an experiment to CSV")
    pe.add_argument("--kind", required=True, choices=("genericity", "recovery", "perturbation"))
    pe.add_argument("--config", required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument("--workers", type=int, default=None)
    pe.set_defaults(func=cmd_experiment)

    pg = sub.add_parser("gen", help="generate an instance")
    pg.add_argument("--m", type=int, required=True)
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--seed", type=int, required=True)
    pg.add_argument("--sparsity", type=int, default=None)
    pg.add_argument("--out-matrix", required=True)
    pg.add_argument("--out-rhs", required=True)
    pg.add_argument("--out-signal", default=None)
    pg.add_argument("--out-support", default=None)
    pg.set_defaults(func=cmd_gen)

    pr = sub.add_parser("rip", help="restricted isometry constant")
    pr.add_argument("--matrix", required=True)
    pr.add_argument("--order", type=int, required=True)
    pr.set_defaults(func=cmd_rip)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser main uses in this process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
