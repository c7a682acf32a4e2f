import io
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import lps
from lps import analysis, cli, io_text
from lps.cli import build_parser, main
from lps.errors import InvalidInputError


def write_instance(tmp_path, A, y):
    mpath = tmp_path / "A.txt"
    ypath = tmp_path / "y.txt"
    io_text.save_matrix(mpath, np.asarray(A, dtype=float))
    io_text.save_vector(ypath, np.asarray(y, dtype=float))
    return str(mpath), str(ypath)


def strip_wall_time(csv_text: str) -> str:
    out = []
    for line in csv_text.splitlines():
        if line.startswith("#") or not line:
            out.append(line)
        else:
            out.append(line.rsplit(",", 1)[0])
    return "\n".join(out)


def run_module(*argv):
    """`python -m lps.cli argv` in a fresh interpreter that imports this lps."""
    src_dir = pathlib.Path(lps.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "lps.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_module_entry_point(tmp_path):
    mp, yp = write_instance(tmp_path, [[1.0, 1.0]], [2.0])
    proc = run_module("solve", "--family", "bp", "--p", "2", "--matrix", mp, "--rhs", yp)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["status"] == "converged"


class TestMatrixIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(3, 5))
        path = tmp_path / "m.txt"
        io_text.save_matrix(path, M)
        back = io_text.load_matrix(path)
        assert np.array_equal(M, back)

    def test_vector_roundtrip(self, tmp_path):
        v = np.array([0.1, -2.5, 3e-17])
        path = tmp_path / "v.txt"
        io_text.save_vector(path, v)
        assert np.array_equal(io_text.load_vector(path), v)

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1.0 2.0\n")
        with pytest.raises(InvalidInputError):
            io_text.load_matrix(path)
        path.write_text("2 2\n1.0 2.0\n3.0 oops\n")
        with pytest.raises(InvalidInputError):
            io_text.load_matrix(path)


class TestSolveCommand:
    def test_bp_stdout(self, tmp_path, capsys):
        mp, yp = write_instance(tmp_path, [[1.0, 1.0]], [2.0])
        rc = main(["solve", "--family", "bp", "--p", "2", "--matrix", mp, "--rhs", yp])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "converged"
        np.testing.assert_allclose(doc["solution"], [1.0, 1.0], atol=1e-8)

    def test_bpdn_eps_slack_zero_solution(self, tmp_path, capsys):
        mp, yp = write_instance(tmp_path, [[1.0, 0.5]], [2.0])
        rc = main([
            "solve", "--family", "bpdn-eps", "--p", "2", "--eps", "5.0",
            "--matrix", mp, "--rhs", yp,
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["solution"] == [0.0, 0.0]
        assert doc["support"]["size"] == 0

    def test_invalid_lambda_exits_1(self, tmp_path, capsys):
        mp, yp = write_instance(tmp_path, [[1.0, 0.5]], [2.0])
        rc = main([
            "solve", "--family", "rr", "--p", "2", "--lambda", "-1",
            "--matrix", mp, "--rhs", yp,
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "lambda" in err and ">" in err

    def test_missing_p_exits_1(self, tmp_path, capsys):
        mp, yp = write_instance(tmp_path, [[1.0, 0.5]], [2.0])
        rc = main(["solve", "--family", "bp", "--matrix", mp, "--rhs", yp])
        assert rc == 1

    def test_dimension_mismatch_exits_1(self, tmp_path, capsys):
        mp, _ = write_instance(tmp_path, [[1.0, 0.5]], [2.0])
        yp = tmp_path / "y2.txt"
        io_text.save_vector(yp, [1.0, 2.0])
        rc = main(["solve", "--family", "bp", "--p", "2", "--matrix", mp, "--rhs", str(yp)])
        assert rc == 1

    def test_non_convergence_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        mp, yp = write_instance(tmp_path, rng.normal(size=(3, 9)), rng.normal(size=3))
        rc = main([
            "solve", "--family", "bp", "--p", "4.5", "--matrix", mp, "--rhs", yp,
            "--max-iter", "1",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] != "converged"
        assert rc == 2

    @pytest.mark.parametrize("flag,value", [("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"),
                                            ("--tol", "inf"), ("--max-iter", "0")])
    def test_bad_solver_config_exits_1(self, tmp_path, capsys, flag, value):
        mp, yp = write_instance(tmp_path, [[1.0, 1.0]], [2.0])
        out = tmp_path / "res.json"
        rc = main(["solve", "--family", "bp", "--p", "3", "--matrix", mp, "--rhs", yp,
                   "--out", str(out), flag, value])
        assert rc == 1
        assert "must be" in capsys.readouterr().err
        assert not out.exists()

    def test_out_file_and_manifest(self, tmp_path):
        mp, yp = write_instance(tmp_path, [[1.0, 1.0]], [2.0])
        out = tmp_path / "res.json"
        rc = main([
            "solve", "--family", "bp", "--p", "3", "--matrix", mp, "--rhs", yp,
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "converged"
        manifest = json.loads((tmp_path / "res.json.manifest.json").read_text())
        assert manifest["tool_version"]
        assert len(manifest["config_digest"]) == 64

    def test_unwritable_manifest_exits_1(self, tmp_path, capsys):
        mp, yp = write_instance(tmp_path, [[1.0, 1.0]], [2.0])
        out = tmp_path / "res.json"
        (tmp_path / "res.json.manifest.json").mkdir()
        rc = main(["solve", "--family", "bp", "--p", "3", "--matrix", mp, "--rhs", yp,
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "res.json.manifest.json" in err
        assert err.count("\n") == 1


class TestGenCommand:
    def test_roundtrip(self, tmp_path):
        args = [
            "gen", "--m", "2", "--n", "3", "--seed", "42",
            "--out-matrix", str(tmp_path / "A.txt"),
            "--out-rhs", str(tmp_path / "y.txt"),
        ]
        assert main(args) == 0
        A1 = io_text.load_matrix(tmp_path / "A.txt")
        y1 = io_text.load_vector(tmp_path / "y.txt")
        from lps.ensembles import EnsembleSpec, gen_gaussian_instance
        A2, y2 = gen_gaussian_instance(EnsembleSpec(m=2, N=3, seed=42))
        assert np.array_equal(A1, A2)
        assert np.array_equal(y1, y2)

    def test_sparse_signal(self, tmp_path):
        args = [
            "gen", "--m", "3", "--n", "8", "--seed", "5", "--sparsity", "2",
            "--out-matrix", str(tmp_path / "A.txt"),
            "--out-rhs", str(tmp_path / "y.txt"),
            "--out-signal", str(tmp_path / "x0.txt"),
            "--out-support", str(tmp_path / "sup.txt"),
        ]
        assert main(args) == 0
        A = io_text.load_matrix(tmp_path / "A.txt")
        y = io_text.load_vector(tmp_path / "y.txt")
        x0 = io_text.load_vector(tmp_path / "x0.txt")
        assert int(np.sum(x0 != 0)) == 2
        assert np.abs(A @ x0 - y).max() == 0.0
        sup = [int(t) for t in (tmp_path / "sup.txt").read_text().split()]
        assert sup == list(np.flatnonzero(x0))


class TestRipCommand:
    def test_identity(self, tmp_path, capsys):
        io_text.save_matrix(tmp_path / "A.txt", np.eye(4))
        rc = main(["rip", "--matrix", str(tmp_path / "A.txt"), "--order", "2"])
        assert rc == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_diagonal(self, tmp_path, capsys):
        io_text.save_matrix(tmp_path / "A.txt", np.diag([1.0, 2.0]))
        rc = main(["rip", "--matrix", str(tmp_path / "A.txt"), "--order", "1"])
        assert rc == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(3.0)

    def test_capacity_exit(self, tmp_path, capsys):
        io_text.save_matrix(tmp_path / "A.txt", np.zeros((4, 40)))
        rc = main(["rip", "--matrix", str(tmp_path / "A.txt"), "--order", "5"])
        assert rc == 1
        assert "cap" in capsys.readouterr().err


def write_config(tmp_path, **overrides):
    """Path of a small bp genericity config, with overrides, written to tmp_path."""
    cfg = {
        "family": "bp", "m": 3, "N": 8, "p_grid": [3.0], "trials": 5,
        "master_seed": 7,
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestExperimentCommand:
    config = staticmethod(write_config)

    def test_genericity_deterministic(self, tmp_path):
        cfgp = self.config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["experiment", "--kind", "genericity", "--config", cfgp, "--out", str(out1)]) == 0
        assert main(["experiment", "--kind", "genericity", "--config", cfgp, "--out", str(out2)]) == 0
        assert strip_wall_time(out1.read_text()) == strip_wall_time(out2.read_text())
        header = out1.read_text().splitlines()[0]
        assert header == ",".join(io_text.CSV_COLUMNS)

    def test_workers_do_not_change_output(self, tmp_path):
        cfgp = self.config(tmp_path, trials=4)
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert main([
            "experiment", "--kind", "genericity", "--config", cfgp,
            "--out", str(out1), "--workers", "1",
        ]) == 0
        assert main([
            "experiment", "--kind", "genericity", "--config", cfgp,
            "--out", str(out2), "--workers", "2",
        ]) == 0
        assert strip_wall_time(out1.read_text()) == strip_wall_time(out2.read_text())

    def test_manifest_digest_stable(self, tmp_path):
        cfgp = self.config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["experiment", "--kind", "genericity", "--config", cfgp, "--out", str(out1)])
        main(["experiment", "--kind", "genericity", "--config", cfgp, "--out", str(out2)])
        m1 = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        m2 = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert m1["config_digest"] == m2["config_digest"]
        assert m1["master_seed"] == 7

    def test_manifest_records_numeric_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfgp = self.config(tmp_path)
        out = tmp_path / "a.csv"
        assert main(["experiment", "--kind", "genericity", "--config", cfgp, "--out", str(out)]) == 0
        env = json.loads((tmp_path / "a.csv.manifest.json").read_text())["environment"]
        assert set(env) == {"python", "numpy", "scipy", "cpu_count", "OPENBLAS_NUM_THREADS",
                            "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert env["numpy"] == np.__version__ and env["python"].count(".") == 2
        assert env["cpu_count"] == os.cpu_count()
        assert env["OPENBLAS_NUM_THREADS"] == "1" and env["MKL_NUM_THREADS"] is None

    def test_recovery_summary_has_recovery_fraction(self, tmp_path):
        cfgp = self.config(
            tmp_path, family="bp-l1", m=8, N=16, p_grid=[1.0], trials=4, sparsity=2
        )
        out = tmp_path / "r.csv"
        assert main(["experiment", "--kind", "recovery", "--config", cfgp, "--out", str(out)]) == 0
        text = out.read_text()
        assert "recovery_fraction=" in text
        assert "recovery_fraction=1.0" in text

    def test_perturbation_kind(self, tmp_path):
        cfg = {
            "m": 8, "N": 16, "sparsity": 2, "trials": 4, "master_seed": 3,
            "delta_grid": [0.0, 1e-6],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "p.csv"
        assert main(["experiment", "--kind", "perturbation", "--config", str(path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,trials,failures,recovered,recovery_fraction"
        assert len(lines) == 3

    @pytest.mark.parametrize("grid", [["x"], [0.0, None]])
    def test_perturbation_bad_delta_grid_exits_1(self, tmp_path, capsys, grid):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"m": 8, "N": 16, "sparsity": 2, "trials": 4,
                                    "master_seed": 3, "delta_grid": grid}))
        out = tmp_path / "p.csv"
        rc = main(["experiment", "--kind", "perturbation", "--config", str(path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: config: field 'delta_grid' has invalid value {grid!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind,field,value", [
        ("genericity", "m", 8.7), ("genericity", "N", 8.5), ("genericity", "trials", 2.9),
        ("genericity", "master_seed", 7.5), ("genericity", "sparsity", 2.5),
        ("perturbation", "trials", 2.9), ("perturbation", "sparsity", 2.5),
        ("genericity", "p_grid", ["x"]), ("genericity", "p_grid", [3.0, True]),
        ("genericity", "lambda", "x"), ("genericity", "lambda1", True),
        ("genericity", "lambda2", [0.1]), ("genericity", "r", "1"),
        ("genericity", "support_tol", "x"), ("genericity", "epsilon_fraction", "x"),
        ("genericity", "eta_fraction", False), ("genericity", "trials", True),
        ("genericity", "sparsity", True), ("perturbation", "trials", True),
        ("perturbation", "master_seed", "3"), ("perturbation", "lambda", "x")])
    def test_fractional_field_exits_1(self, tmp_path, capsys, kind, field, value):
        cfg = {"m": 8, "N": 16, "sparsity": 2, "trials": 4, "master_seed": 3}
        cfg.update({"family": "bp", "p_grid": [3.0]} if kind == "genericity" else {"delta_grid": [0.0]})
        cfg[field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o.csv"
        rc = main(["experiment", "--kind", kind, "--config", str(path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: config: field {field!r} has invalid value {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("overrides,problem", [
        ({"signal_values": 5}, "field 'signal_values' has invalid value 5"),
        ({"family": "rr", "lambda": -1}, "field 'lambda': rr requires lambda > 0, got -1.0"),
        ({"p_grid": [0.5]}, "field 'p_grid': bp requires p in (1, inf), got p=0.5")])
    def test_family_rules_checked_with_the_config(self, tmp_path, capsys, overrides, problem):
        # the family's ranges are checked when the config is read, not when a trial runs
        out = tmp_path / "o.csv"
        cfgp = self.config(tmp_path, **overrides)
        assert main(["experiment", "--kind", "genericity", "--config", cfgp, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: config: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind,overrides,problem", [
        ("genericity", {"family": "bp-l1"}, "field 'family': unknown genericity family 'bp_l1'"),
        ("recovery", {"family": "rr", "sparsity": 2}, "field 'family': unknown recovery family 'rr'"),
        ("genericity", {"m": 6, "N": 8}, "field 'N': bp genericity requires N >= 2m - 1"),
        ("genericity", {"family": "rr", "m": 9, "N": 8}, "field 'N': experiments require N >= m"),
        ("recovery", {"family": "bp-l1", "p_grid": [1.0], "sparsity": 2, "m": 9},
         "field 'N': experiments require N >= m")])
    def test_experiment_rules_checked_with_the_config(self, tmp_path, capsys, kind, overrides, problem):
        # the kind's family and shape rules (analysis.experiment_problems) name their field
        out = tmp_path / "o.csv"
        cfgp = self.config(tmp_path, **overrides)
        assert main(["experiment", "--kind", kind, "--config", cfgp, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: config: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind,field,value", [
        ("genericity", "lambda", float("inf")), ("genericity", "lambda1", float("nan")),
        ("genericity", "r", float("inf")), ("genericity", "support_tol", float("nan")),
        ("genericity", "epsilon_fraction", float("inf")), ("genericity", "m", float("inf")),
        ("genericity", "trials", float("nan")), ("genericity", "p_grid", [3.0, float("inf")]),
        ("perturbation", "delta_grid", [float("nan"), float("inf")])])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, kind, field, value):
        # JSON NaN and Infinity are numbers to Python's json module, but no field takes them
        cfg = {"m": 8, "N": 16, "sparsity": 2, "trials": 4, "master_seed": 3}
        cfg.update({"family": "bp", "p_grid": [3.0]} if kind == "genericity" else {"delta_grid": [0.0]})
        cfg[field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o.csv"
        assert main(["experiment", "--kind", kind, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: config: field {field!r} has invalid value {value!r}\n"
        assert not out.exists()

    def test_whole_number_fields(self, tmp_path, capsys):
        # a float with no fraction is a whole number; a negative seed is named
        out = tmp_path / "o.csv"
        cfgp = self.config(tmp_path, m=3.0, trials=2.0)
        assert main(["experiment", "--kind", "genericity", "--config", cfgp, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 + 2  # header, 2 trials, summary
        out.unlink()
        cfgp = self.config(tmp_path, master_seed=-1)
        assert main(["experiment", "--kind", "genericity", "--config", cfgp, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: config: master_seed must lie in [0, 2^64), got -1\n"
        assert not out.exists()
        # null is an absent field; a perturbation config is checked like the others
        cfgp = self.config(tmp_path, support_tol=None, sparsity=None, p_grid=None, trials=1)
        assert main(["experiment", "--kind", "genericity", "--config", cfgp, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 5 + 1 + 5  # default p grid: 5 cells
        out.unlink()
        cfgp = self.config(tmp_path, N=16, sparsity=2, master_seed=-1, delta_grid=[0.0])
        assert main(["experiment", "--kind", "perturbation", "--config", cfgp, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: config: master_seed must lie in [0, 2^64), got -1\n"
        assert not out.exists()

    def test_bad_config_lists_fields(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": "bp", "m": 3}))
        rc = main(["experiment", "--kind", "genericity", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "missing field 'N'" in err
        assert "missing field 'trials'" in err
        assert "missing field 'master_seed'" in err

    def test_unwritable_manifest_exits_1(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        (tmp_path / "o.csv.manifest.json").mkdir()
        rc = main(["experiment", "--kind", "genericity", "--config", self.config(tmp_path),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "o.csv.manifest.json" in err
        assert err.count("\n") == 1

    def test_workers_env_default(self, tmp_path, monkeypatch):
        cfgp = self.config(tmp_path, trials=3)
        out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        assert main(["experiment", "--kind", "genericity", "--config", cfgp, "--out", str(out1)]) == 0
        monkeypatch.setenv("LPS_WORKERS", "2")
        assert main(["experiment", "--kind", "genericity", "--config", cfgp, "--out", str(out2)]) == 0
        assert strip_wall_time(out1.read_text()) == strip_wall_time(out2.read_text())

    def test_workers_env_not_an_integer(self, tmp_path, monkeypatch, capsys):
        cfgp = self.config(tmp_path, trials=3)
        monkeypatch.setenv("LPS_WORKERS", "two")
        rc = main(["experiment", "--kind", "genericity", "--config", cfgp,
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: LPS_WORKERS must be an integer >= 1, got 'two'\n"
        assert not (tmp_path / "o.csv").exists()

    def test_unknown_field_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "family": "bp", "m": 3, "N": 8, "trials": 1, "master_seed": 1,
            "p_grid": [3.0], "bogus": 1,
        }))
        rc = main(["experiment", "--kind", "genericity", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err


class TestParser:
    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # an error and --help between two runs leave the second run's CSV as a
        # fresh process's
        cfgp = write_config(tmp_path, trials=3)
        argv = ["experiment", "--kind", "genericity", "--config", cfgp]
        assert main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
        assert main(["experiment", "--kind", "genericity"]) == 1
        assert main(["--help"]) == 0
        assert main(argv + ["--out", str(tmp_path / "b.csv")]) == 0
        proc = run_module(*argv, "--out", str(tmp_path / "c.csv"))
        assert proc.returncode == 0, proc.stderr
        assert (strip_wall_time((tmp_path / "b.csv").read_text())
                == strip_wall_time((tmp_path / "c.csv").read_text()))

    def test_main_builds_one_parser(self, tmp_path, monkeypatch, capsys):
        built = []

        def spy():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", spy)
        cli._parser.cache_clear()
        try:
            cfgp = write_config(tmp_path, trials=1)
            for argv in (["--help"], ["rip"], ["experiment", "--kind", "genericity", "--config",
                                               cfgp, "--out", str(tmp_path / "o.csv")]):
                main(argv)
                main(argv)
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_build_parser_is_fresh(self):
        assert build_parser() is not build_parser()


def old_trial_csv_row(rec) -> str:
    """The per-row dict form trial_csv_row replaced, kept as its reference."""
    row = {c: getattr(rec, c) for c in io_text.CSV_COLUMNS}
    row["family"] = row["family"].replace("_", "-")
    return ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row.values())


def record(**overrides):
    fields = dict(trial=3, seed=2718281828, m=8, N=20, p=1.5, family="bp", support_size=20,
                  min_rel_magnitude=0.012345678901234567, kkt_residual=3.3e-13, iterations=7,
                  status="converged", wall_time_ms=0.1)
    fields.update(overrides)
    return analysis.TrialRecord(**fields)


class TestWriters:
    @pytest.mark.parametrize("rec", [
        record(),
        record(support_size=0, min_rel_magnitude=0.0, kkt_residual=float("inf"), iterations=0,
               status="error", wall_time_ms=0.0, error="ValueError: x"),
        record(kkt_residual=np.float64(1e-300), p=np.float64(3.0)),
        record(kkt_residual=0, wall_time_ms=2),
        record(family="bpdn_eta", p=1.2, support_size=19, status="max_iter")])
    def test_trial_csv_row_matches_reference(self, rec):
        assert io_text.trial_csv_row(rec) == old_trial_csv_row(rec)

    def test_manifest_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        m = io_text.RunManifest(command="experiment --kind genericity", config_digest="ab" * 32,
                                master_seed=7, tool_version="0.1", started="s", finished="f")
        m.write(tmp_path / "m.json")
        ref = io.StringIO()
        json.dump(asdict(m), ref, indent=2, sort_keys=True)
        assert (tmp_path / "m.json").read_bytes() == (ref.getvalue() + "\n").encode()
