import json
import os

import numpy as np
import pytest

from lps import io_text
from lps.cli import main
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


def test_module_entry_point(tmp_path):
    import os
    import pathlib
    import subprocess
    import sys

    import lps

    mp, yp = write_instance(tmp_path, [[1.0, 1.0]], [2.0])
    src_dir = pathlib.Path(lps.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "lps.cli", "solve", "--family", "bp", "--p", "2",
         "--matrix", mp, "--rhs", yp],
        capture_output=True, text=True, env=env,
    )
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


class TestExperimentCommand:
    def config(self, tmp_path, **overrides):
        cfg = {
            "family": "bp", "m": 3, "N": 8, "p_grid": [3.0], "trials": 5,
            "master_seed": 7,
        }
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

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

    def test_bad_config_lists_fields(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": "bp", "m": 3}))
        rc = main(["experiment", "--kind", "genericity", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "missing field 'N'" in err
        assert "missing field 'trials'" in err
        assert "missing field 'master_seed'" in err

    def test_workers_env_default(self, tmp_path, monkeypatch):
        cfgp = self.config(tmp_path, trials=3)
        out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        assert main(["experiment", "--kind", "genericity", "--config", cfgp, "--out", str(out1)]) == 0
        monkeypatch.setenv("LPS_WORKERS", "2")
        assert main(["experiment", "--kind", "genericity", "--config", cfgp, "--out", str(out2)]) == 0
        assert strip_wall_time(out1.read_text()) == strip_wall_time(out2.read_text())

    def test_unknown_field_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "family": "bp", "m": 3, "N": 8, "trials": 1, "master_seed": 1,
            "p_grid": [3.0], "bogus": 1,
        }))
        rc = main(["experiment", "--kind", "genericity", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err
