import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quantfactor
from quantfactor import AllFitsFailed, SolverConfig, read_matrix_csv
from quantfactor.cli import build_parser, cli_main
from quantfactor.panel_io import read_panel_csv


def run(*args):
    return cli_main([str(a) for a in args])


SOLVER_FLAGS = {"eta", "max_iter", "tol_abs", "tol_rel", "loss", "fix_pi_zero"}


def write_divergent_panel(tmp_path):
    """A 2x2 panel with y = 1e308 and x = 1, on which ADMM overflows."""
    path = tmp_path / "panel.csv"
    path.write_text("unit,period,y,x1\n"
                    + "".join(f"u{i},t{t},1e308,1\n" for i in (1, 2) for t in (1, 2)))
    return path


def simulate_small(tmp_path, seed=7, n=12, t=12, p=2):
    out = tmp_path / "sim"
    code = run("simulate", "--design", "D1", "--n", n, "--p", p, "--T", t,
               "--seed", seed, "--out", out)
    assert code == 0
    return out / "panel.csv"


class TestSimulateAndFit:
    def test_end_to_end_smoke(self, tmp_path):
        panel = simulate_small(tmp_path)
        out = tmp_path / "fit"
        code = run("fit", "--panel", panel, "--tau", "0.5", "--nu1", "1e-5",
                   "--nu2", "1e-4", "--eta", 10.0 / 144, "--max-iter", 20000,
                   "--out", out)
        assert code == 0
        summary = json.loads((out / "tau_0.5" / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["nu1"] == 1e-5
        assert (out / "tau_0.5" / "pi.csv").exists()

    def test_multiple_taus(self, tmp_path):
        panel = simulate_small(tmp_path)
        out = tmp_path / "fit"
        code = run("fit", "--panel", panel, "--tau", "0.25,0.75", "--nu1", "1e-4",
                   "--nu2", "1e-2", "--eta", 10.0 / 144, "--out", out)
        assert code == 0
        assert (out / "tau_0.25" / "summary.json").exists()
        assert (out / "tau_0.75" / "summary.json").exists()

    def test_pi_csv_dimensions(self, tmp_path):
        panel = simulate_small(tmp_path, n=6, t=9)
        out = tmp_path / "fit"
        run("fit", "--panel", panel, "--tau", "0.5", "--nu1", "1e-4",
            "--nu2", "1e-2", "--eta", 10.0 / 54, "--out", out)
        pi = read_matrix_csv(out / "tau_0.5" / "pi.csv")
        assert pi.shape == (6, 9)

    def test_config_echo_values(self, tmp_path):
        panel = simulate_small(tmp_path)
        out = tmp_path / "fit"
        assert run("fit", "--panel", panel, "--tau", "0.5", "--nu1", "1e-4",
                   "--nu2", "1e-2", "--eta", 0.0625, "--out", out) == 0
        summary = json.loads((out / "tau_0.5" / "summary.json").read_text())
        expected = {
            "command": "fit", "panel": str(panel), "taus": [0.5], "tau": 0.5,
            "nu1": 0.0001, "nu2": 0.01, "eta": 0.0625, "max_iter": 5000,
            "tol_abs": 1e-06, "tol_rel": 1e-05, "loss": "quantile",
            "fix_pi_zero": False,
        }
        # dumped again so that an int written as a float would show
        assert json.dumps(summary["config"], sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )


class TestTune:
    def test_best_pair_comes_from_grid(self, tmp_path):
        panel = simulate_small(tmp_path)
        out = tmp_path / "tune"
        code = run("tune", "--panel", panel, "--tau", "0.5",
                   "--grid-nu1", "1e-3,1e-4", "--grid-nu2", "1e-2,1e-3",
                   "--eta", 10.0 / 144, "--max-iter", 20000, "--out", out)
        assert code == 0
        summary = json.loads((out / "tau_0.5" / "summary.json").read_text())
        assert summary["nu1"] in (1e-3, 1e-4)
        assert summary["nu2"] in (1e-2, 1e-3)
        table = (out / "tau_0.5" / "selection.csv").read_text().strip().splitlines()
        assert len(table) == 1 + 4  # header plus full grid

    def test_fix_pi_zero_walks_only_the_nu1_grid(self, tmp_path):
        panel = simulate_small(tmp_path)
        out = tmp_path / "tune"
        assert run("tune", "--panel", panel, "--grid-nu1", "1e-3,1e-4",
                   "--grid-nu2", "1e-2,1e-3", "--fix-pi-zero", "--eta", 10.0 / 144,
                   "--max-iter", 20000, "--out", out) == 0
        table = (out / "tau_0.5" / "selection.csv").read_text().strip().splitlines()
        assert [row.split(",")[:2] for row in table[1:]] == [["0.001", "0"], ["0.0001", "0"]]
        summary = json.loads((out / "tau_0.5" / "summary.json").read_text())
        assert summary["nu2"] == 0.0

    def test_config_echo_lists_only_tune_flags(self, tmp_path):
        panel = simulate_small(tmp_path, n=10, t=6, p=4)
        out = tmp_path / "tune"
        assert run("tune", "--panel", panel, "--grid-nu1", "1e-3",
                   "--grid-nu2", "1e-2", "--eta", 10.0 / 60, "--out", out) == 0
        summary = json.loads((out / "tau_0.5" / "summary.json").read_text())
        assert set(summary["config"]) == SOLVER_FLAGS | {
            "command", "panel", "taus", "grid_nu1", "grid_nu2", "c1",
            "tau", "nu1", "nu2",
        }
        assert (summary["nu1"], summary["nu2"]) == (1e-3, 1e-2)


class TestFactorsCommand:
    def test_decomposes_stored_matrix(self, tmp_path):
        rng = np.random.default_rng(41)
        pi = np.outer(rng.standard_normal(5), rng.standard_normal(7))
        from quantfactor import write_matrix_csv
        path = write_matrix_csv(pi, tmp_path / "pi.csv")
        out = tmp_path / "fac"
        code = run("factors", "--pi", path, "--rank", 1, "--out", out)
        assert code == 0
        factors = read_matrix_csv(out / "factors.csv")
        loadings = read_matrix_csv(out / "loadings.csv")
        assert factors.shape == (7, 1)
        assert loadings.shape == (5, 1)
        np.testing.assert_allclose(loadings @ factors.T, pi, atol=1e-8)
        variance = (out / "variance.csv").read_text().splitlines()
        assert variance[0] == "component,singular_value,percent"

    @pytest.mark.parametrize("rank", ["0", "-1"])
    def test_nonpositive_rank_is_a_usage_error(self, tmp_path, rank):
        from quantfactor import write_matrix_csv
        path = write_matrix_csv(np.eye(3), tmp_path / "pi.csv")
        out = tmp_path / "fac"
        assert run("factors", "--pi", path, "--rank", rank, "--out", out) == 2
        assert not out.exists()

    def test_zero_spectrum_fails_before_any_write(self, tmp_path):
        # a fit penalised down to rank 0 writes an all-zero pi.csv; its
        # variance shares are undefined, and factors.csv and loadings.csv
        # must not be left behind either
        panel = simulate_small(tmp_path, seed=1, n=6, t=5, p=2)
        assert run("fit", "--panel", panel, "--nu2", 10, "--out", tmp_path / "fit") == 0
        pi_path = tmp_path / "fit" / "tau_0.5" / "pi.csv"
        assert not read_matrix_csv(pi_path).any()
        out = tmp_path / "fac"
        assert run("factors", "--pi", pi_path, "--rank", 1, "--out", out) == 4
        assert not out.exists()


class TestBench:
    def bench_args(self, out, seed=3):
        return (
            "bench", "--design", "D1", "--n", 15, "--p", 2, "--T", 15,
            "--reps", 2, "--methods", "l1nnqr,l1qr", "--seed", seed,
            "--grid-nu1", "1e-3,1e-4", "--grid-nu2", "1e-2",
            "--eta", 10.0 / 225, "--max-iter", 20000, "--oracle", "--out", out,
        )

    def test_writes_method_rows(self, tmp_path):
        out = tmp_path / "bench"
        assert run(*self.bench_args(out)) == 0
        lines = (out / "bench.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 methods
        assert lines[1].startswith("l1nnqr,D1,15,2,15,2,oracle")
        assert lines[2].startswith("l1qr,D1,15,2,15,2,oracle")

    def test_config_echo_lists_only_bench_flags(self, tmp_path):
        out = tmp_path / "bench"
        assert run(*self.bench_args(out)) == 0
        expected = {
            "command": "bench", "design": "D1", "n": 15, "p": 2, "t_len": 15,
            "seed": 3, "reps": 2, "methods": ["l1nnqr", "l1qr"],
            "grid_nu1": [0.001, 0.0001], "grid_nu2": [0.01], "c1": None,
            "oracle": True, "eta": 10.0 / 225, "max_iter": 20000, "tol_abs": 1e-06,
            "tol_rel": 1e-05,
        }
        assert (out / "bench_config.json").read_text() == json.dumps(
            expected, sort_keys=True, indent=2
        )

    def test_tau_flag_rejected(self, tmp_path):
        args = list(self.bench_args(tmp_path / "bench"))
        assert run(*args[:-2], "--tau", "0.1", *args[-2:]) == 2

    @pytest.mark.parametrize("flags", [("--loss", "squared"), ("--fix-pi-zero",)])
    def test_model_flags_rejected(self, tmp_path, flags):
        # --methods sets the loss and fix_pi_zero of every fit
        out = tmp_path / "bench"
        args = list(self.bench_args(out))
        assert run(*args[:-2], *flags, *args[-2:]) == 2
        assert not out.exists()

    def test_per_rep_rows_carry_their_rep(self, tmp_path, monkeypatch):
        import quantfactor.metrics as metrics

        real = metrics.evaluate_rep

        def l1qr_fails_rep_1(inst, method, *args, rep=0, **kwargs):
            if method == "l1qr" and rep == 1:
                raise AllFitsFailed("none of the grid fits converged")
            return real(inst, method, *args, rep=rep, **kwargs)

        monkeypatch.setattr(metrics, "evaluate_rep", l1qr_fails_rep_1)
        out = tmp_path / "bench"
        args = list(self.bench_args(out))
        args[args.index("--reps") + 1] = 3
        assert run(*args) == 0
        rows = [line.split(",")[:2]
                for line in (out / "per_rep.csv").read_text().splitlines()[1:]]
        assert rows == [["l1nnqr", "0"], ["l1nnqr", "1"], ["l1nnqr", "2"],
                        ["l1qr", "0"], ["l1qr", "2"]]
        bench = (out / "bench.csv").read_text().splitlines()
        assert bench[2].startswith("l1qr,D1,15,2,15,2,oracle,") and bench[2].endswith(",1")

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        assert run(*self.bench_args(out1)) == 0
        assert run(*self.bench_args(out2)) == 0
        for name in ("bench.csv", "per_rep.csv", "bench_config.json"):
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b


class TestParserDefaults:
    def test_solver_defaults_come_from_solver_config(self):
        parser = build_parser()
        required = {"fit": ["--panel", "p.csv"], "tune": ["--panel", "p.csv"],
                    "bench": []}
        expected = SolverConfig()
        for command, extra in required.items():
            args = vars(parser.parse_args([command, *extra]))
            for name in SOLVER_FLAGS | {"nu1", "nu2"}:
                if name in args:
                    assert args[name] == getattr(expected, name), (command, name)
            if "taus" in args:
                assert args["taus"] == (expected.tau,)


class TestErrorPaths:
    def test_missing_panel_exits_3(self, tmp_path, capsys):
        code = run("fit", "--panel", tmp_path / "nope.csv", "--out", tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_duplicate_cell_exits_3(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_text("unit,period,y,x1\nu1,t1,1,0\nu1,t1,2,0\n")
        code = run("fit", "--panel", path, "--out", tmp_path)
        assert code == 3
        assert "DuplicateCell" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_panel_exits_3(self, tmp_path, capsys, bad):
        path = tmp_path / "panel.csv"
        path.write_text(f"unit,period,y,x1\nu1,t1,1,0\nu1,t2,2,{bad}\n")
        assert run("fit", "--panel", path, "--out", tmp_path / "fit") == 3
        assert run("tune", "--panel", path, "--out", tmp_path / "tune") == 3
        assert capsys.readouterr().err.count("error:ParseError:") == 2

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_matrix_exits_3(self, tmp_path, capsys, bad):
        path = tmp_path / "pi.csv"
        path.write_text(f"{bad},0\n0,1\n")
        out = tmp_path / "fac"
        assert run("factors", "--pi", path, "--rank", 1, "--out", out) == 3
        assert "error:ParseError:" in capsys.readouterr().err
        assert not out.exists()

    def test_divergent_fit_exits_4(self, tmp_path, capsys):
        path = write_divergent_panel(tmp_path)
        code = run("fit", "--panel", path, "--nu1", 0.1, "--nu2", 0.1,
                   "--max-iter", 50, "--out", tmp_path / "fit")
        assert code == 4
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error:NonFiniteIterate: ADMM iterate became non-finite; try a different eta"
        )

    @pytest.mark.parametrize("command, flag, value", [("fit", "--tau", ""),
                                                      ("fit", "--tau", ","),
                                                      ("bench", "--methods", "")])
    def test_empty_comma_list_exits_2(self, tmp_path, capsys, command, flag, value):
        panel = simulate_small(tmp_path) if command == "fit" else None
        out = tmp_path / "out"
        extra = ["--panel", panel] if panel else ["--n", 10, "--p", 2, "--T", 12]
        assert run(command, *extra, flag, value, "--out", out) == 2
        assert "empty comma list" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_tau_exits_2_and_writes_nothing(self, tmp_path, capsys):
        panel = simulate_small(tmp_path)
        capsys.readouterr()
        out = tmp_path / "fit"
        assert run("fit", "--panel", panel, "--tau", "1.5", "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:ValueError:")
        assert not out.exists()

    @pytest.mark.parametrize("command,taus", [("fit", "0.25,0.75"), ("tune", "0.5,0.9")])
    def test_squared_loss_off_the_median_exits_2(self, tmp_path, capsys, command, taus):
        # squared loss fits the mean; no tau's files are written under a quantile's name
        panel = simulate_small(tmp_path)
        out = tmp_path / command
        assert run(command, "--panel", panel, "--loss", "squared", "--tau", taus,
                   "--out", out) == 2
        assert "error:ValueError: squared loss" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("fit", ("--tol-rel", "nan")), ("fit", ("--tol-abs", "nan")),
        ("fit", ("--nu1", "nan")), ("fit", ("--eta", "nan")),
        ("fit", ("--nu2", "nan")), ("fit", ("--nu2", "inf")),
        ("tune", ("--grid-nu2", "1e-2,nan")), ("tune", ("--c1", "nan")),
        ("tune", ("--c1", "inf")), ("tune", ("--c1=-1e3",)),
    ], ids=lambda v: v if isinstance(v, str) else "=".join(v))
    def test_bad_solver_setting_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                           command, flags):
        panel = simulate_small(tmp_path)
        capsys.readouterr()
        out = tmp_path / command
        grid = ("--grid-nu1", "1e-3", "--grid-nu2", "1e-2") if command == "tune" else ()
        assert run(command, "--panel", panel, *grid, *flags, "--max-iter", 300,
                   "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:ValueError:")
        assert "finite" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("flags", [("--grid-nu1", "1e-3,1e-2"), ("--c1", "nan")],
                             ids="=".join)
    def test_bad_tune_setting_exits_2_before_the_panel_is_read(self, tmp_path, capsys,
                                                                flags):
        # the panel is missing, so reading it first would exit 3
        out = tmp_path / "tune"
        assert run("tune", "--panel", tmp_path / "missing.csv", *flags, "--out", out) == 2
        assert capsys.readouterr().err.startswith("error:ValueError:")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [("--eta", "nan"), ("--tol-abs", "nan"),
                                       ("--c1", "nan")], ids="=".join)
    def test_bad_bench_setting_exits_2_and_writes_nothing(self, tmp_path, capsys, flags):
        out = tmp_path / "bench"
        assert run("bench", "--n", 8, "--p", 2, "--T", 9, "--reps", 2,
                   "--grid-nu1", "1e-3", "--grid-nu2", "1e-2", *flags,
                   "--out", out) == 2
        assert capsys.readouterr().err.startswith("error:ValueError:")
        assert not out.exists()

    @staticmethod
    def one_error_line(capsys, category):
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error:{category}:"), err
        return err[0]

    @pytest.mark.parametrize("command, flag", [("fit", "--panel"), ("factors", "--pi")])
    def test_directory_as_input_exits_3(self, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        rank = ("--rank", 1) if command == "factors" else ()
        assert run(command, flag, tmp_path, *rank, "--out", out) == 3
        self.one_error_line(capsys, "IsADirectoryError")
        assert not out.exists()

    def test_file_as_out_exits_3(self, tmp_path, capsys):
        panel = simulate_small(tmp_path)
        capsys.readouterr()
        out = tmp_path / "out.txt"
        out.write_text("kept\n")
        assert run("fit", "--panel", panel, "--max-iter", 50, "--out", out) == 3
        self.one_error_line(capsys, "NotADirectoryError")
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["fit", "tune", "bench"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_file_as_out_exits_3_before_any_read_or_fit(self, tmp_path, capsys,
                                                         monkeypatch, command, below):
        import quantfactor.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("reached after --out was found not to be a directory")

        monkeypatch.setattr(cli, "read_panel_csv", never)
        monkeypatch.setattr(cli, "run_monte_carlo", never)
        out_file = tmp_path / "out.txt"
        out_file.write_text("kept\n")
        out = out_file / "sub" if below else out_file
        if command == "bench":
            args = ("bench", "--n", 8, "--p", 2, "--T", 9, "--reps", 1)
        else:
            args = (command, "--panel", tmp_path / "panel.csv")
        assert run(*args, "--out", out) == 3
        assert "out.txt" in self.one_error_line(capsys, "NotADirectoryError")
        assert sorted(tmp_path.iterdir()) == [out_file]
        assert out_file.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["fit", "tune", "bench"])
    def test_bad_setting_exits_2_before_out_is_checked(self, tmp_path, capsys, command):
        out = tmp_path / "out.txt"
        out.write_text("kept\n")
        if command == "bench":
            args = ("bench", "--n", 8, "--p", 2, "--T", 9, "--reps", 0)
        else:
            args = (command, "--panel", tmp_path / "panel.csv", "--tau", "1.5")
        assert run(*args, "--out", out) == 2
        self.one_error_line(capsys, "ValueError")

    def test_repeated_method_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run("bench", "--n", 8, "--p", 2, "--T", 9, "--reps", 1,
                   "--methods", "l1qr,l1qr", "--grid-nu1", "1e-3", "--grid-nu2", "1e-2",
                   "--out", out) == 2
        assert "once" in self.one_error_line(capsys, "ValueError")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "factors"])
    def test_text_that_is_not_utf8_exits_3(self, tmp_path, capsys, command):
        path = tmp_path / "in.csv"
        if command == "fit":
            path.write_bytes(b"unit,period,y,x1\nu1,t1,1,\xff\xfe\n")
            args = ("fit", "--panel", path)
        else:
            path.write_bytes(b"1,\xff\xfe\n")
            args = ("factors", "--pi", path, "--rank", 1)
        out = tmp_path / "out"
        assert run(*args, "--out", out) == 3
        assert "not valid UTF-8" in self.one_error_line(capsys, "ParseError")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "tune"])
    def test_taus_sharing_a_directory_exit_2_before_the_panel_is_read(self, tmp_path,
                                                                      capsys, command):
        # the panel is missing, so reading it first would exit 3
        out = tmp_path / command
        assert run(command, "--panel", tmp_path / "missing.csv", "--tau", "0.1,0.1000001",
                   "--out", out) == 2
        assert "tau_0.1" in self.one_error_line(capsys, "ValueError")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value, message", [
        ("tune", "--grid-nu1", "a,b", "not a comma list of numbers"),
        ("factors", "--rank", "abc", "not an integer"),
    ], ids=["grid-nu1", "rank"])
    def test_unparsable_value_exits_2(self, tmp_path, capsys, command, flag, value,
                                      message):
        source = "--pi" if command == "factors" else "--panel"
        out = tmp_path / "out"
        assert run(command, source, tmp_path / "missing.csv", flag, value, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exits_2(self, capsys):
        assert run() == 2
        assert run("fit") == 2  # --panel is required
        assert run("frobnicate") == 2

    def test_fit_determinism(self, tmp_path):
        panel = simulate_small(tmp_path)
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        for out in (out1, out2):
            assert run("fit", "--panel", panel, "--tau", "0.5", "--nu1", "1e-4",
                       "--nu2", "1e-2", "--eta", 10.0 / 144, "--out", out) == 0
        for name in ("theta.csv", "pi.csv", "summary.json"):
            a = (out1 / "tau_0.5" / name).read_bytes()
            b = (out2 / "tau_0.5" / name).read_bytes()
            assert a == b


class TestModuleEntryPoint:
    @staticmethod
    def python_m(*args):
        src = str(Path(quantfactor.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
        )

    def test_python_m_runs_without_runtime_warning(self):
        proc = self.python_m("-W", "error::RuntimeWarning", "-m", "quantfactor.cli",
                             "--help")
        assert proc.returncode == 0, proc.stderr

    def test_divergent_fit_prints_one_error_line(self, tmp_path):
        # pytest captures numpy's RuntimeWarnings before they reach stderr, so
        # only a separate process shows what a user sees there
        path = write_divergent_panel(tmp_path)
        proc = self.python_m("-m", "quantfactor.cli", "fit", "--panel", str(path),
                             "--nu1", "0.1", "--nu2", "0.1", "--max-iter", "50",
                             "--out", str(tmp_path / "fit"))
        assert proc.returncode == 4
        assert proc.stderr == (
            "error:NonFiniteIterate: ADMM iterate became non-finite; try a different eta\n"
        )
