import json

import numpy as np
import pytest

from quantfactor import (
    DuplicateCell,
    EmptyFile,
    ParseError,
    SolverConfig,
    UnbalancedPanel,
    compute_column_scales,
    fit,
    read_matrix_csv,
    read_panel_csv,
    write_fit,
    write_matrix_csv,
    write_panel_csv,
    write_sim_instance,
)
from quantfactor.cli import cli_main
from quantfactor.factors import extract_factors
from quantfactor.panel import ColumnScales, PanelData, QuantileFit
from quantfactor.simulate import DesignSpec, generate


class TestReadPanelCsv:
    def test_single_cell(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("unit,period,y,x1\nu1,2000-01,0.5,1.0\n")
        data = read_panel_csv(path)
        assert (data.n, data.t_len, data.p) == (1, 1, 1)
        assert data.y[0, 0] == 0.5
        assert data.x[0, 0, 0] == 1.0

    def test_first_appearance_ordering(self, tmp_path):
        path = tmp_path / "panel.csv"
        rows = [
            "b,t2,4,0", "b,t1,3,0", "a,t2,2,0", "a,t1,1,0",
        ]
        path.write_text("unit,period,y,x1\n" + "\n".join(rows) + "\n")
        data = read_panel_csv(path)
        # unit b and period t2 appear first, so they map to index 0
        np.testing.assert_allclose(data.y, [[4.0, 3.0], [2.0, 1.0]])

    def test_duplicate_cell(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("unit,period,y,x1\nu1,t1,1,0\nu1,t1,2,0\n")
        with pytest.raises(DuplicateCell):
            read_panel_csv(path)

    def test_unbalanced_panel(self, tmp_path):
        path = tmp_path / "panel.csv"
        rows = ["u1,t1,1,0", "u1,t2,2,0", "u1,t3,3,0",
                "u2,t1,4,0", "u2,t2,5,0"]
        path.write_text("unit,period,y,x1\n" + "\n".join(rows) + "\n")
        with pytest.raises(UnbalancedPanel):
            read_panel_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("unit,period,y,x1\nu1,t1,abc,0\n")
        with pytest.raises(ParseError):
            read_panel_csv(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("unit,period,y,x1\nu1,t1,1\n")
        with pytest.raises(ParseError):
            read_panel_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("id,time,y,x1\nu1,t1,1,0\n")
        with pytest.raises(ParseError):
            read_panel_csv(path)

    @pytest.mark.parametrize("names", ["x2", "x1,x3"])
    def test_covariates_must_be_x1_to_xp(self, tmp_path, names):
        path = tmp_path / "panel.csv"
        zeros = ",0" * len(names.split(","))
        path.write_text(f"unit,period,y,{names}\nu1,t1,1{zeros}\n")
        with pytest.raises(ParseError, match="x1..x"):
            read_panel_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("")
        with pytest.raises(EmptyFile):
            read_panel_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("unit,period,y,x1\n")
        with pytest.raises(EmptyFile):
            read_panel_csv(path)


class TestNotUtf8:
    @pytest.mark.parametrize("reader, text", [
        (read_panel_csv, b"unit,period,y,x1\nu1,t1,1,\xff\xfe\n"),
        (read_matrix_csv, b"1,\xff\xfe\n"),
    ], ids=["panel", "matrix"])
    def test_bytes_that_do_not_decode_are_a_parse_error(self, tmp_path, reader, text):
        path = tmp_path / "in.csv"
        path.write_bytes(text)
        with pytest.raises(ParseError, match="not valid UTF-8"):
            reader(path)


class TestRoundTrips:
    def test_panel_roundtrip_is_exact(self, tmp_path):
        inst = generate(DesignSpec("D2", 6, 7, 3, seed=31))
        path = tmp_path / "panel.csv"
        write_panel_csv(inst.data, path)
        back = read_panel_csv(path)
        assert np.array_equal(back.y, inst.data.y)
        assert np.array_equal(back.x, inst.data.x)

    def test_sim_instance_writes_truth_sidecar(self, tmp_path):
        inst = generate(DesignSpec("D4", 4, 5, 2, seed=32))
        panel_path, truth_path = write_sim_instance(inst, tmp_path)
        truth = json.loads(truth_path.read_text())
        assert truth["design"] == "D4"
        assert truth["seed"] == 32
        assert truth["rng"] == "numpy-PCG64"
        np.testing.assert_allclose(np.asarray(truth["pi_true"]), inst.pi_true)
        np.testing.assert_allclose(np.asarray(truth["theta_true"]), inst.theta_true)
        assert read_panel_csv(panel_path).n == 4

    @pytest.mark.parametrize("spec", [DesignSpec("D1", 3, 4, 1, seed=0),
                                      DesignSpec("D3", 5, 3, 2, seed=7)], ids=["D1", "D3"])
    def test_sim_sidecar_takes_design_and_seed_from_the_spec(self, tmp_path, spec):
        _, truth_path = write_sim_instance(generate(spec), tmp_path)
        truth = json.loads(truth_path.read_text())
        assert (truth["design"], truth["n"], truth["t_len"], truth["p"], truth["seed"]) == (
            spec.design, spec.n, spec.t_len, spec.p, spec.seed)

    def test_matrix_roundtrip(self, tmp_path):
        rng = np.random.default_rng(33)
        m = rng.standard_normal((4, 6))
        path = write_matrix_csv(m, tmp_path / "m.csv")
        np.testing.assert_array_equal(read_matrix_csv(path), m)

    def test_matrix_ragged_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ParseError):
            read_matrix_csv(path)

    @pytest.mark.parametrize("text, error, message", [
        ("1,2\n3,abc\n", ParseError, ":2: non-numeric"),
        ("\n\n\n", EmptyFile, "is empty"),
    ], ids=["non-numeric", "blank-lines-only"])
    def test_matrix_rejected(self, tmp_path, text, error, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(error, match=message):
            read_matrix_csv(path)

    @pytest.mark.parametrize("reader, text, blank_at", [
        (read_panel_csv, "unit,period,y,x1\nu1,t1,1,2\nu1,t2,3,4\n", 2),
        (read_matrix_csv, "1,2\n3,4\n", 1),
    ], ids=["panel", "matrix"])
    def test_blank_lines_are_skipped(self, tmp_path, reader, text, blank_at):
        lines = text.splitlines(keepends=True)
        plain, gapped = tmp_path / "plain.csv", tmp_path / "gapped.csv"
        plain.write_text(text)
        gapped.write_text("".join(lines[:blank_at] + ["\n"] + lines[blank_at:]) + "\n")
        a, b = reader(plain), reader(gapped)
        if reader is read_panel_csv:
            np.testing.assert_array_equal(a.x, b.x)
            a, b = a.y, b.y
        np.testing.assert_array_equal(a, b)


class TestWriteFit:
    def fitted(self):
        inst = generate(DesignSpec("D1", 8, 9, 2, seed=34))
        scales = compute_column_scales(inst.data)
        cfg = SolverConfig(tau=0.5, nu1=1e-3, nu2=1e-2, eta=10.0 / 72.0,
                           max_iter=20000)
        return fit(inst.data, cfg, scales), scales

    def test_written_files_and_summary(self, tmp_path):
        result, scales = self.fitted()
        decomposition = None
        if result.rank_estimate >= 1:
            decomposition = extract_factors(result.pi, result.rank_estimate)
        paths = write_fit(result, decomposition, tmp_path, scales=scales,
                          config_echo={"nu1": 1e-3, "nu2": 1e-2})
        summary = json.loads(paths["summary"].read_text())
        for key in ("tau", "nu1", "nu2", "rank", "sparsity", "objective",
                    "iterations", "converged", "primal_residual",
                    "dual_residual", "rng", "config"):
            assert key in summary
        pi = read_matrix_csv(paths["pi"])
        assert pi.shape == (8, 9)

    def test_summary_holds_the_fits_own_penalties(self, tmp_path):
        # no config echo: tau, nu1 and nu2 come from the fit itself
        result, scales = self.fitted()
        summary = json.loads(write_fit(result, None, tmp_path, scales)["summary"].read_text())
        assert (summary["tau"], summary["nu1"], summary["nu2"]) == (0.5, 1e-3, 1e-2)
        assert summary["config"] == {}

    def test_theta_roundtrip_is_exact(self, tmp_path):
        result, scales = self.fitted()
        paths = write_fit(result, None, tmp_path, scales=scales)
        values, weights = np.loadtxt(paths["theta"], delimiter=",", skiprows=1,
                                     usecols=(1, 2), ndmin=2, unpack=True)
        np.testing.assert_allclose(values, result.theta, atol=1e-12)
        np.testing.assert_allclose(weights, scales.sigma_hat, atol=1e-12)

    def test_rank_zero_fit_writes_empty_factor_files(self, tmp_path):
        result, scales = self.fitted()
        paths = write_fit(result, None, tmp_path, scales=scales)
        assert paths["factors"].read_text() == ""
        assert paths["loadings"].read_text() == ""



class TestFormatBytes:
    """The exact bytes of the written formats: 17 significant digits, CRLF rows."""

    @staticmethod
    def theta_fit(theta):
        return QuantileFit(config=SolverConfig(tau=0.5), theta=theta, pi=np.zeros((1, 1)),
                           objective=0.0, iterations=1, converged=True, primal_residual=0.0,
                           dual_residual=0.0, singular_values=[0.0])

    @staticmethod
    def float_cells_are_17g(path, columns):
        rows = path.read_text(encoding="utf-8").splitlines()
        header = rows[0].split(",")
        assert len(rows) > 1
        for row in rows[1:]:
            for name in columns:
                cell = row.split(",")[header.index(name)]
                assert cell == format(float(cell), ".17g")

    def test_matrix_bytes(self, tmp_path):
        path = write_matrix_csv([[0.1, 1 / 3], [2.0, -1e-300]], tmp_path / "m.csv")
        assert path.read_bytes() == (b"0.10000000000000001,0.33333333333333331\r\n"
                                     b"2,-1e-300\r\n")

    def test_panel_bytes(self, tmp_path):
        data = PanelData(np.array([[0.5, -2.0]]), np.array([[[0.1], [3.0]]]))
        path = write_panel_csv(data, tmp_path / "panel.csv")
        assert path.read_bytes() == (b"unit,period,y,x1\r\n1,1,0.5,0.10000000000000001\r\n"
                                     b"1,2,-2,3\r\n")

    def test_theta_bytes(self, tmp_path):
        result = self.theta_fit([0.1, 0.0])
        paths = write_fit(result, None, tmp_path / "scaled",
                          scales=ColumnScales(np.array([1.5, 2 / 3])))
        assert paths["theta"].read_bytes() == (b"j,value,scale\r\n"
                                               b"1,0.10000000000000001,1.5\r\n"
                                               b"2,0,0.66666666666666663\r\n")

    def test_failed_bench_row(self, tmp_path):
        assert cli_main(["bench", "--design", "D1", "--n", "10", "--p", "2", "--T", "12",
                         "--reps", "2", "--max-iter", "1", "--grid-nu1", "1e-3",
                         "--grid-nu2", "1e-2", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "bench.csv").read_bytes().split(b"\r\n")
        assert rows[1:] == [b"l1nnqr,D1,10,2,12,0,bic,nan,nan,2", b""]

    def test_selection_and_variance_cells(self, tmp_path):
        panel = write_panel_csv(generate(DesignSpec("D1", 6, 7, 2, seed=35)).data,
                                tmp_path / "panel.csv")
        assert cli_main(["tune", "--panel", str(panel), "--grid-nu1", "1e-3,1e-4",
                         "--grid-nu2", "1e-2,1e-3",
                         "--out", str(tmp_path / "tune")]) == 0
        self.float_cells_are_17g(tmp_path / "tune" / "tau_0.5" / "selection.csv",
                                 ("nu1", "nu2", "bic", "objective"))
        pi = np.random.default_rng(36).standard_normal((5, 4))
        write_matrix_csv(pi, tmp_path / "pi.csv")
        assert cli_main(["factors", "--pi", str(tmp_path / "pi.csv"), "--rank", "2",
                         "--out", str(tmp_path / "factors")]) == 0
        self.float_cells_are_17g(tmp_path / "factors" / "variance.csv",
                                 ("singular_value", "percent"))
