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
from quantfactor.panel_io import read_theta_csv
from quantfactor.factors import extract_factors
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
        panel_path, truth_path = write_sim_instance(inst, tmp_path, seed=32,
                                                    design="D4")
        truth = json.loads(truth_path.read_text())
        assert truth["design"] == "D4"
        assert truth["seed"] == 32
        assert truth["rng"] == "numpy-PCG64"
        np.testing.assert_allclose(np.asarray(truth["pi_true"]), inst.pi_true)
        np.testing.assert_allclose(np.asarray(truth["theta_true"]), inst.theta_true)
        assert read_panel_csv(panel_path).n == 4

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

    def test_theta_roundtrip_is_exact(self, tmp_path):
        result, scales = self.fitted()
        paths = write_fit(result, None, tmp_path, scales=scales)
        values, weights = read_theta_csv(paths["theta"])
        np.testing.assert_allclose(values, result.theta, atol=1e-12)
        np.testing.assert_allclose(weights, scales.sigma_hat, atol=1e-12)

    def test_rank_zero_fit_writes_empty_factor_files(self, tmp_path):
        result, scales = self.fitted()
        paths = write_fit(result, None, tmp_path, scales=scales)
        assert paths["factors"].read_text() == ""
        assert paths["loadings"].read_text() == ""

