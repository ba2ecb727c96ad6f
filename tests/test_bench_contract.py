"""The benchmark's patch points still reach the package.

bench/tracer.py wraps package functions where callers look them up, and
bench/workloads.py logs the fits that selection and metrics make.  A rename or
a changed import in the package would leave a wrapper that nothing calls, so
the benchmark would report nothing for that layer.  These tests run a tiny
simulate, fit and tune through the CLI and a one-rep Monte Carlo, all traced,
and check that every wrapped span and every fit log sees its calls.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
import workloads  # noqa: E402
from quantfactor import SolverConfig, TuningGrid, cli, metrics, selection  # noqa: E402
from quantfactor.simulate import DesignSpec  # noqa: E402


class RecordingTracer(tracer.Tracer):
    """A Tracer that also keeps (owner, attribute, original, span name) per wrap."""

    def __init__(self):
        super().__init__()
        self.wrapped = []

    def wrap(self, owner, attr, name, before=None, after=None):
        self.wrapped.append((owner, attr, getattr(owner, attr), name))
        super().wrap(owner, attr, name, before, after)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """(tracer, tune's fit log, the Monte Carlo's fit log), run with every wrap installed."""
    tmp = tmp_path_factory.mktemp("contract")
    panel = tmp / "sim" / "panel.csv"
    t = RecordingTracer()
    tune_log, mc_log = workloads.FitLog(), workloads.FitLog()
    tracer.install(t)
    try:
        # through cli.cli_main, where the tracer wraps it, as the workloads call it
        run = lambda *argv: cli.cli_main([str(a) for a in argv])
        assert run("simulate", "--design", "D1", "--n", 10, "--p", 2, "--T", 10,
                   "--seed", 3, "--out", tmp / "sim") == 0
        assert run("fit", "--panel", panel, "--nu1", 1e-3, "--nu2", 1e-2,
                   "--out", tmp / "fit") == 0
        with tune_log.watching(selection):
            assert run("tune", "--panel", panel, "--grid-nu1", "1e-2,1e-3",
                       "--grid-nu2", "1e-1,1e-2", "--out", tmp / "tune") == 0
        with mc_log.watching(metrics):
            metrics.run_monte_carlo(
                DesignSpec("D1", 10, 10, 2, seed=3), ("l1nnqr", "l1qr"),
                TuningGrid(np.array([1e-2, 1e-3]), np.array([1e-1, 1e-2])), 1,
                base_config=SolverConfig(max_iter=2000))
    finally:
        t.uninstall()
    return t, tune_log, mc_log


def fits_under(t, parent_name):
    spans = t.spans
    return [row for row in spans if row[0] == "admm.fit" and row[3] >= 0
            and spans[row[3]][0] == parent_name]


def test_every_wrapped_span_is_recorded(traced):
    t = traced[0]
    wrapped = {name for _, _, _, name in t.wrapped}
    recorded = {row[0] for row in t.spans}
    assert len(wrapped) > 10
    assert wrapped - recorded == set()


def test_fit_logs_see_the_grid_and_rep_fits(traced):
    t, tune_log, mc_log = traced
    # tune's 2 x 2 grid; the Monte Carlo's 4 l1nnqr points and 2 l1qr points
    assert len(tune_log.calls) == len(fits_under(t, "selection.grid")) == 4
    assert len(mc_log.calls) == len(fits_under(t, "metrics.rep")) == 6
    assert sum(config.fix_pi_zero for _, config, _ in mc_log.calls) == 2


def test_uninstall_restores_the_originals(traced):
    for owner, attr, original, _ in traced[0].wrapped:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
