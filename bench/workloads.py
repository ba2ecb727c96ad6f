"""The three workloads: fixed panels, the timed body, and the checks on its outputs.

Every panel is a fixed Design 1 draw.  The benchmark's --seed permutes the
panel's units (rows), which changes every bit the solver sees but not the
optimization problem: pinball loss, the l1 penalty and the nuclear norm are
all invariant to row order.  So each seed is a different input with the same
optimum, and the quality metrics agree across seeds up to round-off, while
a rerun with the same seed repeats every figure but the times exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from quantfactor import admm, cli, metrics, selection, simulate
from quantfactor.admm import AdmmState
from quantfactor.panel import PanelData, SolverConfig
from quantfactor.selection import TuningGrid
from quantfactor.simulate import DesignSpec

import checks
from checks import ScoredFit, require
from tracer import patched

# Criterion 5's solver settings on Design 1 at 100 x 5 x 100.
BENCH_CONFIG = SolverConfig(tau=0.5, eta=5e-4, max_iter=12000)

# A certifying refit runs in steps of this many sweeps, up to the cap.
CERTIFY_STEP = 250
CERTIFY_MAX_SWEEPS = 20000


@dataclass
class Verdict:
    """What the checks of one body found, for the metrics and the log."""

    attempted: int = 0
    failed: int = 0
    sweeps: int = 0
    quantile_errs: list = field(default_factory=list)
    theta_errs: list = field(default_factory=list)
    gaps: list = field(default_factory=list)  # (label, checks.Gap, refit sweeps)
    notes: list = field(default_factory=list)

    def count(self, fits):
        self.attempted += len(fits)
        self.failed += sum(not f.converged for f in fits)
        self.sweeps += sum(f.iterations for f in fits)


class FitLog:
    """Records each (data, config, result) of the fits one module makes."""

    def __init__(self):
        self.calls = []

    def watching(self, module):
        original = module.fit

        def logged(data, config, *args, **kwargs):
            result = original(data, config, *args, **kwargs)
            self.calls.append((data, config, result))
            return result

        return patched(module, "fit", logged)


def scored(config: SolverConfig, result) -> ScoredFit:
    return ScoredFit(config.nu1, config.nu2, config.tau, result.theta, result.pi,
                     result.objective, result.rank_estimate, result.sparsity_estimate,
                     result.converged)


def certify(verdict: Verdict, data: PanelData, config: SolverConfig, f: ScoredFit,
            label: str):
    """Decide whether a grid fit lies within checks.GAP_BOUND of its optimum.

    The grid point is refitted cold through the public fit with our own
    AdmmState, CERTIFY_STEP sweeps at a time, under a stopping rule that no
    step meets.  After each step the refit's dual iterate certifies a gap for
    the grid's fit, and the refit's own point, scored by checks.objective,
    bounds the grid fit's excess over its optimum from below.  The fit passes
    once its certified gap is at most the bound.  It fails, as an operation
    that stopped short of its optimum, once that lower bound exceeds the bound.
    Both are proofs, so the verdict does not depend on where the package's
    stopping rule would end the refit.  If neither holds within
    CERTIFY_MAX_SWEEPS, the certified gap decides.
    """
    y, x = np.asarray(data.y), np.asarray(data.x)
    step = replace(config, max_iter=CERTIFY_STEP, tol_abs=1e-300, tol_rel=1e-300)
    state = AdmmState.zeros(data.n, data.t_len, data.p, config.eta)
    for sweeps in range(CERTIFY_STEP, CERTIFY_MAX_SWEEPS + 1, CERTIFY_STEP):
        refit = admm.fit(data, step, init=state)
        gap = checks.dual_gap(y, x, f.theta, f.pi, f.tau, f.nu1, f.nu2, state.u_v,
                              state.eta, config.fix_pi_zero)
        excess = gap.primal - checks.objective(y, x, refit.theta, refit.pi, f.tau,
                                               f.nu1, f.nu2)
        passed = checks.within_gap_bound(gap, label)
        if passed or excess > checks.GAP_BOUND:
            break
    verdict.gaps.append((label, gap, sweeps))
    if not passed:
        verdict.failed += 1
        verdict.notes.append(f"{label}: objective {gap.primal:.6g} is at least {excess:.3e} "
                             f"above a refit's after {sweeps} sweeps (certified gap "
                             f"{gap.gap:.3e}, bound {checks.GAP_BOUND:g}); counted as failed")


def warm_up():
    """One three-sweep fit on a small panel, so BLAS, LAPACK and scipy paths are loaded."""
    inst = simulate.generate(DesignSpec("D1", 20, 20, 5, seed=1))
    admm.fit(inst.data, replace(BENCH_CONFIG, nu1=1e-4, nu2=1e-3, max_iter=3))


def permuted(inst, perm) -> PanelData:
    return PanelData(inst.data.y[perm], inst.data.x[perm])


def score_pick(verdict: Verdict, x, theta_hat, pi_hat, surface, p: int, tau: float,
               label: str):
    """Score an l1nnqr pick; quantile_err takes only the tau = 0.5 picks.

    A tail pick's error is mostly Design 1's constant quantile offset, which a
    rank-1 Pi-hat cannot hold next to the cosine factor, so it is logged but
    not averaged in.
    """
    q_err = checks.quantile_error(surface, x, theta_hat, pi_hat)
    if tau == 0.5:
        verdict.quantile_errs.append(q_err)
    else:
        verdict.notes.append(f"{label} pick: quantile error {q_err!r}, not in quantile_err")
    verdict.theta_errs.append(checks.theta_error(theta_hat, checks.d1_theta(p)))


def require_window(q_err: float, n: int, t_len: int, label: str):
    lo, hi = checks.d1_window(n, t_len)
    require(lo <= q_err <= hi,
            f"{label}: quantile error {q_err:.5f} outside criterion 5's [{lo:.5f}, {hi:.5f}]")


def fingerprint(out) -> list:
    """Sweeps, convergence and a digest of theta and Pi of every fit of a body, in call order."""
    return [(r.iterations, r.converged,
             hashlib.sha1(r.theta.tobytes() + r.pi.tobytes()).hexdigest())
            for _, _, r in out["calls"]]


class GridSquare:
    """selection.grid_search over the default 9 x 7 grid, then one default-eta fit."""

    name = "grid-d1-square"
    spec = DesignSpec("D1", 100, 100, 5, seed=100)

    def __init__(self, seed: int, workdir: Path):
        self.perm = np.random.default_rng(seed).permutation(self.spec.n)

    def setup(self):
        inst = simulate.generate(self.spec)
        self.data = permuted(inst, self.perm)
        self.surface = checks.d1_quantile_surface(self.data.x, checks.d1_theta(self.spec.p),
                                                  self.perm + 1, BENCH_CONFIG.tau)
        warm_up()

    def body(self):
        log = FitLog()
        with log.watching(selection):
            report = selection.grid_search(self.data, TuningGrid(), BENCH_CONFIG)
        # SolverConfig defaults (eta = 1) except the two penalties: the known
        # non-converging case.
        default_cfg = SolverConfig(nu1=report.best_nu1, nu2=report.best_nu2)
        default = admm.fit(self.data, default_cfg)
        return {"calls": log.calls + [(self.data, default_cfg, default)], "report": report}

    def check(self, out) -> Verdict:
        v = Verdict()
        y, x = np.asarray(self.data.y), np.asarray(self.data.x)
        calls, report = out["calls"], out["report"]
        v.count([r for _, _, r in calls])
        grid_calls, (_, default_cfg, default) = calls[:-1], calls[-1]
        fits = [scored(cfg, r) for _, cfg, r in grid_calls]
        require(len(fits) == len(report.table), "grid table and fit log differ in length")
        for row, f in zip(report.table, fits):
            require((row.nu1, row.nu2, row.objective, row.converged)
                    == (f.nu1, f.nu2, f.objective, f.converged),
                    f"grid table row at ({row.nu1:g}, {row.nu2:g}) does not match its fit")
        pick = [(f.nu1, f.nu2) for f in fits].index((report.best_nu1, report.best_nu2))
        require(fits[pick].objective == report.best_fit.objective, "best_fit is not the pick")
        checks.check_grid(y, x, fits, [row.bic for row in report.table], pick, "grid")
        checks.check_fit(y, x, scored(default_cfg, default), "default-eta fit")
        if not default.converged:
            v.notes.append(f"default-eta fit did not converge in {default.iterations} sweeps "
                           f"(objective {default.objective:.4f}, rank {default.rank_estimate}; "
                           f"grid pick {fits[pick].objective:.4f}, rank {fits[pick].rank})")
        full = checks.full_rank_row(fits)
        for k, label in ((pick, "grid pick"), (full, "grid full-rank point")):
            cfg = grid_calls[k][1]
            certify(v, self.data, cfg, fits[k], f"{label} ({cfg.nu1:g}, {cfg.nu2:g})")
        score_pick(v, x, fits[pick].theta, fits[pick].pi, self.surface, self.spec.p,
                   BENCH_CONFIG.tau, "grid")
        require_window(v.quantile_errs[-1], self.spec.n, self.spec.t_len, "grid pick")
        return v


class TuneTall:
    """quantfactor tune --tau 0.1,0.5,0.9 on a tall panel written by quantfactor simulate."""

    name = "tune-d1-tall"
    n, t_len, p, panel_seed = 250, 24, 20, 200
    taus = (0.1, 0.5, 0.9)
    grid_nu1 = (3e-2, 3e-3)
    grid_nu2 = (1e-2, 3e-3, 3e-4)

    def __init__(self, seed: int, workdir: Path):
        self.perm = np.random.default_rng(seed).permutation(self.n)
        self.workdir = workdir
        self.eta = 10.0 / (self.n * self.t_len)
        self.rounds = 0

    def setup(self):
        sim_dir = self.workdir / "sim"
        rc = cli.cli_main(["simulate", "--design", "D1", "--n", str(self.n), "--T",
                           str(self.t_len), "--p", str(self.p), "--seed",
                           str(self.panel_seed), "--out", str(sim_dir)])
        require(rc == 0, f"quantfactor simulate exited {rc}")
        # Reorder whole unit blocks of the long-format file; the reader
        # numbers units by first appearance, so this permutes the panel's rows.
        lines = (sim_dir / "panel.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        blocks = [lines[1 + i * self.t_len: 1 + (i + 1) * self.t_len] for i in range(self.n)]
        self.panel = self.workdir / "panel.csv"
        self.panel.write_text(lines[0] + "".join("".join(blocks[i]) for i in self.perm),
                              encoding="utf-8")
        warm_up()

    def argv(self, out_dir: Path):
        fmt = lambda vals: ",".join(f"{v:g}" for v in vals)
        return ["tune", "--panel", str(self.panel), "--tau", fmt(self.taus),
                "--grid-nu1", fmt(self.grid_nu1), "--grid-nu2", fmt(self.grid_nu2),
                "--eta", repr(self.eta), "--out", str(out_dir)]

    def body(self):
        self.rounds += 1
        out_dir = self.workdir / f"tune-{self.rounds}"
        shutil.rmtree(out_dir, ignore_errors=True)
        log = FitLog()
        with log.watching(selection):
            rc = cli.cli_main(self.argv(out_dir))
        return {"rc": rc, "calls": log.calls, "out": out_dir}

    def read_panel(self):
        """Our own parse of the long-format panel, units numbered by first appearance."""
        raw = np.loadtxt(self.panel, delimiter=",", skiprows=1)
        labels = raw[:: self.t_len, 0].astype(int)
        require(np.array_equal(raw[:, 1].reshape(self.n, self.t_len),
                               np.tile(np.arange(1, self.t_len + 1), (self.n, 1))),
                "panel periods are not 1..T within each unit block")
        y = raw[:, 2].reshape(self.n, self.t_len)
        x = raw[:, 3:].reshape(self.n, self.t_len, self.p)
        return y, x, labels

    def check(self, out) -> Verdict:
        require(out["rc"] == 0, f"quantfactor tune exited {out['rc']}")
        v = Verdict()
        calls = out["calls"]
        v.count([r for _, _, r in calls])
        y, x, labels = self.read_panel()
        data = calls[0][0]
        require(np.array_equal(data.y, y) and np.array_equal(data.x, x),
                "panel_io's panel differs from the benchmark's own parse")
        per_grid = len(self.grid_nu1) * len(self.grid_nu2)
        require(len(calls) == per_grid * len(self.taus), f"{len(calls)} fits logged")
        for g, tau in enumerate(self.taus):
            label = f"tau {tau:g}"
            grid_calls = calls[g * per_grid: (g + 1) * per_grid]
            fits = [scored(cfg, r) for _, cfg, r in grid_calls]
            tau_dir = out["out"] / f"tau_{tau:g}"
            with open(tau_dir / "selection.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            require(len(rows) == per_grid, f"{label}: selection.csv has {len(rows)} rows")
            for row, f in zip(rows, fits):
                require((float(row["nu1"]), float(row["nu2"]), float(row["objective"]),
                         int(row["rank"]), int(row["sparsity"]), row["converged"] == "1")
                        == (f.nu1, f.nu2, f.objective, f.rank, f.sparsity, f.converged),
                        f"{label}: selection.csv row at ({row['nu1']}, {row['nu2']}) "
                        "does not match its fit")
            summary = json.loads((tau_dir / "summary.json").read_text(encoding="utf-8"))
            pick = [(f.nu1, f.nu2) for f in fits].index((summary["nu1"], summary["nu2"]))
            checks.check_grid(y, x, fits, [float(r["bic"]) for r in rows], pick, label)
            theta_hat = np.loadtxt(tau_dir / "theta.csv", delimiter=",", skiprows=1,
                                   usecols=1, ndmin=1)
            pi_hat = np.loadtxt(tau_dir / "pi.csv", delimiter=",", ndmin=2)
            written = ScoredFit(fits[pick].nu1, fits[pick].nu2, tau, theta_hat, pi_hat,
                                summary["objective"], summary["rank"], summary["sparsity"],
                                summary["converged"])
            require(summary["objective"] == fits[pick].objective,
                    f"{label}: summary.json objective is not the pick's")
            checks.check_fit(y, x, written, f"{label} written fit")
            self.check_factors(tau_dir, pi_hat, summary["rank"], label)
            full = checks.full_rank_row(fits)
            for k, name in ((pick, "pick"), (full, "full-rank point")):
                cfg = grid_calls[k][1]
                certify(v, data, cfg, fits[k], f"{label} {name} ({cfg.nu1:g}, {cfg.nu2:g})")
            surface = checks.d1_quantile_surface(x, checks.d1_theta(self.p), labels, tau)
            score_pick(v, x, theta_hat, pi_hat, surface, self.p, tau, label)
        return v

    @staticmethod
    def check_factors(tau_dir: Path, pi_hat, rank: int, label: str):
        if rank == 0:
            for name in ("factors.csv", "loadings.csv"):
                require((tau_dir / name).read_text(encoding="utf-8") == "",
                        f"{label}: {name} should be empty at rank 0")
            return
        factors = np.loadtxt(tau_dir / "factors.csv", delimiter=",", ndmin=2)
        loadings = np.loadtxt(tau_dir / "loadings.csv", delimiter=",", ndmin=2)
        require(factors.shape == (pi_hat.shape[1], rank), f"{label}: factors.csv shape")
        require(np.allclose(factors.T @ factors, np.eye(rank), atol=1e-9),
                f"{label}: factors are not orthonormal")
        scale = max(1.0, float(np.abs(pi_hat).max()))
        require(np.allclose(loadings @ factors.T, pi_hat, atol=1e-9 * scale, rtol=0),
                f"{label}: loadings x factors' does not rebuild pi.csv")


class McAccept:
    """metrics.run_monte_carlo with l1nnqr and l1qr, the engine behind quantfactor bench."""

    name = "mc-d1-accept"
    spec = DesignSpec("D1", 100, 100, 5, seed=100)
    reps = 2
    methods = ("l1nnqr", "l1qr")
    grid = TuningGrid(nu1_values=np.array([1e-4, 1e-8]))

    def __init__(self, seed: int, workdir: Path):
        self.perm = np.random.default_rng(seed).permutation(self.spec.n)

    def setup(self):
        warm_up()

    def permuting(self, instances):
        """Hand run_monte_carlo each rep's instance with its units permuted."""
        original = metrics.generate
        perm = self.perm

        def generate(spec):
            inst = original(spec)
            inst = replace(inst, data=permuted(inst, perm), pi_true=inst.pi_true[perm],
                           true_median_surface=inst.true_median_surface[perm])
            instances.append(inst)
            return inst

        return patched(metrics, "generate", generate)

    def body(self):
        log = FitLog()
        instances = []
        with log.watching(metrics), self.permuting(instances):
            reports = metrics.run_monte_carlo(self.spec, self.methods, self.grid, self.reps,
                                              base_config=BENCH_CONFIG)
        return {"calls": log.calls, "reports": reports, "instances": instances}

    def check(self, out) -> Verdict:
        v = Verdict()
        calls, reports = out["calls"], {r.method: r for r in out["reports"]}
        v.count([r for _, _, r in calls])
        require(len(out["instances"]) == self.reps, "one instance per rep expected")
        for rep, inst in enumerate(out["instances"]):
            data = inst.data
            y, x = np.asarray(data.y), np.asarray(data.x)
            surface = checks.d1_quantile_surface(x, checks.d1_theta(self.spec.p),
                                                 self.perm + 1, BENCH_CONFIG.tau)
            mine = [(cfg, r) for d, cfg, r in calls if d is data]
            for method in self.methods:
                label = f"rep {rep} {method}"
                pinned = method == "l1qr"
                grid_calls = [(cfg, r) for cfg, r in mine if cfg.fix_pi_zero == pinned]
                fits = [scored(cfg, r) for cfg, r in grid_calls]
                # run_monte_carlo reports only the pick's errors, so the pick is
                # the recomputed BIC argmin and the errors must match it.
                pick = checks.check_grid(y, x, fits, None, None, label)
                q_err = checks.quantile_error(surface, x, fits[pick].theta, fits[pick].pi)
                t_err = checks.theta_error(fits[pick].theta, checks.d1_theta(self.spec.p))
                report = reports[method]
                require(checks.close(q_err, report.per_rep_quantile_err[rep])
                        and checks.close(t_err, report.per_rep_theta_err[rep]),
                        f"{label}: reported pick errors ({report.per_rep_quantile_err[rep]!r}, "
                        f"{report.per_rep_theta_err[rep]!r}) != recomputed ({q_err!r}, {t_err!r})")
                points = [(pick, "pick")]
                if not pinned:
                    points.append((checks.full_rank_row(fits), "full-rank point"))
                    score_pick(v, x, fits[pick].theta, fits[pick].pi, surface, self.spec.p,
                               BENCH_CONFIG.tau, label)
                    require_window(q_err, self.spec.n, self.spec.t_len, label)
                for k, name in points:
                    cfg = grid_calls[k][0]
                    certify(v, data, cfg, fits[k], f"{label} {name} ({cfg.nu1:g}, {cfg.nu2:g})")
        for method, report in reports.items():
            require(report.failed_reps == 0 and report.reps == self.reps,
                    f"{method}: {report.failed_reps} failed reps")
        return v


WORKLOADS = {w.name: w for w in (GridSquare, TuneTall, McAccept)}
