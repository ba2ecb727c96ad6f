"""Span tracer that wraps the package's functions from outside the package.

A wrapper replaces a name where callers look it up (a module attribute or a
method on a class), records one span per call -- name, start, end, parent
span and optional attributes -- and calls the original unchanged, so traced
runs compute the same bits as untraced ones.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import ExitStack, contextmanager

import numpy as np


@contextmanager
def patched(owner, attr: str, replacement):
    """Set owner.attr to replacement for the length of a with block."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        # one row per span: [name, start, end, parent index or -1, attrs or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches = ExitStack()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, attrs):
        end = time.perf_counter()
        self._stack.pop()
        row = self.spans[idx]
        row[1], row[2], row[4] = start, end, attrs

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, None)

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace owner.attr by a traced call of the original.

        before(args, kwargs) -> dict runs ahead of the call; after(attrs,
        result) may add to that dict once the call returns.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            attrs = before(args, kwargs) if before is not None else None
            idx = tracer._open(name)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx, start, attrs)
            if after is not None:
                after(attrs, result)
            return result

        self._patches.enter_context(patched(owner, attr, traced))

    def uninstall(self):
        self._patches.close()

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        dur = np.array([row[2] - row[1] for row in self.spans])
        own = dur.copy()
        for row, d in zip(self.spans, dur):
            if row[3] >= 0:
                own[row[3]] -= d
        return own

    def write(self, path):
        """Spans as JSON: names once, then [name id, start, end, parent, attrs]."""
        names = sorted({row[0] for row in self.spans})
        ids = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [ids[r[0]], round(r[1] - t0, 9), round(r[2] - t0, 9), r[3], r[4]]
            for r in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


def _size_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def install(tracer: Tracer):
    """Wrap every public entry point the workloads reach, where it is looked up."""
    from quantfactor import admm, cli, metrics, selection, simulate

    def fit_before(args, kwargs):
        config = args[1] if len(args) > 1 else kwargs["config"]
        init = kwargs.get("init")
        cold = init is None or not (init.u_v.any() or init.pi.any() or init.theta.any())
        return {"nu1": config.nu1, "nu2": config.nu2, "fix_pi": config.fix_pi_zero,
                "cold": bool(cold)}

    def fit_after(attrs, result):
        attrs["sweeps"] = result.iterations
        attrs["converged"] = result.converged

    def svt_after(attrs, result):
        attrs["kept"] = int(np.count_nonzero(result.singular_values_after))
        attrs["computed"] = int(result.singular_values_before.size)

    def read_before(args, kwargs):
        return {"mb": _size_mb(args[0])}

    def write_after(attrs, paths):
        attrs["mb"] = sum(_size_mb(p) for p in paths.values())

    # blocks of one sweep, bound by name inside admm
    tracer.wrap(admm, "prox_pinball", "prox.pinball")
    tracer.wrap(admm, "soft_threshold", "prox.soft")
    tracer.wrap(admm, "singular_value_threshold", "prox.svt", before=lambda a, k: {},
                after=svt_after)
    tracer.wrap(admm, "solve_zw_joint", "admm.zw")
    tracer.wrap(admm.GramCache, "solve", "admm.gram_solve")
    tracer.wrap(admm.GramCache, "xt_dot", "admm.xt_dot")
    tracer.wrap(admm, "penalized_objective", "panel.objective")
    # one fit, wherever a caller looks it up
    for module in (admm, selection, metrics):
        tracer.wrap(module, "fit", "admm.fit", before=fit_before, after=fit_after)
    for module in (admm, selection, metrics, cli):
        tracer.wrap(module, "compute_column_scales", "panel.scales")
    for module in (selection, metrics):
        tracer.wrap(module, "bic_score", "selection.bic")
    for module in (selection, cli):
        tracer.wrap(module, "grid_search", "selection.grid")
    tracer.wrap(metrics, "evaluate_rep", "metrics.rep")
    tracer.wrap(metrics, "run_monte_carlo", "metrics.mc")
    for module in (simulate, metrics, cli):
        tracer.wrap(module, "generate", "simulate.generate")
    tracer.wrap(cli, "read_panel_csv", "panel_io.read", before=read_before)
    tracer.wrap(cli, "write_fit", "panel_io.write", before=lambda a, k: {}, after=write_after)
    tracer.wrap(cli, "write_sim_instance", "panel_io.write_sim")
    tracer.wrap(cli, "extract_factors", "factors.extract")
    tracer.wrap(cli, "cli_main", "cli.main", before=lambda a, k: {"command": a[0][0]})


# Per-layer metrics, each with its unit; see README.md for what each should move.
LAYER_METRICS = {
    "prox.svt_calls": "count",
    "prox.svt_s": "s",
    "prox.svt_kept_ratio": "ratio",
    "prox.pinball_s": "s",
    "prox.soft_s": "s",
    "admm.fits": "count",
    "admm.sweeps": "count",
    "admm.unconverged": "count",
    "admm.fit_s": "s",
    "admm.fit_self_s": "s",
    "admm.ms_per_sweep": "ms",
    "admm.zw_s": "s",
    "admm.gram_solve_s": "s",
    "admm.xt_dot_s": "s",
    "admm.gap_rel_max": "ratio",
    "selection.grid_s": "s",
    "selection.column_s_median": "s",
    "selection.column_s_max": "s",
    "selection.bic_s": "s",
    "selection.cold_sweep_share": "ratio",
    "metrics.rep_s_median": "s",
    "metrics.l1qr_fit_s": "s",
    "panel.objective_s": "s",
    "panel.scales_s": "s",
    "panel_io.read_s": "s",
    "panel_io.read_mb": "MB",
    "panel_io.write_s": "s",
    "panel_io.write_mb": "MB",
    "factors.extract_s": "s",
    "cli.tune_s": "s",
    "simulate.generate_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, first_body_span: int) -> dict:
    """Per-layer figures from the spans of one traced body.

    Spans before first_body_span belong to set-up; only simulate.generate_s
    counts them, since generation is set-up work on two of the workloads.
    """
    spans = tracer.spans
    own = tracer.self_times()
    body = range(first_body_span, len(spans))

    def of(name):
        return [k for k in body if spans[k][0] == name]

    def total(name, idx=None):
        idx = of(name) if idx is None else idx
        return float(sum(spans[k][2] - spans[k][1] for k in idx))

    fits = of("admm.fit")
    svts = of("prox.svt")
    sweeps = sum(spans[k][4]["sweeps"] for k in fits)
    # fits made by a grid loop, in selection.grid_search or metrics.evaluate_rep
    grid_fits = [k for k in fits if spans[spans[k][3]][0] in ("selection.grid", "metrics.rep")]
    grid_sweeps = sum(spans[k][4]["sweeps"] for k in grid_fits)
    cold_sweeps = sum(spans[k][4]["sweeps"] for k in grid_fits if spans[k][4]["cold"])
    kept = sum(spans[k][4]["kept"] for k in svts)
    computed = sum(spans[k][4]["computed"] for k in svts)
    fit_s = total("admm.fit", fits)

    def stretches(parent_name, starts_child):
        """Durations between successive child starts under each parent span,
        the last one running to the parent's end."""
        out = []
        for g in of(parent_name):
            starts = [spans[k][1] for k in body if spans[k][3] == g and starts_child(k)]
            bounds = starts + [spans[g][2]]
            out += [b - a for a, b in zip(bounds, bounds[1:])]
        return out

    # A grid column runs from its first fit to the next column's first fit,
    # so it also covers the BIC scoring between fits; a Monte Carlo rep runs
    # from one instance's generation to the next.
    first_in_column = {k for k in fits if spans[k][4]["cold"]}
    columns = stretches("selection.grid", lambda k: k in first_in_column)
    reps = stretches("metrics.mc", lambda k: spans[k][0] == "simulate.generate")
    l1qr = [k for k in grid_fits if spans[k][4]["fix_pi"]]
    generate_all = [k for k in range(len(spans)) if spans[k][0] == "simulate.generate"]

    return {
        "prox.svt_calls": len(svts),
        "prox.svt_s": total("prox.svt", svts),
        "prox.svt_kept_ratio": kept / computed if computed else 0.0,
        "prox.pinball_s": total("prox.pinball"),
        "prox.soft_s": total("prox.soft"),
        "admm.fits": len(fits),
        "admm.sweeps": sweeps,
        "admm.unconverged": sum(not spans[k][4]["converged"] for k in fits),
        "admm.fit_s": fit_s,
        "admm.fit_self_s": float(sum(own[k] for k in fits)),
        "admm.ms_per_sweep": 1e3 * fit_s / sweeps if sweeps else 0.0,
        "admm.zw_s": total("admm.zw"),
        "admm.gram_solve_s": total("admm.gram_solve"),
        "admm.xt_dot_s": total("admm.xt_dot"),
        "selection.grid_s": total("selection.grid"),
        "selection.column_s_median": float(np.median(columns)) if columns else 0.0,
        "selection.column_s_max": float(max(columns)) if columns else 0.0,
        "selection.bic_s": total("selection.bic"),
        "selection.cold_sweep_share": cold_sweeps / grid_sweeps if grid_sweeps else 0.0,
        "metrics.rep_s_median": float(np.median(reps)) if reps else 0.0,
        "metrics.l1qr_fit_s": total("admm.fit", l1qr),
        "panel.objective_s": total("panel.objective"),
        "panel.scales_s": total("panel.scales"),
        "panel_io.read_s": total("panel_io.read"),
        "panel_io.read_mb": float(sum(spans[k][4]["mb"] for k in of("panel_io.read"))),
        "panel_io.write_s": total("panel_io.write"),
        "panel_io.write_mb": float(sum(spans[k][4]["mb"] for k in of("panel_io.write"))),
        "factors.extract_s": total("factors.extract"),
        "cli.tune_s": total("cli.main",
                            [k for k in of("cli.main") if spans[k][4]["command"] == "tune"]),
        "simulate.generate_s": total("simulate.generate", generate_all),
    }
