"""Panel CSV ingestion and result persistence.

Panel files are long format with header "unit,period,y,x1,...,xp"; units and
periods map to dense indices by first appearance, so arbitrary labels work.
Every file the package writes goes through write_csv or write_json.  CSV
floats use 17 significant digits, which round-trips doubles exactly; files
are UTF-8, comma-delimited, '.' decimal, with "\r\n" row ends.  JSON files
have sorted keys and an indent of 2.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DuplicateCell, EmptyFile, ParseError, UnbalancedPanel
from .factors import FactorDecomposition
from .panel import ColumnScales, PanelData, QuantileFit
from .simulate import RNG_ALGORITHM, SimInstance


@contextmanager
def _csv_rows(path: Path):
    """Numbered rows of a UTF-8 CSV file; text that does not decode is a ParseError."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield enumerate(csv.reader(fh), start=1)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid UTF-8 ({exc.reason})") from None


def read_panel_csv(path) -> PanelData:
    """Read a balanced long-format panel into dense arrays.

    Every (unit, period) pair must appear exactly once, every unit must
    cover every period, and every value must be finite.
    """
    path = Path(path)
    with _csv_rows(path) as rows:
        first = next(rows, None)
        if first is None:
            raise EmptyFile(f"{path} is empty")
        header = [h.strip() for h in first[1]]
        if header[:3] != ["unit", "period", "y"]:
            raise ParseError(
                f"{path}: header must start with 'unit,period,y', got {header[:3]}"
            )
        p = len(header) - 3
        expected_x = [f"x{j}" for j in range(1, p + 1)]
        if header[3:] != expected_x:
            raise ParseError(f"{path}: covariate columns must be x1..x{p}")

        units: dict[str, int] = {}
        periods: dict[str, int] = {}
        cells: dict[tuple[int, int], tuple[float, list[float]]] = {}
        for lineno, row in rows:
            if not row:
                continue
            if len(row) != 3 + p:
                raise ParseError(
                    f"{path}:{lineno}: expected {3 + p} fields, got {len(row)}"
                )
            unit, period = row[0], row[1]
            ui = units.setdefault(unit, len(units))
            ti = periods.setdefault(period, len(periods))
            if (ui, ti) in cells:
                raise DuplicateCell(
                    f"{path}:{lineno}: duplicate cell (unit={unit!r}, period={period!r})"
                )
            try:
                yval = float(row[2])
                xvals = [float(c) for c in row[3:]]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-numeric value") from exc
            cells[(ui, ti)] = (yval, xvals)

    if not cells:
        raise EmptyFile(f"{path} has a header but no data rows")
    n, t_len = len(units), len(periods)
    if len(cells) != n * t_len:
        raise UnbalancedPanel(
            f"{path}: {len(cells)} cells for {n} units x {t_len} periods"
        )
    y = np.empty((n, t_len))
    x = np.empty((n, t_len, p))
    for (ui, ti), (yval, xvals) in cells.items():
        y[ui, ti] = yval
        x[ui, ti, :] = xvals
    if not (np.isfinite(y).all() and np.isfinite(x).all()):
        raise ParseError(f"{path}: non-finite value (nan or inf)")
    return PanelData(y, x)


def write_csv(path, rows, header=None):
    """Write rows as CSV; float cells get 17 significant digits, others their text."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows([f"{c:.17g}" if isinstance(c, float) else c for c in row]
                         for row in rows)
    return path


def write_json(path, obj):
    """Write obj as JSON with sorted keys and an indent of 2."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
    return path


def write_panel_csv(data: PanelData, path):
    """Write a panel in long format with unit labels 1..n and period labels 1..T."""
    header = ["unit", "period", "y"] + [f"x{j}" for j in range(1, data.p + 1)]
    y, x = data.y.tolist(), data.x.tolist()
    rows = ([i + 1, t + 1, y[i][t], *x[i][t]]
            for i in range(data.n) for t in range(data.t_len))
    return write_csv(path, rows, header)


def write_matrix_csv(matrix, path):
    """Dense numeric matrix, one CSV row per matrix row, no header."""
    return write_csv(path, np.atleast_2d(np.asarray(matrix, dtype=float)).tolist())


def read_matrix_csv(path) -> np.ndarray:
    path = Path(path)
    rows = []
    with _csv_rows(path) as numbered:
        for lineno, row in numbered:
            if not row:
                continue
            try:
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-numeric value") from exc
    if not rows:
        raise EmptyFile(f"{path} is empty")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParseError(f"{path}: ragged rows with widths {sorted(widths)}")
    matrix = np.asarray(rows)
    if not np.isfinite(matrix).all():
        raise ParseError(f"{path}: non-finite value (nan or inf)")
    return matrix


def write_sim_instance(inst: SimInstance, out_dir, seed: int, design: str):
    """Panel CSV plus a JSON sidecar holding the generative truth."""
    out_dir = Path(out_dir)
    panel_path = write_panel_csv(inst.data, out_dir / "panel.csv")
    truth = {
        "design": design,
        "n": inst.data.n,
        "t_len": inst.data.t_len,
        "p": inst.data.p,
        "seed": seed,
        "rng": RNG_ALGORITHM,
        "theta_true": inst.theta_true.tolist(),
        "scale_coef": None if inst.scale_coef is None else inst.scale_coef.tolist(),
        "pi_true": inst.pi_true.tolist(),
    }
    return panel_path, write_json(out_dir / "truth.json", truth)


def write_fit(
    fit_result: QuantileFit,
    decomposition: FactorDecomposition | None,
    out_dir,
    scales: ColumnScales,
    config_echo: dict | None = None,
):
    """Persist one fit: theta.csv, pi.csv, factors.csv, loadings.csv, summary.json.

    theta.csv carries the penalty weight sigma_hat_j next to each coefficient, so
    scales must hold one per coefficient (the empty ColumnScales when p = 0).
    A rank-zero fit writes empty factor and loading files.
    """
    out_dir = Path(out_dir)
    theta = fit_result.theta.tolist()
    rows = zip(range(1, len(theta) + 1), theta, scales.sigma_hat.tolist(), strict=True)
    paths = {
        "theta": write_csv(out_dir / "theta.csv", rows, ["j", "value", "scale"]),
        "pi": write_matrix_csv(fit_result.pi, out_dir / "pi.csv"),
    }
    if decomposition is not None:
        paths["factors"] = write_matrix_csv(decomposition.factors, out_dir / "factors.csv")
        paths["loadings"] = write_matrix_csv(decomposition.loadings, out_dir / "loadings.csv")
    else:
        paths["factors"] = write_csv(out_dir / "factors.csv", [])
        paths["loadings"] = write_csv(out_dir / "loadings.csv", [])

    echo = config_echo or {}
    summary = {
        "tau": fit_result.tau,
        "nu1": echo.get("nu1"),
        "nu2": echo.get("nu2"),
        "rank": fit_result.rank_estimate,
        "sparsity": fit_result.sparsity_estimate,
        "objective": fit_result.objective,
        "iterations": fit_result.iterations,
        "converged": fit_result.converged,
        "primal_residual": fit_result.primal_residual,
        "dual_residual": fit_result.dual_residual,
        "singular_values": fit_result.singular_values.tolist(),
        "rng": RNG_ALGORITHM,
        "config": echo,
    }
    paths["summary"] = write_json(out_dir / "summary.json", summary)
    return paths

