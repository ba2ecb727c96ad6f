"""Sparse plus low-rank panel quantile regression via ADMM.

Jointly estimates a sparse coefficient vector and a low-rank latent matrix by
minimizing pinball loss with weighted l1 and nuclear-norm penalties, with
BIC-driven tuning, factor extraction, simulation designs, and a CLI.
"""

from .admm import (
    AdmmState,
    GramCache,
    fit,
    solve_zw_joint,
)
from .errors import (
    AllFitsFailed,
    AllZeroSpectrum,
    DegenerateColumn,
    DimensionMismatch,
    DuplicateCell,
    EmptyFile,
    LengthMismatch,
    NonFiniteInput,
    NonFiniteIterate,
    PanelFormatError,
    ParseError,
    QuantfactorError,
    RankTooLarge,
    SvdFailure,
    UnbalancedPanel,
)
from .factors import (
    FactorDecomposition,
    extract_factors,
    procrustes_distance,
    variance_explained,
)
from .metrics import (
    METHODS,
    McReport,
    RepMetrics,
    evaluate_rep,
    quantile_error,
    run_monte_carlo,
    support_recovery,
    theta_error_scaled,
)
from .panel import (
    ColumnScales,
    PanelData,
    QuantileFit,
    SolverConfig,
    compute_column_scales,
    penalized_objective,
    pinball_loss,
    support_mask,
)
from .panel_io import (
    read_matrix_csv,
    read_panel_csv,
    write_fit,
    write_matrix_csv,
    write_panel_csv,
    write_sim_instance,
)
from .prox import (
    SvtResult,
    prox_pinball,
    prox_squared,
    singular_value_threshold,
    soft_threshold,
)
from .selection import (
    SelectionReport,
    SelectionRow,
    TuningGrid,
    bic_score,
    default_c1,
    grid_search,
)
from .simulate import (
    DESIGNS,
    RNG_ALGORITHM,
    DesignSpec,
    SimInstance,
    generate,
    sample_scaled_t3,
)

__version__ = "0.1.0"
