"""Link-level simulator for dual-polarization 2x2 MIMO in indoor small cells.

The package maps a dual-polarized antenna's cross-polarization
discrimination (XPD) to transmit correlation, converts correlation to
equivalent omnidirectional antenna spacing, and evaluates zero-forcing
throughput distributions over synthetic user populations.
"""

__version__ = "0.1.0"

from .correlation import (
    AodDistribution,
    CorrelationMatrix,
    InvalidCorrelationError,
    NoSolutionError,
    SpacingQuery,
    bessel_j0,
    dualpole_corr_approx,
    dualpole_corr_exact,
    equivalent_spacing,
    matrix_sqrt_psd,
    spatial_corr,
)
from .pattern import (
    PatternFormatError,
    RadiationPattern,
    gain_at,
    load_pattern,
    scale_to_xpd,
    xpd_at,
)
from .chanmodel import (
    PropagationGains,
    build_effective,
    draw_fading_batch,
    empirical_tx_correlation,
    kronecker_effective,
)
from .link import (
    MODELS,
    LinkParams,
    LinkResult,
    RankDeficientError,
    UserChannel,
    cdf,
    evaluate_user,
    zf_weights,
)
from .harness import (
    ConfigError,
    GeneratorBounds,
    RunReport,
    Scenario,
    UserSpec,
    generate_users,
    parse_scenario,
    run,
    write_report,
)

__all__ = [
    "__version__",
    # correlation
    "AodDistribution", "CorrelationMatrix",
    "InvalidCorrelationError", "NoSolutionError", "SpacingQuery",
    "bessel_j0", "dualpole_corr_approx", "dualpole_corr_exact",
    "equivalent_spacing", "matrix_sqrt_psd", "spatial_corr",
    # pattern
    "PatternFormatError", "RadiationPattern",
    "gain_at", "load_pattern", "scale_to_xpd", "xpd_at",
    # chanmodel
    "PropagationGains", "build_effective", "draw_fading_batch",
    "empirical_tx_correlation", "kronecker_effective",
    # link
    "MODELS", "LinkParams", "LinkResult", "RankDeficientError",
    "UserChannel", "cdf", "evaluate_user", "zf_weights",
    # harness
    "ConfigError", "GeneratorBounds", "RunReport", "Scenario", "UserSpec",
    "generate_users", "parse_scenario", "run", "write_report",
]
