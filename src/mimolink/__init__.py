"""Analysis and simulation of training-based MIMO links with residual
transmit hardware impairments.

The package pairs closed-form performance analysis (channel-estimation
NMSE, per-stream SINR distributions, outage, ergodic achievable rates,
large-system deterministic equivalents, training-length optimization) with
an independent Monte Carlo link simulator, so every analytical result can
be cross-validated numerically.  A command-line tool (``mimolink``) sweeps
either side over system parameters and writes CSV/JSON tables with
reproducibility manifests.
"""

from .analytic import (
    outage,
    rate_ceiling,
    rate_closed_form,
    rate_low_snr,
    rate_quadrature,
    rate_scan,
    sinr_cdf,
)
from .config import (
    AccuracyError,
    DerivedParams,
    Receiver,
    SystemConfig,
    db_to_linear,
    derive_params,
    derive_params_at,
    linear_to_db,
)
from .largescale import (
    det_rate,
    det_rate_scan,
    det_sinr,
    det_sinr_limit,
)
from .simulate import (
    RandomStream,
    SinrSampleSet,
    empirical_nmse,
    empirical_outage,
    empirical_rate,
    gen_pilot_matrix,
    lmmse_estimate,
    sample_sinr,
    sample_sinr_model,
    sample_sinr_multi,
    simulate_training,
)
from .special import (
    build_coefficients,
    exp_integral_en_scaled,
)
from .training import TpSearchResult, optimize_tp_asymptotic, optimize_tp_exact

__version__ = "0.7.0"

__all__ = [
    "__version__",
    "AccuracyError",
    "DerivedParams",
    "RandomStream",
    "Receiver",
    "SinrSampleSet",
    "SystemConfig",
    "TpSearchResult",
    "build_coefficients",
    "db_to_linear",
    "derive_params",
    "derive_params_at",
    "det_rate",
    "det_rate_scan",
    "det_sinr",
    "det_sinr_limit",
    "empirical_nmse",
    "empirical_outage",
    "empirical_rate",
    "exp_integral_en_scaled",
    "gen_pilot_matrix",
    "linear_to_db",
    "lmmse_estimate",
    "optimize_tp_asymptotic",
    "optimize_tp_exact",
    "outage",
    "rate_ceiling",
    "rate_closed_form",
    "rate_low_snr",
    "rate_quadrature",
    "rate_scan",
    "sample_sinr",
    "sample_sinr_model",
    "sample_sinr_multi",
    "simulate_training",
    "sinr_cdf",
]
