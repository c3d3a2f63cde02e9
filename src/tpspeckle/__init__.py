"""Disorder-averaged two-photon coincidence rates behind diffusive random media.

Computes the normalized same-mode coincidence rate R(tau) for entangled,
symmetrized, Fock and coherent light transmitted through a random medium
with Gaussian transmission statistics, by closed form, by direct
quadrature, and by a Monte Carlo random-transmission oracle.
"""

__version__ = "0.1.0"

from .correlation import (
    CorrelationModel,
    CovarianceFactor,
    FrequencyGrid,
    ModelI,
    ModelII,
    correlation,
    correlation_sq_magnitude,
    covariance_factor,
    model_from_config,
    model_to_config,
)
from .errors import (
    DegenerateStateError,
    GridTooNarrowError,
    InsufficientRealizationsError,
    MonochromaticPumpError,
    NonFiniteValueError,
    NotPositiveSemidefiniteError,
    QuadratureNotConvergedError,
    RangeError,
    TailNotConvergedError,
    TpspeckleError,
)
from .montecarlo import (
    BeamSplitterReport,
    EnsembleConfig,
    McEstimate,
    beam_splitter_check,
    ensemble_config_from_json,
    mc_correlator,
    mc_correlator_batch,
    mc_correlator_cross_mode,
    mc_default_grid,
    mc_mean_photocount,
    rate_correlation_relation,
    sample_transmission,
)
from .rates import (
    DimensionlessArgs,
    QuadratureResult,
    RateCurve,
    SemiclassicalVerdict,
    classify_semiclassical,
    compute_rate_curve,
    erf_complex,
    mean_photocount,
    rate_closed_form,
    rate_coherent,
    rate_cross_mode,
    rate_entangled,
    rate_entangled_cw_limit,
    rate_fock,
    rate_numeric,
    rate_numeric_batch,
    rate_theta,
    visibility,
)
from .states import (
    CoherentState,
    CrystalParams,
    EntangledState,
    FockState,
    PumpParams,
    StateSpec,
    SymmetrizedState,
    biphoton_norm_closed_form,
    gaussian_envelope,
    grid_amplitude_matrix,
    grid_envelope,
    phase_matching,
    pump_envelope,
    spectral_width_ratio,
    symmetrized_norm_sq,
)
