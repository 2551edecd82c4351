"""Security analysis of CV-QKD with photon-catalysed and photon-subtracted sources."""

import importlib.util
import sys

from .catalysis import (
    CatalysisConfig,
    SchmidtSpectrum,
    SourceParams,
    TwoModeCovariance,
    log_negativity,
    log_negativity_tmsv,
    log_negativity_tmsv_closed_form,
    pd_and_covariance,
    schmidt_spectrum,
    success_probability,
    tmsv_covariance,
)
from .errors import ConsistencyError
from .keyrate import (
    ChannelParams,
    KeyRateResult,
    ProtocolParams,
    SchemeFamily,
    channel_transmittance,
    mutual_information,
    plob_bound,
    propagate_covariance,
    secret_key_rate,
    symplectic_eigenvalues,
    von_neumann_g,
)
from .optimize import (
    TransmittanceOptimum,
    max_distance,
    max_tolerable_excess_noise,
    optimal_log_negativity,
    optimal_transmittances,
)
from .subtraction import SubtractionConfig

__version__ = "0.1.0"


def _bind_lazily(name: str) -> None:
    """Bind the submodule ``name`` now; compile and run it at its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


# The references that only tests and ``catqkd verify`` run stay addressable
# (``catqkd.oracle``, ``sys.modules["catqkd.series"]``) without costing every
# sweep process their compile time.
_bind_lazily("oracle")
_bind_lazily("series")

__all__ = [
    "CatalysisConfig",
    "ChannelParams",
    "ConsistencyError",
    "KeyRateResult",
    "ProtocolParams",
    "SchemeFamily",
    "SchmidtSpectrum",
    "SourceParams",
    "SubtractionConfig",
    "TransmittanceOptimum",
    "TwoModeCovariance",
    "channel_transmittance",
    "log_negativity",
    "log_negativity_tmsv",
    "log_negativity_tmsv_closed_form",
    "max_distance",
    "max_tolerable_excess_noise",
    "mutual_information",
    "optimal_log_negativity",
    "optimal_transmittances",
    "pd_and_covariance",
    "plob_bound",
    "propagate_covariance",
    "schmidt_spectrum",
    "secret_key_rate",
    "success_probability",
    "symplectic_eigenvalues",
    "tmsv_covariance",
    "von_neumann_g",
    "__version__",
]
