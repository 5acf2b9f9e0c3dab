"""qfclab: simulator and analysis toolkit for single-stage infrared-to-UV
photon frequency conversion with an intrinsic pair-generation cascade."""

__version__ = "0.1.0"

from ._kernels import backend_name
from .spectral import (ConverterModel, LossBudget, SpectralFilter,
                       conversion_efficiency, detected_signal_rate, energy_gap,
                       noise_rate, noise_spectrum, sfg_output_wavelength,
                       spdc_signal_wavelength)
from .fock import (CouplingParams, FockBasis, FockState, cascaded_evolution,
                   correlation_observables)
from .montecarlo import ChannelConfig, ScenarioConfig, TagStream, generate_streams
from .tagcorr import (CoincidenceHistogram, CorrelationResult, RateMetrics,
                      auto_correlation_histogram, cauchy_schwarz_test,
                      coincidence_histogram, coincidence_histogram_sliced,
                      g2_from_histogram, power_law_fit, rate_metrics)
from .config import bundled_losses, bundled_model, calibrate, load_config, save_config
