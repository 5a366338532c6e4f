"""Least-squares equalizer design for acoustically transparent hearing devices."""

from .signals import (
    FrequencyGrid,
    ImpulseResponse,
    convolution_matrix,
    convolve,
    delay,
    fractional_octave_smooth,
    magnitude_response,
)
from .scenario import (
    MeasurementSet,
    Scenario,
    SynthSpec,
    ValidationError,
    forward_path_ir,
    load_scenario,
    save_scenario,
    scenario_fingerprint,
    scenario_from_dict,
    select_loudspeakers,
    synth_scenario,
)
from .design import (
    VARIANTS,
    DesignConfig,
    EqualizerFilter,
    LinearSystem,
    NumericsError,
    assemble_atf_system,
    default_fft_size,
    design_filter,
    frequency_weights,
    reduce_to_rtf,
    solve_ls_atf,
    solve_regularized,
    weights_from_ratio,
)
from .evaluation import (
    EvaluationReport,
    aided_tf,
    auditory_spectral_distance,
    desired_tf,
    erb_bandwidth_hz,
    erb_weights,
    evaluate,
    simulate,
)

__version__ = "0.1.0"
