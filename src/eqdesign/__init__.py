"""Least-squares equalizer design for acoustically transparent hearing devices."""

from .signals import (
    FrequencyGrid,
    ImpulseResponse,
    convolution_matrix,
    fractional_octave_smooth,
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
    NumericsError,
    assemble_atf_system,
    default_fft_size,
    design_filter,
    solve_ls_atf,
    weights_from_ratio,
)
from .evaluation import (
    EvaluationReport,
    erb_bandwidth_hz,
    erb_weights,
    evaluate,
)

__version__ = "0.1.0"
