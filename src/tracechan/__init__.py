"""Trace-driven site-specific wireless channel and link simulation.

Multipath traces (CSV or the built-in ray tracer) are turned into
frequency-domain MIMO channel matrices, swept against beam codebooks, and
rolled up into per-snapshot link metrics.
"""

from .arrays import (
    Direction,
    PlanarArray,
    steering_factors,
    steering_matrix,
    steering_vector,
)
from .beams import (
    TIE_RTOL,
    BeamCodebook,
    BeamSelection,
    generate_codebook,
    ideal_beam_sweep,
    ideal_beam_sweeps,
    select_best_pair,
    sweep_power_table,
)
from .channel import (
    SPEED_OF_LIGHT,
    ChannelMatrixSet,
    PathFactors,
    SubbandGrid,
    beamformed_power,
    build_channel_matrices,
    path_factors,
)
from .link import (
    AmcTable,
    LinkBudget,
    LinkColumns,
    LinkMetrics,
    SimulationSetup,
    compute_sinr,
    metrics_to_csv,
    noise_power,
    run_simulation,
    select_mcs,
    throughput_delay,
)
from .raytrace import (
    Environment,
    Rectangle,
    RtScenario,
    fresnel_parameter,
    generate_trace,
    knife_edge_loss_db,
)
from .scenario import ConfigError, ScenarioConfig, build_setup, load_config
from .traces import (
    MpcRecord,
    PathType,
    TraceFormatError,
    TraceSet,
    ValidationReport,
    Violation,
    parse_trace,
    parse_trace_text,
    trace_to_text,
    validate_trace,
    write_trace,
)
from .trajectory import (
    circular_trajectory,
    linear_trajectory,
    make_trajectory,
    static_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "SPEED_OF_LIGHT",
    "TIE_RTOL",
    "AmcTable",
    "BeamCodebook",
    "BeamSelection",
    "ChannelMatrixSet",
    "ConfigError",
    "Direction",
    "Environment",
    "LinkBudget",
    "LinkColumns",
    "LinkMetrics",
    "MpcRecord",
    "PathFactors",
    "PathType",
    "PlanarArray",
    "Rectangle",
    "RtScenario",
    "ScenarioConfig",
    "SimulationSetup",
    "SubbandGrid",
    "TraceFormatError",
    "TraceSet",
    "ValidationReport",
    "Violation",
    "beamformed_power",
    "build_channel_matrices",
    "build_setup",
    "circular_trajectory",
    "compute_sinr",
    "fresnel_parameter",
    "generate_codebook",
    "generate_trace",
    "ideal_beam_sweep",
    "ideal_beam_sweeps",
    "knife_edge_loss_db",
    "linear_trajectory",
    "load_config",
    "make_trajectory",
    "metrics_to_csv",
    "noise_power",
    "parse_trace",
    "path_factors",
    "parse_trace_text",
    "run_simulation",
    "select_best_pair",
    "select_mcs",
    "static_trajectory",
    "steering_factors",
    "steering_matrix",
    "steering_vector",
    "sweep_power_table",
    "trace_to_text",
    "throughput_delay",
    "validate_trace",
    "write_trace",
]
