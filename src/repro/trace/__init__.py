"""Trace substrate: trip records, Porto loader, synthetic generation, cleaning."""

from .records import TripRecord
from .powerlaw import PowerLawDistribution, fit_power_law_mle, tail_heaviness
from .porto import (
    PORTO_FLEET_SIZE,
    PORTO_SAMPLE_INTERVAL_S,
    PortoFormatError,
    PortoRow,
    iter_porto_rows,
    load_porto_trips,
    parse_polyline,
    parse_row,
    row_to_trip,
    write_porto_csv,
)
from .cleaning import (
    CleaningConfig,
    CleaningReport,
    clean_trips,
    first_n_by_time,
)
from .synthetic import (
    DIURNAL_WEIGHTS,
    PortoLikeTraceGenerator,
    TraceConfig,
    generate_trace,
)
from .drivers import (
    DriverGenerationConfig,
    DriverScheduleGenerator,
    WorkingModel,
    generate_drivers,
)

__all__ = [
    "TripRecord",
    "PowerLawDistribution",
    "fit_power_law_mle",
    "tail_heaviness",
    "PortoFormatError",
    "PortoRow",
    "PORTO_FLEET_SIZE",
    "PORTO_SAMPLE_INTERVAL_S",
    "parse_polyline",
    "parse_row",
    "row_to_trip",
    "iter_porto_rows",
    "load_porto_trips",
    "write_porto_csv",
    "CleaningConfig",
    "CleaningReport",
    "clean_trips",
    "first_n_by_time",
    "TraceConfig",
    "DIURNAL_WEIGHTS",
    "PortoLikeTraceGenerator",
    "generate_trace",
    "DriverGenerationConfig",
    "DriverScheduleGenerator",
    "WorkingModel",
    "generate_drivers",
]
