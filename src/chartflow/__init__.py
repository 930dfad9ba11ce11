"""Lead-lag analysis of weekly music-chart data.

The pipeline: ingest weekly (week, city, artist, listeners) charts, place
each city-week on the unit sphere of artist space, difference consecutive
weeks into velocities, regress each city's next velocity on lagged
velocities (its own history vs. every city's history), and score both models
on a temporal holdout against the zero-change baseline.
"""

from .chart_store import (
    ChartSeries,
    fingerprint,
    load_tags,
    parse_chart_csv,
    write_chart_csv,
)
from .design import (
    ColMeta,
    LabeledDesign,
    LagConfig,
    build_design,
    default_boundary,
    temporal_split,
)
from .errors import ChartFlowError
from .evaluate import (
    CityResult,
    RegionReport,
    baseline_rmse,
    build_report,
    evaluate_city,
    evaluate_region,
    percent_of_baseline,
    read_labels_csv,
    report_csv_text,
    report_json_text,
    report_table_text,
    rmse,
)
from .preprocess import VelocitySeries, build_velocities
from .solver import Coefficients, fit_nnls, fit_ols, predict
from .synth import Influence, PlantSpec, generate_planted

__version__ = "0.1.0"

__all__ = [
    "ChartFlowError",
    "ChartSeries",
    "CityResult",
    "Coefficients",
    "ColMeta",
    "Influence",
    "LabeledDesign",
    "LagConfig",
    "PlantSpec",
    "RegionReport",
    "VelocitySeries",
    "baseline_rmse",
    "build_design",
    "build_report",
    "build_velocities",
    "default_boundary",
    "evaluate_city",
    "evaluate_region",
    "fingerprint",
    "fit_nnls",
    "fit_ols",
    "generate_planted",
    "load_tags",
    "parse_chart_csv",
    "percent_of_baseline",
    "predict",
    "read_labels_csv",
    "report_csv_text",
    "report_json_text",
    "report_table_text",
    "rmse",
    "temporal_split",
    "write_chart_csv",
]
