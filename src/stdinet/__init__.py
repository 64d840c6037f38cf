"""Grid demand forecasting with hour-conditioned generated prediction weights."""

from .errors import (
    DataError,
    DivergenceError,
    DomainError,
    SchemaError,
    ShapeError,
    UsageError,
)
from .tensor import STANDARD, VERIFICATION, Tape, Tensor, finite_diff_check
from .model import (
    MODEL_KINDS,
    ModelDims,
    TOY_DIMS,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from .data import (
    DemandSeries,
    StationGrid,
    Windows,
    assign_grid,
    build_demand_series,
    generate_hour_embeddings,
    load_hour_embeddings,
    make_windows,
    read_demand_series,
    regime_demand_series,
    select_stations,
    split_dataset,
    write_demand_series,
)
from .training import Adam, TrainConfig, TrainHistory, fit, mse_loss, predict_windows
from .bench import (
    BenchConfig,
    MetricPair,
    MlpModel,
    REFERENCE_RESULTS,
    SUITES,
    baseline_ha,
    baseline_linear,
    compute_metrics,
    run_benchmark,
)

__all__ = [
    "DataError", "DivergenceError", "DomainError", "SchemaError", "ShapeError",
    "UsageError",
    "STANDARD", "VERIFICATION", "Tape", "Tensor", "finite_diff_check",
    "MODEL_KINDS", "ModelDims", "TOY_DIMS", "build_model",
    "load_checkpoint", "save_checkpoint",
    "DemandSeries", "StationGrid", "Windows", "assign_grid",
    "build_demand_series", "generate_hour_embeddings", "load_hour_embeddings",
    "make_windows", "read_demand_series", "regime_demand_series",
    "select_stations", "split_dataset", "write_demand_series",
    "Adam", "TrainConfig", "TrainHistory", "fit", "mse_loss", "predict_windows",
    "BenchConfig", "MetricPair", "MlpModel", "REFERENCE_RESULTS", "SUITES", "baseline_ha",
    "baseline_linear", "compute_metrics", "run_benchmark",
]
