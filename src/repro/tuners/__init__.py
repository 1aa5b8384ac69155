"""Learning-based tuners: the BO-style and RL-style instances of §2.1."""

from repro.tuners.base import (
    Recommendation,
    TrainingSample,
    Tuner,
    TuningRequest,
    config_to_vector,
    vector_to_config,
)
from repro.tuners.cdbtune import CDBTuneTuner, cdbtune_reward
from repro.tuners.gpr import GaussianProcessRegressor
from repro.tuners.hybrid import HybridTuner
from repro.tuners.lasso import lasso_path_ranking
from repro.tuners.metrics_prep import factor_embedding, kmeans, prune_metrics
from repro.tuners.neural import MLP, Adam, soft_update
from repro.tuners.ottertune import OtterTuneTuner
from repro.tuners.persistence import (
    load_config_history,
    load_repository,
    save_config_history,
    save_repository,
)
from repro.tuners.repository import WorkloadDataset, WorkloadRepository
from repro.tuners.workload_mapping import MappingResult, WorkloadMapper

__all__ = [
    "Adam",
    "CDBTuneTuner",
    "GaussianProcessRegressor",
    "HybridTuner",
    "MLP",
    "MappingResult",
    "OtterTuneTuner",
    "Recommendation",
    "TrainingSample",
    "Tuner",
    "TuningRequest",
    "WorkloadDataset",
    "WorkloadMapper",
    "WorkloadRepository",
    "cdbtune_reward",
    "config_to_vector",
    "factor_embedding",
    "kmeans",
    "lasso_path_ranking",
    "load_config_history",
    "load_repository",
    "prune_metrics",
    "save_config_history",
    "save_repository",
    "soft_update",
    "vector_to_config",
]
