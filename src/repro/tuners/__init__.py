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
from repro.tuners.neural import MLP, Adam, soft_update
from repro.tuners.ottertune import OtterTuneTuner
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
    "lasso_path_ranking",
    "soft_update",
    "vector_to_config",
]
