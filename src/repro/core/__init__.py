"""Core gym infrastructure: spaces, environments, rewards, datasets."""

from repro.core.cache_store import ServerCacheStore, SharedCacheStore
from repro.core.dataset import ArchGymDataset, Transition
from repro.core.env import ArchGymEnv, EnvStats, canonical_action_key
from repro.core.errors import (
    AgentError,
    ArchGymError,
    CacheStoreError,
    DatasetError,
    EnvironmentError_,
    ExecutorError,
    InvalidActionError,
    ProxyModelError,
    RegistryError,
    ServiceError,
    ShardError,
    SimulationError,
    SpaceError,
)
from repro.core.registry import make, register, registered_ids
from repro.core.rewards import (
    BudgetDistanceReward,
    InverseReward,
    JointTargetReward,
    RewardSpec,
    TargetReward,
)
from repro.core.spaces import (
    Categorical,
    CompositeSpace,
    Discrete,
    Parameter,
)

__all__ = [
    "ArchGymDataset",
    "Transition",
    "ArchGymEnv",
    "EnvStats",
    "ServerCacheStore",
    "SharedCacheStore",
    "canonical_action_key",
    "ArchGymError",
    "AgentError",
    "CacheStoreError",
    "DatasetError",
    "ExecutorError",
    "ShardError",
    "EnvironmentError_",
    "InvalidActionError",
    "ProxyModelError",
    "RegistryError",
    "ServiceError",
    "SimulationError",
    "SpaceError",
    "make",
    "register",
    "registered_ids",
    "RewardSpec",
    "TargetReward",
    "JointTargetReward",
    "BudgetDistanceReward",
    "InverseReward",
    "Parameter",
    "Categorical",
    "Discrete",
    "CompositeSpace",
]
