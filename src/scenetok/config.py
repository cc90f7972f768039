"""Pipeline configuration.

All tunables live here so that every constant can be overridden from a
config file.  Defaults follow the reference operating point: an 11-frame
history, 65536 points, and a 768-element token budget split 128 agents /
384 open-set / 256 ground.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass

from .errors import InvalidInput


def _bound_problems(config, prefix: str = "") -> list[str]:
    """The bound rule: every number field of ``config`` must be finite and
    > 0, or >= 0 if its class lists it in ``may_be_zero``.  A nested config
    is checked after the numbers, its fields named ``section.field``."""
    problems = []
    may_be_zero = getattr(config, "may_be_zero", ())
    for f in sorted(fields(config),
                    key=lambda f: is_dataclass(getattr(config, f.name))):
        value, name = getattr(config, f.name), prefix + f.name
        if is_dataclass(value):
            problems += _bound_problems(value, f"{name}.")
        elif not (0 < value < math.inf or value == 0 and f.name in may_be_zero):
            bound = ">= 0" if f.name in may_be_zero else "> 0"
            problems.append(f"{name} must be {bound} and finite")
    return problems


@dataclass(frozen=True)
class RansacConfig:
    """Ground-plane RANSAC parameters."""

    iters: int = 256
    inlier_threshold_m: float = 0.2


@dataclass(frozen=True)
class ClusterConfig:
    """Connected-component clustering of non-ground, non-agent points."""

    radius_m: float = 0.5
    min_points: int = 3


@dataclass(frozen=True)
class TrackConfig:
    """Constant-velocity Kalman tracker parameters."""

    gate_m: float = 2.0
    dt_s: float = 0.1
    process_noise_vel: float = 1e-2
    measurement_noise_pos: float = 1e-2
    init_pos_var: float = 1e-2
    init_vel_var: float = 1.0

    may_be_zero = ("process_noise_vel", "measurement_noise_pos",
                   "init_pos_var", "init_vel_var")


@dataclass(frozen=True)
class PipelineConfig:
    """Top-level configuration for scene tokenization.

    The element budgets bound the number of tokens a scene may emit
    (``n_elem``); the point budgets bound the compacted cloud size
    (``n_pts``).  Budgets are per element kind so static ground can be
    sampled more aggressively than dynamic objects.
    """

    T: int = 11
    D: int = 256
    n_elem_agent: int = 128
    n_elem_openset: int = 384
    n_elem_ground: int = 256
    n_pts_ground: int = 32_768
    n_pts_agent: int = 8_192
    n_pts_openset: int = 24_576
    tile_size_m: float = 10.0
    ransac: RansacConfig = field(default_factory=RansacConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    track: TrackConfig = field(default_factory=TrackConfig)
    seed: int = 0

    may_be_zero = ("seed",)

    def __post_init__(self):
        problems = _bound_problems(self)
        if problems:
            raise InvalidInput("invalid config: " + "; ".join(problems))

    @property
    def n_elem(self) -> int:
        return self.n_elem_agent + self.n_elem_openset + self.n_elem_ground

    @property
    def n_pts(self) -> int:
        return self.n_pts_ground + self.n_pts_agent + self.n_pts_openset
