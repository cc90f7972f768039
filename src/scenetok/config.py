"""Pipeline configuration.

All tunables live here so that every constant can be overridden from a
config file.  Defaults follow the reference operating point: an 11-frame
history, 65536 points, and a 768-element token budget split 128 agents /
384 open-set / 256 ground.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidInput


@dataclass(frozen=True)
class RansacConfig:
    """Ground-plane RANSAC parameters."""

    iters: int = 256
    inlier_threshold_m: float = 0.2

    def validate(self) -> list[str]:
        problems = []
        if self.iters <= 0:
            problems.append("ransac.iters must be > 0")
        if self.inlier_threshold_m <= 0:
            problems.append("ransac.inlier_threshold_m must be > 0")
        return problems


@dataclass(frozen=True)
class ClusterConfig:
    """Connected-component clustering of non-ground, non-agent points."""

    radius_m: float = 0.5
    min_points: int = 3

    def validate(self) -> list[str]:
        problems = []
        if self.radius_m <= 0:
            problems.append("cluster.radius_m must be > 0")
        if self.min_points <= 0:
            problems.append("cluster.min_points must be > 0")
        return problems


@dataclass(frozen=True)
class TrackConfig:
    """Constant-velocity Kalman tracker parameters."""

    gate_m: float = 2.0
    dt_s: float = 0.1
    process_noise_vel: float = 1e-2
    measurement_noise_pos: float = 1e-2
    init_pos_var: float = 1e-2
    init_vel_var: float = 1.0

    def validate(self) -> list[str]:
        problems = []
        if self.gate_m <= 0:
            problems.append("track.gate_m must be > 0")
        if self.dt_s <= 0:
            problems.append("track.dt_s must be > 0")
        for name in ("process_noise_vel", "measurement_noise_pos",
                     "init_pos_var", "init_vel_var"):
            if getattr(self, name) < 0:
                problems.append(f"track.{name} must be >= 0")
        return problems


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

    def __post_init__(self):
        problems = []
        for name in ("T", "D", "n_elem_agent", "n_elem_openset",
                     "n_elem_ground", "n_pts_ground", "n_pts_agent",
                     "n_pts_openset"):
            if getattr(self, name) <= 0:
                problems.append(f"{name} must be > 0")
        if self.tile_size_m <= 0:
            problems.append("tile_size_m must be > 0")
        if self.seed < 0:
            problems.append("seed must be >= 0")
        problems += self.ransac.validate()
        problems += self.cluster.validate()
        problems += self.track.validate()
        if problems:
            raise InvalidInput("invalid config: " + "; ".join(problems))

    @property
    def n_elem(self) -> int:
        return self.n_elem_agent + self.n_elem_openset + self.n_elem_ground

    @property
    def n_pts(self) -> int:
        return self.n_pts_ground + self.n_pts_agent + self.n_pts_openset
