"""Per-stage wall-time benchmarking of the tokenization pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import SceneBundle
from .config import PipelineConfig
from .fusion import FusionParams
from .pipeline import STAGES, tokenize_bundle


@dataclass
class BenchRow:
    stage: str
    repetitions: int
    p50_ms: float
    p95_ms: float


@dataclass
class BenchReport:
    rows: list[BenchRow]

    def text(self) -> str:
        lines = ["stage\trepetitions\tp50_ms\tp95_ms"]
        for row in self.rows:
            lines.append(f"{row.stage}\t{row.repetitions}\t"
                         f"{row.p50_ms:.3f}\t{row.p95_ms:.3f}")
        return "\n".join(lines)

    def total_p50_ms(self, include_fuse: bool = True) -> float:
        return sum(r.p50_ms for r in self.rows
                   if include_fuse or r.stage != "fuse")


def bench_tokenize(bundle: SceneBundle, config: PipelineConfig,
                   repetitions: int = 3,
                   params: FusionParams | None = None) -> BenchReport:
    """Tokenize ``repetitions`` times and report p50/p95 per stage.

    The bundle is validated once up front; repeated runs skip validation so
    the timings cover the pipeline stages only.
    """
    if repetitions <= 0:
        raise ValueError("repetitions must be > 0")
    samples: dict[str, list[float]] = {stage: [] for stage in STAGES}
    for rep in range(repetitions):
        result = tokenize_bundle(bundle, config, params=params,
                                 validate=(rep == 0))
        for stage in STAGES:
            samples[stage].append(result.timings[stage] * 1e3)

    rows = []
    for stage in STAGES:
        s = samples[stage]
        rows.append(BenchRow(stage=stage, repetitions=repetitions,
                             p50_ms=float(np.percentile(s, 50)),
                             p95_ms=float(np.percentile(s, 95))))
    return BenchReport(rows=rows)
