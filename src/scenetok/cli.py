"""Command-line interface.

Subcommands: tokenize, synth, ablate, inspect, bench.  Exit codes: 0 on
success, 1 on validation errors, 2 on I/O and usage errors.  tokenize prints
one outcome line per scene, goes on past a failed one, names the failed
scenes and exits with the worst scene's code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bench import bench_tokenize
from .bundle import KIND_CODES
from .config import PipelineConfig
from .errors import (
    BudgetMismatch,
    BundleValidationError,
    DegenerateInput,
    DimensionMismatch,
    InvalidInput,
    ShapeMismatch,
    StorageError,
)
from .fusion import FusionParams, init_fusion_params
from .pipeline import tokenize_bundle
from .storage import (
    load_pipeline_config,
    load_scene_spec,
    read_fusion_params,
    read_scene_bundle,
    read_tokens,
    write_scene_bundle,
    write_tokens,
)
from .synthetic import SceneSpec, drop_agents, generate_scene

_VALIDATION_ERRORS = (BundleValidationError, BudgetMismatch, DimensionMismatch,
                      ShapeMismatch, DegenerateInput, InvalidInput)
_FAILURES = (*_VALIDATION_ERRORS, StorageError, OSError)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


class _SceneDirs(argparse.Action):
    """``--scene`` values.  Several scenes each write ``<out>/<name>.tokens``,
    so two with one directory name are a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        names = [Path(v).name for v in values]
        clashing = [v for v, name in zip(values, names) if names.count(name) > 1]
        if clashing:
            raise argparse.ArgumentError(
                self, f"scenes {' '.join(clashing)} share a directory name, "
                      "so their token files would overwrite each other")
        setattr(namespace, self.dest, values)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="scenetok",
        description="Tokenize multi-frame LiDAR + camera scenes into "
                    "scene-element embeddings.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tokenize", help="tokenize scene bundle(s)")
    t.add_argument("--scene", required=True, nargs="+", metavar="DIR",
                   action=_SceneDirs)
    t.add_argument("--config", metavar="FILE")
    t.add_argument("--out", required=True, metavar="PATH",
                   help="token file, or a directory when multiple scenes are given")
    t.add_argument("--params", metavar="FILE",
                   help="fusion checkpoint; defaults to a seeded initialization")
    t.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes when tokenizing multiple scenes")

    s = sub.add_parser("synth", help="generate a synthetic scene bundle")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--spec", metavar="FILE", help="scene spec JSON")
    s.add_argument("--out", required=True, metavar="DIR")

    a = sub.add_parser("ablate", help="drop a ratio of agent tracks")
    a.add_argument("--scene", required=True, metavar="DIR")
    a.add_argument("--drop-agents", type=float, required=True, metavar="R")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", required=True, metavar="DIR")

    i = sub.add_parser("inspect", help="summarize a token file")
    i.add_argument("--tokens", required=True, metavar="FILE")

    b = sub.add_parser("bench", help="time the pipeline stages")
    b.add_argument("--scene", required=True, metavar="DIR")
    b.add_argument("--reps", type=int, default=3)
    b.add_argument("--config", metavar="FILE")
    return p


def _load_config(path) -> PipelineConfig:
    return load_pipeline_config(path) if path else PipelineConfig()


def _default_params(config: PipelineConfig):
    return init_fusion_params(T=config.T, D=config.D, seed=config.seed,
                              dtype=np.float32)


def _failure(exc: Exception) -> tuple[int, str]:
    """Exit code and message of a validation (1) or I/O (2) error."""
    if isinstance(exc, _VALIDATION_ERRORS):
        return 1, f"error: {exc}"
    return 2, f"i/o error: {exc}"


def _tokenize_one(job: tuple) -> tuple[int, str]:
    """Tokenize one scene: (exit code, outcome line)."""
    scene_dir, out_path, config, params = job
    try:
        bundle = read_scene_bundle(scene_dir, config)
        result = tokenize_bundle(bundle, config, params=params, validate=False)
        write_tokens(out_path, result.tokens)
    except _FAILURES as exc:
        code, message = _failure(exc)
        return code, f"{scene_dir}: {message}"
    return 0, (f"{scene_dir}: {result.scene.n_elem} elements, "
               f"{result.scene.n_pts} points -> {out_path}")


def _cmd_tokenize(args) -> int:
    config = _load_config(args.config)
    params = (read_fusion_params(args.params) if args.params
              else _default_params(config))
    scenes = args.scene
    if len(scenes) == 1:
        jobs = [(scenes[0], args.out, config, params)]
    else:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        jobs = [(s, str(out_dir / (Path(s).name + ".tokens")), config, params)
                for s in scenes]
    if min(args.jobs, len(jobs)) > 1:
        import multiprocessing

        with multiprocessing.Pool(args.jobs) as pool:
            outcomes = pool.map(_tokenize_one, jobs)
    else:
        outcomes = map(_tokenize_one, jobs)
    codes = []
    for code, line in outcomes:
        print(line, file=sys.stderr if code else sys.stdout)
        codes.append(code)
    failed = [scene for scene, code in zip(scenes, codes) if code]
    if failed:
        print(f"error: {len(failed)} of {len(scenes)} scenes failed: "
              f"{' '.join(failed)}", file=sys.stderr)
    return max(codes)


def _cmd_synth(args) -> int:
    spec = load_scene_spec(args.spec) if args.spec else SceneSpec()
    scene = generate_scene(args.seed, spec)
    write_scene_bundle(args.out, scene.bundle)
    n_pts = scene.bundle.points.shape[0]
    print(f"wrote {args.out}: T={spec.T}, {n_pts} points, "
          f"{spec.n_agents} agents, {spec.n_clutter} clutter blobs, "
          f"{spec.cameras} cameras")
    return 0


def _cmd_ablate(args) -> int:
    bundle = read_scene_bundle(args.scene)
    ablated, dropped = drop_agents(bundle, args.drop_agents, args.seed)
    write_scene_bundle(args.out, ablated)
    print(f"removed {len(dropped)} of "
          f"{np.unique(bundle.agent_track).size} agent tracks: {dropped}")
    return 0


def _cmd_inspect(args) -> int:
    tokens = read_tokens(args.tokens)
    print(f"{args.tokens}: {tokens.kind.size} elements, "
          f"D={tokens.F_elem.shape[1]}")
    for kind, code in KIND_CODES.items():
        sel = tokens.kind == code
        count = int(sel.sum())
        if count == 0:
            print(f"  {kind:>8}: 0")
            continue
        norms = np.linalg.norm(tokens.F_elem[sel], axis=1)
        valid_frames = tokens.frame_valid[sel].sum(axis=1)
        print(f"  {kind:>8}: {count}  |F_elem| mean={norms.mean():.4f} "
              f"min={norms.min():.4f} max={norms.max():.4f}  "
              f"valid frames/elem mean={valid_frames.mean():.2f}")
    return 0


def _cmd_bench(args) -> int:
    config = _load_config(args.config)
    bundle = read_scene_bundle(args.scene, config)
    report = bench_tokenize(bundle, config, repetitions=args.reps,
                            params=_default_params(config))
    print(report.text())
    return 0


_COMMANDS = {"tokenize": _cmd_tokenize, "synth": _cmd_synth,
             "ablate": _cmd_ablate, "inspect": _cmd_inspect,
             "bench": _cmd_bench}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _FAILURES as exc:
        code, message = _failure(exc)
        print(message, file=sys.stderr)
        return code


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
