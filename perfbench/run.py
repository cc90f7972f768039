#!/usr/bin/env python3
"""scenetok benchmark: one workload per fresh process, closed loop, 1 caller.

Run from the repository root:

    python3 perfbench/run.py --workload full_scene --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates traced
and untraced ops and prints the per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("full_scene", "crowded_scene", "small_scenes", "fusion_train")
MAX_THREADS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5  # this process plus SETUP_SAMPLES - 1 fresh probe processes
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "throughput_ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SPANS = (
    "storage.read_scene_bundle", "bundle.validate_bundle", "storage.write_tokens",
    "pipeline.tokenize_bundle", "pipeline.assign_token_ids",
    "ground.fit_and_segment", "ground.tile_ground",
    "decompose.decompose_frame", "decompose.extract_agent_elements",
    "decompose.cluster_open_set", "decompose.fit_tight_box",
    "tracking.track_open_set", "projection.build_point_features",
    "compact.downsample", "compact.build_tokenized_scene",
    "compact.pool_image_features", "pooling.segment_sum",
    "fusion.loss_and_grads", "fusion.encode_geometry", "fusion.point_pool",
    "fusion.point_mlp", "fusion.box_mlp", "fusion.fuse_scene",
    "fusion.time_attn", "fusion.elem_attn", "fusion.masked_softmax",
    "fusion.time_mean", "fusion.backward",
)
COUNTS = {
    "storage.bytes_read": "B", "storage.bytes_written": "B",
    "ground.inlier_ratio": "ratio", "ground.tiles_kept": "count",
    "decompose.points.ground": "count", "decompose.points.agent": "count",
    "decompose.points.openset": "count", "decompose.points.discarded": "count",
    "tracking.detections": "count", "tracking.tracks": "count",
    "tracking.match_ratio": "ratio",
    "pipeline.elements.agent": "count", "pipeline.elements.openset": "count",
    "pipeline.elements.ground": "count",
    "pipeline.elements_dropped.agent": "count",
    "pipeline.elements_dropped.openset": "count",
    "projection.points_seen_ratio": "ratio", "projection.f_pts_mb": "MB",
    "compact.pool_fill_ratio.agent": "ratio",
    "compact.pool_fill_ratio.openset": "ratio",
    "compact.pool_fill_ratio.ground": "ratio",
    "fusion.peak_alloc_mb": "MB", "fusion.attn_scores": "count",
    "fusion.valid_slot_ratio": "ratio", "fusion.f_elem_itemsize": "count",
    "trace.coverage_ratio": "ratio", "trace.overhead_ratio": "ratio",
}
PER_LAYER = {**{f"{s}.self_ms": "ms" for s in SPANS},
             **{f"{s}.calls": "count" for s in SPANS}, **COUNTS}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every code path at toy sizes (smoke test)")
    # Internal roles of the child processes this script starts.
    ap.add_argument("--role", choices=("main", "generate", "setup"),
                    default="main", help=argparse.SUPPRESS)
    ap.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def pin_threads() -> tuple[int, int]:
    """Pin BLAS/OpenMP pools before numpy loads; returns (nproc, threads)."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(nproc, MAX_THREADS)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return nproc, threads


def import_program():
    """Import scenetok from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import scenetok
    if Path(scenetok.__file__).resolve().parent != (SRC / "scenetok").resolve():
        raise ImportError(f"scenetok was imported from {scenetok.__file__}")
    import workloads
    return workloads


def child(args, role: str) -> str:
    """Run this script in another role; returns its stdout."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--work", str(args.work)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process failed ({proc.returncode}):\n"
                           f"{proc.stderr}")
    return proc.stdout


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    import numpy  # loaded only after the thread pools are pinned
    return float(numpy.percentile(values, q))


def env_line(nproc, threads) -> str:
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"][
                "version"]
        except (KeyError, TypeError):
            return "unknown"

    return (f"env: threads={threads} ({','.join(THREAD_VARS)}) nproc={nproc} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} openblas(numpy)={blas(numpy)} "
            f"openblas(scipy)={blas(scipy)} machine={platform.machine()}")


def cpu_ticks():
    """(steal, total) ticks of all CPUs from /proc/stat; None where absent."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


# ---------------------------------------------------------------------------
# roles

def role_generate(args, wl_mod) -> int:
    wl = wl_mod.WORKLOADS[args.size][args.workload]
    wl_mod.generate_inputs(wl, args.seed, args.work)
    return 0


def role_setup(args, wl_mod) -> int:
    """One set-up sample in a fresh process: import, params, warm-up."""
    wl = wl_mod.WORKLOADS[args.size][args.workload]
    wl_mod.make_runner(wl, args.work).warm_up()
    print(json.dumps({"setup_s": time.perf_counter() - T_START}))
    return 0


def role_main(args, wl_mod, import_s: float, nproc: int, threads: int) -> int:
    wl = wl_mod.WORKLOADS[args.size][args.workload]
    print(f"workload: {args.workload} size={args.size} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} loop=closed callers=1")
    print(env_line(nproc, threads))

    t = time.perf_counter()
    child(args, "generate")
    synth_s = time.perf_counter() - t

    t = time.perf_counter()
    runner = wl_mod.make_runner(wl, args.work)
    runner.warm_up()
    setup = [import_s + time.perf_counter() - t]
    for _ in range(SETUP_SAMPLES - 1):
        setup.append(json.loads(child(args, "setup").splitlines()[-1])["setup_s"])
    # One untimed full-size op first: the process's first touch of its working
    # memory is slower than reusing it and would bias the first timed op.
    t = time.perf_counter()
    priming = runner.run(0)
    priming_ms = (time.perf_counter() - t) * 1e3
    itemsize = runner.f_elem_itemsize(priming)
    priming = None

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    n_inputs = len(runner.inputs)
    lat_ms, traced_ms, untraced_ms = [], [], []
    op_ms_total = 0.0
    attempted = failed = 0
    digests: dict[int, str] = {}
    layer_rows = []  # (op, wall ms, counts, library timings) of traced ops
    last_traced = None
    run_problems: list[str] = []
    other_warnings: set[str] = set()

    # At least one op; a traced run also completes one traced input cycle.
    min_ops = 2 * n_inputs if tracer is not None else 1
    ticks_start = cpu_ticks()
    loop_start = time.perf_counter()
    k = 0
    while k < min_ops or time.perf_counter() - loop_start < args.seconds:
        traced = tracer is not None and (k // n_inputs) % 2 == 1
        if traced:
            tracer.install(k)
        result = None
        t0 = time.perf_counter()
        try:
            result = runner.run(k)
        except Exception:  # an op failure is counted, not fatal
            problems = ["raised:\n" + traceback.format_exc()]
        finally:
            dt_ms = (time.perf_counter() - t0) * 1e3
            if traced:
                tracer.uninstall()
        attempted += 1
        op_ms_total += dt_ms
        if result is not None:
            problems = runner.check(result)
            i = runner.input_for(k)
            d = runner.digest(result)
            if digests.setdefault(i, d) != d:
                problems.append(f"input {i}: output digest {d[:16]} differs "
                                f"from this run's first {digests[i][:16]}")
            if k == 0:
                run_problems += runner.round_trip(result)
            if wl.kind == "scene":
                other_warnings.update(result.other_warnings)
        if problems:
            failed += 1
            print(f"op {k} failed: " + "; ".join(problems), file=sys.stderr)
        else:
            lat_ms.append(dt_ms)
            (traced_ms if traced else untraced_ms).append(dt_ms)
            if traced:
                counts = runner.counts(result, k)
                counts.update(tracer.counts[k])
                timings = (result.result.timings if wl.kind == "scene" else {})
                layer_rows.append((k, dt_ms, counts, timings))
                last_traced = result
        result = None  # free the output before the next op
        k += 1
    loop_s = time.perf_counter() - loop_start
    ticks_end = cpu_ticks()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for w in sorted(other_warnings):
        print(f"warning from the program: {w}", file=sys.stderr)
    for p in run_problems:
        print(f"run check failed: {p}", file=sys.stderr)

    print(f"ops: attempted={attempted} failed={failed} "
          f"error_ratio={failed / max(attempted, 1):.6f} loop_s={loop_s:.3f}")
    if ticks_start and ticks_end and ticks_end[1] > ticks_start[1]:
        stolen = ((ticks_end[0] - ticks_start[0])
                  / (ticks_end[1] - ticks_start[1]))
        print(f"machine: {stolen:.2%} of all CPU time during the loop was "
              f"stolen by the hypervisor (/proc/stat)")
    print(f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setup)}; "
          f"synthetic input generation (not in setup_s): {synth_s:.3f} s; "
          f"untimed priming op: {priming_ms:.1f} ms")
    if lat_ms:
        q = [percentile(lat_ms, p) for p in (0, 25, 50, 75, 100)]
        print("op latency ms min/p25/p50/p75/max: "
              + " / ".join(f"{v:.1f}" for v in q))
    print("digests: " + " ".join(f"in{i}={d[:16]}"
                                 for i, d in sorted(digests.items())))
    print(f"fusion.f_elem_itemsize={itemsize} (float32 params; 8 means F_elem "
          f"was promoted to float64)")

    metrics = {}
    if not args.trace:
        n = len(lat_ms)
        if n:
            beyond = n * 0.1
            print(f"latency samples: n={n}; {beyond:.1f} samples lie beyond p90"
                  + ("" if beyond >= 10 else
                     " (fewer than 10: the p90 here is a thin tail)"))
            if n >= 20:
                q = 100.0 * (1 - 10 / n)
                print(f"highest percentile with 10 samples beyond it: "
                      f"p{q:.1f} = {percentile(lat_ms, q):.1f} ms")
            values = {
                "throughput_ops_per_s": n / (op_ms_total / 1e3),
                "latency_p50_ms": percentile(lat_ms, 50),
                "latency_p90_ms": percentile(lat_ms, 90),
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(setup),
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    else:
        metrics = layer_metrics(wl, runner, tracer, layer_rows, last_traced,
                                traced_ms, untraced_ms, itemsize)

    correct = failed == 0 and not run_problems and bool(metrics)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


def layer_metrics(wl, runner, tracer, rows, last, traced_ms, untraced_ms,
                  itemsize) -> dict:
    """p50 over traced ops of each per-layer metric."""
    import spans

    if not rows:
        return {}
    per_op = []
    stage_rows = {}
    for k, wall_ms, counts, timings in rows:
        self_ms, incl_ms, calls = tracer.op_times(k)
        v = dict(counts)
        for s in SPANS:
            v[f"{s}.self_ms"] = self_ms.get(s, 0.0)
            v[f"{s}.calls"] = calls.get(s, 0)
        det = counts.get("tracking.detections", 0)
        v["tracking.match_ratio"] = ((det - counts["tracking.tracks"]) / det
                                     if det else 0.0)
        v["trace.coverage_ratio"] = sum(self_ms.values()) / wall_ms
        per_op.append(v)
        for stage, names in spans.STAGE_SPANS.items():
            row = stage_rows.setdefault(stage, {"library": [], "spans": []})
            row["library"].append(timings.get(stage, 0.0) * 1e3)
            row["spans"].append(sum(incl_ms.get(s, 0.0) for s in names))
            for s in names:
                row.setdefault(s, []).append(incl_ms.get(s, 0.0))

    values = {name: percentile([v.get(name, 0.0) for v in per_op], 50)
              for name in PER_LAYER}
    values["fusion.f_elem_itemsize"] = itemsize
    values["trace.overhead_ratio"] = (
        percentile(traced_ms, 50) / percentile(untraced_ms, 50) - 1.0
        if untraced_ms else 0.0)
    values["fusion.peak_alloc_mb"] = fusion_peak_alloc_mb(wl, runner, last)

    print(f"traced ops: {len(rows)}; untraced ops: {len(untraced_ms)}")
    if wl.kind == "scene":
        print("library stage (TokenizeResult.timings) beside the spans that run "
              "inside it, p50 ms:")
        print(f"  {'stage':<10}{'library':>10}{'spans':>10}  span (inclusive)")
        for stage, row in stage_rows.items():
            print(f"  {stage:<10}{percentile(row['library'], 50):>10.2f}"
                  f"{percentile(row['spans'], 50):>10.2f}  "
                  + ", ".join(f"{s} {percentile(row[s], 50):.2f}"
                              for s in spans.STAGE_SPANS[stage]))
        print("  (library minus spans is pipeline.tokenize_bundle self time "
              "inside that stage)")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER.items()}


def fusion_peak_alloc_mb(wl, runner, last) -> float:
    """Peak bytes allocated by one fusion pass, by tracemalloc, outside the loop."""
    import tracemalloc

    if last is None:
        return 0.0
    from scenetok import pipeline
    tracemalloc.start()
    try:
        if wl.kind == "scene":
            scene = last.result.scene
            F_geo = pipeline.encode_geometry(scene.P_xyz, scene.P_ind, scene.B,
                                             runner.params)
            pipeline.fuse_scene(last.result.F_img, F_geo, runner.params,
                                scene.elem_valid)
        else:
            runner.run(0)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "scenetok" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'scenetok'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    nproc, threads = pin_threads()
    wl_mod = import_program()
    import_s = time.perf_counter() - T_START
    if args.role == "generate":
        return role_generate(args, wl_mod)
    if args.role == "setup":
        return role_setup(args, wl_mod)

    args.work = WORK_ROOT / (f"{args.workload}-{args.size}-s{args.seed}"
                             f"-p{os.getpid()}")
    try:
        return role_main(args, wl_mod, import_s, nproc, threads)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
