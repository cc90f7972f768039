import json
import math

import numpy as np
import pytest

from scenetok import errors
from scenetok.cli import _failure, cli_main
from scenetok.formats import read_blob, write_blob
from scenetok.storage import read_tokens

SPEC = dict(n_agents=3, n_clutter=3, T=5, area_m=50.0, cameras=2, D=8,
            ground_points_per_frame=300, agent_points=80, clutter_points=40)

CONFIG = dict(T=5, D=8, n_elem_agent=8, n_elem_openset=16, n_elem_ground=64,
              n_pts_ground=1500, n_pts_agent=800, n_pts_openset=500)


@pytest.fixture
def workdir(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG))
    return tmp_path


def test_synth_then_tokenize_then_inspect(workdir, capsys):
    scene_dir = workdir / "scene"
    tokens = workdir / "out.tokens"
    assert cli_main(["synth", "--seed", "7", "--spec",
                     str(workdir / "spec.json"), "--out", str(scene_dir)]) == 0
    assert (scene_dir / "manifest.json").exists()

    assert cli_main(["tokenize", "--scene", str(scene_dir), "--config",
                     str(workdir / "config.json"), "--out", str(tokens)]) == 0
    loaded = read_tokens(tokens)
    assert 0 < loaded.kind.size <= 8 + 16 + 64
    assert loaded.F_elem.shape[1] == 8

    assert cli_main(["inspect", "--tokens", str(tokens)]) == 0
    out = capsys.readouterr().out
    assert "agent" in out and "ground" in out and "open-set" in out


def test_tokenize_deterministic_bytes(workdir):
    scene_dir = workdir / "scene"
    cli_main(["synth", "--seed", "3", "--spec", str(workdir / "spec.json"),
              "--out", str(scene_dir)])
    t1, t2 = workdir / "a.tokens", workdir / "b.tokens"
    config = ["--config", str(workdir / "config.json")]
    assert cli_main(["tokenize", "--scene", str(scene_dir), "--out", str(t1)]
                    + config) == 0
    assert cli_main(["tokenize", "--scene", str(scene_dir), "--out", str(t2)]
                    + config) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_tokenize_with_params_checkpoint(workdir):
    from scenetok import init_fusion_params, write_fusion_params

    scene_dir = workdir / "scene"
    cli_main(["synth", "--seed", "1", "--spec", str(workdir / "spec.json"),
              "--out", str(scene_dir)])
    ckpt = workdir / "params.ckpt"
    write_fusion_params(ckpt, init_fusion_params(T=5, D=8, seed=11))
    tokens = workdir / "out.tokens"
    assert cli_main(["tokenize", "--scene", str(scene_dir),
                     "--config", str(workdir / "config.json"),
                     "--out", str(tokens), "--params", str(ckpt)]) == 0
    assert np.isfinite(read_tokens(tokens).F_elem).all()


def test_ablate_logs_drop_count(workdir, capsys):
    spec = dict(SPEC, n_agents=10, area_m=130.0)
    (workdir / "spec10.json").write_text(json.dumps(spec))
    scene_dir = workdir / "scene10"
    cli_main(["synth", "--seed", "2", "--spec", str(workdir / "spec10.json"),
              "--out", str(scene_dir)])
    capsys.readouterr()
    out_dir = workdir / "ablated"
    assert cli_main(["ablate", "--scene", str(scene_dir), "--drop-agents",
                     "0.3", "--seed", "5", "--out", str(out_dir)]) == 0
    assert "removed 3 of 10" in capsys.readouterr().out

    # ablated bundle has fewer agent boxes but identical points
    a = read_blob(scene_dir / "points_f000.bin")
    b = read_blob(out_dir / "points_f000.bin")
    np.testing.assert_array_equal(a, b)


def test_corrupted_bundle_exits_1_with_diagnostic(workdir, capsys):
    scene_dir = workdir / "scene"
    cli_main(["synth", "--seed", "4", "--spec", str(workdir / "spec.json"),
              "--out", str(scene_dir)])
    pts = read_blob(scene_dir / "points_f000.bin")
    pts[0, 0] = np.nan
    write_blob(scene_dir / "points_f000.bin", pts)
    code = cli_main(["tokenize", "--scene", str(scene_dir), "--config",
                     str(workdir / "config.json"),
                     "--out", str(workdir / "x.tokens")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e39, 1e200])
def test_huge_coordinates_exit_1(workdir, capsys, scale):
    """Points scaled far beyond the coordinate bound are a validation
    error.  Unchecked, a 1e39 scale tokenizes into NaN tokens and a 1e200
    scale overflows a neighbour query."""
    scene_dir = workdir / "scene"
    cli_main(["synth", "--seed", "1", "--spec", str(workdir / "spec.json"),
              "--out", str(scene_dir)])
    for path in scene_dir.glob("points_f*.bin"):
        write_blob(path, read_blob(path) * scale)
    code = cli_main(["tokenize", "--scene", str(scene_dir), "--config",
                     str(workdir / "config.json"),
                     "--out", str(workdir / "x.tokens")])
    assert code == 1
    err = capsys.readouterr().err
    assert "point coordinate beyond 1e+09 m" in err and "Traceback" not in err
    assert not (workdir / "x.tokens").exists()


def test_duplicate_camera_entry_exits_1(workdir, capsys):
    # a hand-edited manifest naming camera 0's frame-1 map twice
    scene_dir = workdir / "scene"
    cli_main(["synth", "--seed", "4", "--spec", str(workdir / "spec.json"),
              "--out", str(scene_dir)])
    path = scene_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["cameras"].append(dict(manifest["cameras"][1]))
    path.write_text(json.dumps(manifest))
    code = cli_main(["tokenize", "--scene", str(scene_dir), "--config",
                     str(workdir / "config.json"),
                     "--out", str(workdir / "x.tokens")])
    assert code == 1
    assert "camera 0 appears twice in frame 1" in capsys.readouterr().err
    assert not (workdir / "x.tokens").exists()


def test_missing_scene_exits_2(workdir, capsys):
    code = cli_main(["tokenize", "--scene", str(workdir / "nope"),
                     "--out", str(workdir / "x.tokens")])
    assert code == 2
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    ({"T": "11"}, "config field T must be int"),
    ({"ransac": {"iters": None}}, "config field ransac.iters must be int"),
    ([1, 2], "config must be a JSON object"),
])
def test_wrong_typed_config_exits_1(workdir, capsys, config, message):
    path = workdir / "bad.json"
    path.write_text(json.dumps(config))
    code = cli_main(["tokenize", "--scene", str(workdir / "nope"), "--config",
                     str(path), "--out", str(workdir / "x.tokens")])
    assert code == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


_TOKENIZE = ["tokenize", "--scene", "{w}/nope", "--config", "{w}/cfg.json",
             "--out", "{w}/x.tokens"]
_SYNTH = ["synth", "--spec", "{w}/spec2.json", "--out", "{w}/s"]


@pytest.mark.parametrize("command, written, message", [
    (_TOKENIZE, dict(CONFIG, T=0), "T must be > 0"),
    (_TOKENIZE, dict(CONFIG, seed=-1), "seed must be >= 0"),
    (_TOKENIZE, dict(CONFIG, D=9), "D=9 not divisible by n_heads=2"),
    (_SYNTH, dict(SPEC, D=2), "D must be >= 3"),
    (_SYNTH, dict(SPEC, Q=1), "unknown config field Q"),
    (_SYNTH, dict(SPEC, n_agents="3"), "config field n_agents must be int"),
    (_SYNTH, dict(SPEC, n_agents=40, area_m=20.0), "could not place 43"),
    (_SYNTH, dict(SPEC, n_agents=-1), "n_agents must be >= 0"),
    (_SYNTH, dict(SPEC, n_clutter=-1), "n_clutter must be >= 0"),
    (_SYNTH, dict(SPEC, cameras=-1), "cameras must be >= 0"),
    (_SYNTH, dict(SPEC, ground_points_per_frame=-1),
     "ground_points_per_frame must be >= 0"),
    (_SYNTH, dict(SPEC, agent_points=-1), "agent_points must be >= 0"),
    (_SYNTH, dict(SPEC, clutter_points=-1), "clutter_points must be >= 0"),
    (_SYNTH, dict(SPEC, feature_res=0), "feature_res must be > 0"),
    (_SYNTH + ["--seed", "-1"], SPEC, "seed must be >= 0"),
    (["ablate", "--scene", "{w}/scene", "--drop-agents", "1.5", "--out",
      "{w}/a"], None, "ratio must be in [0, 1], got 1.5"),
    (["bench", "--scene", "{w}/scene", "--reps", "0", "--config",
      "{w}/config.json"], None, "repetitions must be > 0"),
])
def test_invalid_user_values_exit_1(workdir, capsys, command, written,
                                    message):
    # ``written`` is the content of the config or spec file the command reads.
    cli_main(["synth", "--seed", "4", "--spec", str(workdir / "spec.json"),
              "--out", str(workdir / "scene")])
    for name in ("cfg.json", "spec2.json"):
        (workdir / name).write_text(json.dumps(written))
    capsys.readouterr()
    assert cli_main([arg.format(w=workdir) for arg in command]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


_FLOAT_FIELDS = ["tile_size_m", "ransac.inlier_threshold_m",
                 "cluster.radius_m", "track.gate_m", "track.dt_s",
                 "track.process_noise_vel", "track.measurement_noise_pos",
                 "track.init_pos_var", "track.init_vel_var"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", _FLOAT_FIELDS)
def test_non_finite_config_number_exits_1(workdir, capsys, field, value):
    # json.load reads the bare NaN, Infinity and -Infinity that json.dumps
    # writes for these floats
    scene_dir, out = workdir / "scene", workdir / "x.tokens"
    cli_main(["synth", "--seed", "4", "--spec", str(workdir / "spec.json"),
              "--out", str(scene_dir)])
    section, _, key = field.rpartition(".")
    config = dict(CONFIG, **({section: {key: value}} if section
                             else {key: value}))
    path = workdir / "non_finite.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    code = cli_main(["tokenize", "--scene", str(scene_dir), "--config",
                     str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{field} must be" in err and "finite" in err
    assert "Traceback" not in err and not out.exists()


_SPEC_FLOAT_FIELDS = ["area_m", "slope", "dt_s", "min_speed", "max_speed",
                      "agent_clearance_m", "clutter_z_m", "clutter_radius_m",
                      "min_separation_m"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", _SPEC_FLOAT_FIELDS)
def test_non_finite_spec_number_exits_1(tmp_path, capsys, field, value):
    path, out = tmp_path / "spec.json", tmp_path / "scene"
    path.write_text(json.dumps(dict(SPEC, **{field: value})))
    code = cli_main(["synth", "--seed", "1", "--spec", str(path), "--out",
                     str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{field} must be finite" in err
    assert "Traceback" not in err and not out.exists()


# Sizes whose parameter tensors numpy refuses before touching memory: beyond
# any address space (MemoryError) or beyond its largest array (ValueError).
@pytest.mark.parametrize("field, value", [("T", 2**55), ("D", 2**52),
                                          ("T", 2**62), ("D", 2**62)])
def test_unallocatable_fusion_size_exits_1(workdir, capsys, field, value):
    path, out = workdir / "huge.json", workdir / "x.tokens"
    path.write_text(json.dumps(dict(CONFIG, **{field: value})))
    code = cli_main(["tokenize", "--scene", str(workdir / "nope"), "--config",
                     str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{field}={value}" in err and "cannot be allocated" in err
    assert "Traceback" not in err and not out.exists()


# Exit code of every scenetok error: 2 for I/O and file-format errors, 1 for
# the rest.
_EXIT_CODES = {
    "SceneTokError": 1, "BundleValidationError": 1, "NonFiniteCoordinate": 1,
    "BadRotation": 1, "DuplicateTrackFrame": 1, "DuplicateCameraFrame": 1,
    "FrameCountMismatch": 1, "InvalidInput": 1, "DegenerateInput": 1,
    "DimensionMismatch": 1, "BudgetMismatch": 1, "ShapeMismatch": 1,
    "StorageError": 2, "BadMagic": 2, "VersionUnsupported": 2,
    "ShapeHeaderMismatch": 2, "ManifestMissingEntry": 2, "BadJson": 2,
    "BadManifestField": 2, "IoFailure": 2, "UnsupportedDtype": 2}


def test_exit_code_of_every_error_class():
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.SceneTokError)}
    assert set(classes) == set(_EXIT_CODES)
    for name, cls in classes.items():
        code, message = _failure(cls("boom"))
        assert code == _EXIT_CODES[name], name
        assert message == ("i/o error: boom" if code == 2 else "error: boom")
    assert _failure(OSError("boom")) == (2, "i/o error: boom")


def test_bare_scenetok_error_exits_1(workdir, capsys, monkeypatch):
    def broken(path):
        raise errors.SceneTokError("no such thing")

    monkeypatch.setattr("scenetok.cli.read_tokens", broken)
    assert cli_main(["inspect", "--tokens", str(workdir / "x.tokens")]) == 1
    err = capsys.readouterr().err
    assert "error: no such thing" in err and "Traceback" not in err


def test_value_error_inside_a_stage_propagates(workdir, monkeypatch):
    from scenetok import decompose

    scene_dir = workdir / "scene"
    cli_main(["synth", "--seed", "4", "--spec", str(workdir / "spec.json"),
              "--out", str(scene_dir)])

    def broken(points, sizes):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(decompose, "fit_tight_box", broken)
    with pytest.raises(ValueError, match="a bug, not bad input"):
        cli_main(["tokenize", "--scene", str(scene_dir), "--config",
                  str(workdir / "config.json"),
                  "--out", str(workdir / "x.tokens")])


def test_truncated_manifest_exits_2(workdir, capsys):
    scene_dir = workdir / "scene"
    cli_main(["synth", "--seed", "4", "--spec", str(workdir / "spec.json"),
              "--out", str(scene_dir)])
    manifest = scene_dir / "manifest.json"
    manifest.write_bytes(manifest.read_bytes()[:100])
    code = cli_main(["tokenize", "--scene", str(scene_dir),
                     "--out", str(workdir / "x.tokens")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{manifest}: not valid JSON" in err and "Traceback" not in err


@pytest.mark.parametrize("section, key, value", [
    ("agents", "heading", None),
    ("frames", "points", 5),
    ("frames", "frame_index", "x"),
    ("cameras", "fx", "abc"),
    ("cameras", "fx", None),
    ("cameras", "valid", "no"),
    ("agents", "center", [1, 2]),
    ("cameras", "rotation", [[1.0]]),
    ("cameras", "translation", ["a", "b", "c"]),
])
def test_wrong_typed_manifest_field_exits_2(workdir, capsys, section, key,
                                            value):
    scene_dir = workdir / "scene"
    cli_main(["synth", "--seed", "4", "--spec", str(workdir / "spec.json"),
              "--out", str(scene_dir)])
    manifest_path = scene_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest[section][0][key] = value
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = cli_main(["tokenize", "--scene", str(scene_dir), "--config",
                     str(workdir / "config.json"),
                     "--out", str(workdir / "x.tokens")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"field {key} must be" in err and "Traceback" not in err
    assert not (workdir / "x.tokens").exists()


def test_truncated_config_exits_2(workdir, capsys):
    path = workdir / "config.json"
    path.write_bytes(path.read_bytes()[:-5])
    code = cli_main(["tokenize", "--scene", str(workdir / "nope"), "--config",
                     str(path), "--out", str(workdir / "x.tokens")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{path}: not valid JSON" in err and "Traceback" not in err


def test_usage_error_exits_2(capsys):
    assert cli_main(["frobnicate"]) == 2
    assert cli_main([]) == 2


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_a_usage_error(workdir, capsys, monkeypatch, jobs):
    scene_dir = workdir / "scene"
    cli_main(["synth", "--seed", "1", "--spec", str(workdir / "spec.json"),
              "--out", str(scene_dir)])
    capsys.readouterr()
    read = []
    monkeypatch.setattr("scenetok.cli.read_scene_bundle",
                        lambda *args, **kwargs: read.append(args))
    out = workdir / "x.tokens"
    assert cli_main(["tokenize", "--scene", str(scene_dir), "--out", str(out),
                     "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert "--jobs" in err and "Traceback" not in err
    assert read == [] and not out.exists()


def test_scenes_sharing_a_name_are_a_usage_error(workdir, capsys,
                                                  monkeypatch):
    a, b = workdir / "a" / "scene", workdir / "b" / "scene"
    for d in (a, b):
        cli_main(["synth", "--seed", "1", "--spec",
                  str(workdir / "spec.json"), "--out", str(d)])
    capsys.readouterr()
    read = []
    monkeypatch.setattr("scenetok.cli.read_scene_bundle",
                        lambda *args, **kwargs: read.append(args))
    out = workdir / "tokens"
    assert cli_main(["tokenize", "--scene", str(a), f"{b}/", "--out",
                     str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{a} {b}/ share a directory name" in err
    assert "Traceback" not in err
    assert read == [] and not out.exists()


def test_config_with_removed_pixel_fields_exits_1(workdir, capsys):
    # a config file as older builds saved it, with the two pixel-sampling
    # fields that no longer exist
    path = workdir / "old.json"
    path.write_text(json.dumps(dict(CONFIG, feature_interp="nearest",
                                    camera_overlap="first")))
    code = cli_main(["tokenize", "--scene", str(workdir / "nope"), "--config",
                     str(path), "--out", str(workdir / "x.tokens")])
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown config field feature_interp" in err
    assert "Traceback" not in err


def test_bench_prints_all_stages(workdir, capsys):
    scene_dir = workdir / "scene"
    cli_main(["synth", "--seed", "6", "--spec", str(workdir / "spec.json"),
              "--out", str(scene_dir)])
    capsys.readouterr()
    assert cli_main(["bench", "--scene", str(scene_dir), "--reps", "2",
                     "--config", str(workdir / "config.json")]) == 0
    out = capsys.readouterr().out
    for stage in ("ground", "decompose", "track", "project", "compact", "fuse"):
        assert stage in out
    peak = [line.split("\t") for line in out.splitlines()
            if line.startswith("peak_alloc_mb")]
    assert len(peak) == 1 and float(peak[0][1]) > 0


def test_multi_scene_tokenize(workdir):
    dirs = []
    for i in range(2):
        d = workdir / f"scene{i}"
        cli_main(["synth", "--seed", str(i), "--spec",
                  str(workdir / "spec.json"), "--out", str(d)])
        dirs.append(str(d))
    out_dir = workdir / "tokens"
    assert cli_main(["tokenize", "--scene", *dirs, "--config",
                     str(workdir / "config.json"), "--out", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "scene0.tokens", "scene1.tokens"]

    # sharded across workers: same outputs, byte for byte
    par_dir = workdir / "tokens_par"
    assert cli_main(["tokenize", "--scene", *dirs, "--config",
                     str(workdir / "config.json"), "--out", str(par_dir),
                     "--jobs", "2"]) == 0
    for name in ("scene0.tokens", "scene1.tokens"):
        assert (par_dir / name).read_bytes() == (out_dir / name).read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fault, code", [("not json", 2), ("wrong T", 1)])
def test_multi_scene_tokenize_reports_every_scene(workdir, capsys, jobs,
                                                  fault, code):
    good, bad = workdir / "a", workdir / "bad"
    for d in (good, bad):
        cli_main(["synth", "--seed", "1", "--spec",
                  str(workdir / "spec.json"), "--out", str(d)])
    manifest = bad / "manifest.json"
    if fault == "not json":
        manifest.write_text("{")
    else:  # one frame fewer than the config's T
        doc = json.loads(manifest.read_text())
        doc["frames"].pop()
        manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    out_dir = workdir / "tokens"
    assert cli_main(["tokenize", "--scene", str(bad), str(good), "--config",
                     str(workdir / "config.json"), "--out", str(out_dir),
                     "--jobs", jobs]) == code
    assert sorted(p.name for p in out_dir.iterdir()) == ["a.tokens"]
    captured = capsys.readouterr()
    n_elem = read_tokens(out_dir / "a.tokens").kind.size
    (line,) = captured.out.splitlines()
    assert line.startswith(f"{good}: {n_elem} elements, ")
    assert line.endswith(f" points -> {out_dir / 'a.tokens'}")
    err = captured.err.splitlines()
    assert len(err) == 2 and "Traceback" not in captured.err
    assert err[0].startswith(f"{bad}: " + ("i/o error: " if code == 2
                                            else "error: "))
    assert err[1] == f"error: 1 of 2 scenes failed: {bad}"


@pytest.mark.parametrize("with_checkpoint", [True, False])
def test_multi_scene_tokenize_loads_params_once(workdir, monkeypatch,
                                                with_checkpoint):
    from scenetok import cli, init_fusion_params, write_fusion_params

    dirs = []
    for i in range(3):
        d = workdir / f"scene{i}"
        cli_main(["synth", "--seed", str(i), "--spec",
                  str(workdir / "spec.json"), "--out", str(d)])
        dirs.append(str(d))
    ckpt = workdir / "params.ckpt"
    write_fusion_params(ckpt, init_fusion_params(T=5, D=8, seed=11))

    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "read_fusion_params",
                        counted(cli.read_fusion_params))
    monkeypatch.setattr(cli, "init_fusion_params",
                        counted(cli.init_fusion_params))
    args = ["tokenize", "--scene", *dirs, "--config",
            str(workdir / "config.json"), "--out", str(workdir / "tokens")]
    if with_checkpoint:
        args += ["--params", str(ckpt)]
    assert cli_main(args) == 0
    assert calls == (["read_fusion_params"] if with_checkpoint
                     else ["init_fusion_params"])
    assert len(list((workdir / "tokens").iterdir())) == 3


@pytest.mark.parametrize("n_scenes", [1, 2])
def test_bad_params_file_exits_2(workdir, capsys, n_scenes):
    dirs = []
    for i in range(n_scenes):
        d = workdir / f"scene{i}"
        cli_main(["synth", "--seed", str(i), "--spec",
                  str(workdir / "spec.json"), "--out", str(d)])
        dirs.append(str(d))
    bad = workdir / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint")
    out = workdir / ("out.tokens" if n_scenes == 1 else "tokens")
    code = cli_main(["tokenize", "--scene", *dirs, "--config",
                     str(workdir / "config.json"), "--out", str(out),
                     "--params", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "i/o error" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("blob, shape", [
    ("points_f000.bin", (75, 2)), ("points_f000.bin", (5, 2)),
    ("cam00_f000.bin", (16,))])
def test_blob_of_another_shape_exits_2(workdir, capsys, blob, shape):
    scene_dir = workdir / "scene"
    cli_main(["synth", "--seed", "4", "--spec", str(workdir / "spec.json"),
              "--out", str(scene_dir)])
    write_blob(scene_dir / blob, np.zeros(shape))
    capsys.readouterr()
    code = cli_main(["tokenize", "--scene", str(scene_dir), "--config",
                     str(workdir / "config.json"),
                     "--out", str(workdir / "x.tokens")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{blob}: must be" in err and "Traceback" not in err
    assert not (workdir / "x.tokens").exists()


@pytest.mark.parametrize("indices", [[0, 2], [0, 0]])
@pytest.mark.parametrize("command", [
    ["tokenize", "--config", "{w}/config.json", "--out", "{w}/x.tokens"],
    ["ablate", "--drop-agents", "0.5", "--out", "{w}/ablated"]])
def test_frame_index_gap_or_repeat_exits_1(workdir, capsys, indices, command):
    scene_dir = workdir / "scene"
    cli_main(["synth", "--seed", "4", "--spec", str(workdir / "spec.json"),
              "--out", str(scene_dir)])
    manifest_path = scene_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["frames"] = manifest["frames"][:2]
    for entry, frame_index in zip(manifest["frames"], indices):
        entry["frame_index"] = frame_index
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = cli_main(command[:1] + ["--scene", str(scene_dir)]
                    + [arg.format(w=workdir) for arg in command[1:]])
    assert code == 1
    err = capsys.readouterr().err
    assert (f"frame at position 1 has frame_index {indices[1]}; frames must "
            "be time-ordered 0..T-1") in err
    assert "Traceback" not in err
