import json

import numpy as np
import pytest

from scenetok.cli import cli_main
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
    assert 0 < len(loaded.elements) <= 8 + 16 + 64
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
