import numpy as np
import pytest

from scenetok import (
    PipelineConfig,
    init_fusion_params,
    load_pipeline_config,
    read_fusion_params,
    read_scene_bundle,
    read_tokens,
    save_pipeline_config,
    tokenize_bundle,
    write_fusion_params,
    write_scene_bundle,
    write_tokens,
)
from scenetok.bundle import KIND_CODES, SceneElement, SceneTokens
from scenetok.errors import (
    BadMagic,
    ManifestMissingEntry,
    ShapeHeaderMismatch,
    StorageError,
    VersionUnsupported,
)
from scenetok.cli import cli_main
from scenetok.formats import read_blob, read_tensor_file, write_blob, write_tensor_file


def dir_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestBlobs:
    def test_round_trip_dtypes(self, tmp_path):
        rng = np.random.default_rng(0)
        for arr in (rng.normal(size=(3, 4)),
                    rng.normal(size=(2, 2)).astype(np.float32),
                    rng.integers(0, 100, (5,), dtype=np.int64),
                    np.array([True, False, True])):
            path = tmp_path / "a.bin"
            write_blob(path, arr)
            back = read_blob(path)
            assert back.dtype == arr.dtype
            np.testing.assert_array_equal(back, arr)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(BadMagic):
            read_blob(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.bin"
        write_blob(path, np.zeros(3))
        data = bytearray(path.read_bytes())
        data[8:10] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(VersionUnsupported):
            read_blob(path)

    def test_truncated_blob_reports_byte_counts(self, tmp_path):
        path = tmp_path / "t.bin"
        write_blob(path, np.arange(100, dtype=np.float64))
        path.write_bytes(path.read_bytes()[:-50])
        with pytest.raises(ShapeHeaderMismatch) as exc:
            read_blob(path)
        assert "bytes" in str(exc.value)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "g.bin"
        write_blob(path, np.arange(4, dtype=np.float64))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ShapeHeaderMismatch):
            read_blob(path)


class TestBundleIO:
    def test_round_trip_bit_exact(self, tmp_path, small_scene):
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        write_scene_bundle(d1, small_scene.bundle)
        back = read_scene_bundle(d1)
        write_scene_bundle(d2, back)
        assert dir_bytes(d1) == dir_bytes(d2)

    def test_read_validates_with_config(self, tmp_path, small_scene,
                                        small_config):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        bundle = read_scene_bundle(d, small_config)
        assert len(bundle.frames) == small_config.T

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestMissingEntry):
            read_scene_bundle(tmp_path / "nothing")

    def test_manifest_referencing_absent_file(self, tmp_path, small_scene):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        victim = d / "points_f001.bin"
        victim.unlink()
        with pytest.raises(ManifestMissingEntry) as exc:
            read_scene_bundle(d)
        assert "points_f001.bin" in str(exc.value)


def small_tokens(n_elem=3, T=2, D=4):
    rng = np.random.default_rng(1)
    kinds = ["agent", "open-set", "ground"]
    elements = [SceneElement(token_id=i, kind=kinds[i % 3],
                             boxes=rng.normal(size=(T, 7)),
                             frame_valid=rng.random(T) > 0.5,
                             source_id=i * 10)
                for i in range(n_elem)]
    return SceneTokens(F_elem=rng.normal(size=(n_elem, D)),
                       elements=elements,
                       frame_valid=np.stack([e.frame_valid for e in elements]),
                       boxes=np.stack([e.boxes for e in elements]))


class TestTokensIO:
    def test_round_trip_equality(self, tmp_path):
        tokens = small_tokens()
        path = tmp_path / "t.tokens"
        write_tokens(path, tokens)
        back = read_tokens(path)
        np.testing.assert_array_equal(back.F_elem, tokens.F_elem)
        for a, b in zip(back.elements, tokens.elements):
            assert a.token_id == b.token_id and a.kind == b.kind
            assert a.source_id == b.source_id
            np.testing.assert_array_equal(a.boxes, b.boxes)
            np.testing.assert_array_equal(a.frame_valid, b.frame_valid)

    def test_write_read_write_byte_identical(self, tmp_path):
        tokens = small_tokens()
        p1, p2 = tmp_path / "a", tmp_path / "b"
        write_tokens(p1, tokens)
        write_tokens(p2, read_tokens(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_token_file(self, tmp_path):
        tokens = SceneTokens(F_elem=np.zeros((0, 8)), elements=[],
                             frame_valid=np.zeros((0, 3), dtype=bool),
                             boxes=np.zeros((0, 3, 7)))
        path = tmp_path / "empty.tokens"
        write_tokens(path, tokens)
        back = read_tokens(path)
        assert back.F_elem.shape == (0, 8)
        assert back.elements == []

    def test_kind_codebook(self, tmp_path):
        assert KIND_CODES == {"agent": 0, "open-set": 1, "ground": 2}
        tokens = small_tokens()
        path = tmp_path / "t.tokens"
        write_tokens(path, tokens)
        raw = read_tensor_file(path)
        assert raw["kind"].tolist() == [0, 1, 2]

    def test_unknown_kind_code_is_storage_error(self, tmp_path, capsys):
        path = tmp_path / "t.tokens"
        write_tokens(path, small_tokens())
        raw = read_tensor_file(path)
        raw["kind"][1] = 9
        write_tensor_file(path, raw)
        with pytest.raises(StorageError, match=r"t\.tokens.*kind code 9"):
            read_tokens(path)
        assert cli_main(["inspect", "--tokens", str(path)]) == 2
        assert "kind code 9" in capsys.readouterr().err


class TestParamsIO:
    def test_round_trip(self, tmp_path):
        params = init_fusion_params(T=3, D=8, hidden=6, n_heads=2, seed=4)
        path = tmp_path / "p.ckpt"
        write_fusion_params(path, params)
        back = read_fusion_params(path)
        assert back.T == 3 and back.D == 8 and back.n_heads == 2
        for name, tensor in params.tensors().items():
            np.testing.assert_array_equal(back.tensors()[name], tensor)
            assert back.tensors()[name].dtype == tensor.dtype

    def test_float32_round_trip(self, tmp_path):
        params = init_fusion_params(T=2, D=4, hidden=4, seed=0,
                                    dtype=np.float32)
        path = tmp_path / "p32.ckpt"
        write_fusion_params(path, params)
        assert read_fusion_params(path).dtype == np.float32

    def test_wrong_kind_rejected(self, tmp_path):
        tokens = small_tokens()
        path = tmp_path / "t.tokens"
        write_tokens(path, tokens)
        with pytest.raises(BadMagic):
            read_fusion_params(path)


class TestConfigIO:
    def test_round_trip(self, tmp_path, small_config):
        path = tmp_path / "cfg.json"
        save_pipeline_config(path, small_config)
        assert load_pipeline_config(path) == small_config

    def test_partial_config_uses_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"T": 5, "ransac": {"iters": 32}}\n')
        cfg = load_pipeline_config(path)
        assert cfg.T == 5
        assert cfg.ransac.iters == 32
        assert cfg.D == PipelineConfig().D

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n_elem_agents": 4}\n')  # typo
        with pytest.raises(ValueError):
            load_pipeline_config(path)

    def test_unknown_nested_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"ransac": {"iterations": 9}}\n')  # typo
        with pytest.raises(ValueError):
            load_pipeline_config(path)


def test_tokenized_scene_round_trip_through_pipeline(tmp_path, small_scene,
                                                     small_config):
    """Bundle -> disk -> bundle -> tokenize gives identical tensors."""
    d = tmp_path / "scene"
    write_scene_bundle(d, small_scene.bundle)
    back = read_scene_bundle(d, small_config)
    a = tokenize_bundle(small_scene.bundle, small_config)
    b = tokenize_bundle(back, small_config)
    np.testing.assert_array_equal(a.scene.P_xyz, b.scene.P_xyz)
    np.testing.assert_array_equal(a.scene.P_ind, b.scene.P_ind)
    np.testing.assert_array_equal(a.scene.F_pts, b.scene.F_pts)
    np.testing.assert_array_equal(a.scene.B, b.scene.B)
