import dataclasses
import json
import shutil
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from scenetok import (
    PipelineConfig,
    SceneSpec,
    generate_scene,
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
from camera_helpers import camera_bundle

from scenetok import storage
from scenetok.bundle import KIND_CODES, SceneElement, SceneTokens
from scenetok.errors import (
    BadMagic,
    BadManifestField,
    BundleValidationError,
    DuplicateCameraFrame,
    FrameCountMismatch,
    InvalidInput,
    IoFailure,
    ManifestMissingEntry,
    SceneTokError,
    ShapeHeaderMismatch,
    StorageError,
    VersionUnsupported,
)
from scenetok.cli import cli_main
from scenetok.formats import (
    KIND_PARAMS,
    KIND_TOKENS,
    read_blob,
    read_tensor_file,
    write_blob,
    write_tensor_file,
)


def dir_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def set_manifest_field(root, section, key, value, entry=0):
    """Set ``key`` of one entry (the first by default) of one manifest
    section to ``value``."""
    path = root / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[section][entry][key] = value
    path.write_text(json.dumps(manifest))


def set_shape(data: bytes, old: tuple, new: tuple) -> bytes:
    """Rewrite the first array header in ``data`` whose shape is ``old``."""
    return data.replace(struct.pack(f"<{len(old)}Q", *old),
                        struct.pack(f"<{len(new)}Q", *new), 1)


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

    def test_overflowing_shape_is_format_error(self, tmp_path):
        # 2**62 * 4 elements wraps to 0 in int64; the payload is still missing
        path = tmp_path / "big.bin"
        write_blob(path, np.zeros((3, 5)))
        path.write_bytes(set_shape(path.read_bytes(), (3, 5), (2**62, 4)))
        with pytest.raises(ShapeHeaderMismatch, match="truncated"):
            read_blob(path)

    def test_payload_is_read_once(self, tmp_path):
        # a 22.9 MB payload once peaked at three times its size
        big = np.random.default_rng(0).normal(size=(3000, 1000))
        write_blob(tmp_path / "a.bin", big)
        write_tensor_file(tmp_path / "a.tensors",
                          {"big": big, "ids": np.arange(10)})
        back, peak = traced_peak(read_blob, tmp_path / "a.bin")
        np.testing.assert_array_equal(back, big)
        assert peak <= big.nbytes + 2**20
        back, peak = traced_peak(read_tensor_file, tmp_path / "a.tensors")
        np.testing.assert_array_equal(back["big"], big)
        assert peak <= big.nbytes + 2**20

    def test_bad_magic_is_raised_before_the_payload_is_read(self, tmp_path):
        path = tmp_path / "big.bin"
        path.write_bytes(b"NOPE" + bytes(24 * 2**20))
        tracemalloc.start()
        try:
            with pytest.raises(BadMagic):
                read_blob(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def traced_peak(fn, *args):
    """``fn(*args)`` and the bytes it allocated at its peak (tracemalloc)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestAtomicWrites:
    """A write that fails halfway leaves the old file and no temp file."""

    def test_failed_tensor_file_keeps_old_target(self, tmp_path):
        path = tmp_path / "t.tokens"
        write_tensor_file(path, {"a": np.arange(3)})
        before = path.read_bytes()
        # "a" is packed and written before "b" fails on its dtype.
        with pytest.raises(ValueError, match="unsupported dtype"):
            write_tensor_file(path, {"a": np.arange(5),
                                     "b": np.array([1j])})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.tokens"]

    def test_failed_blob_keeps_old_target(self, tmp_path):
        path = tmp_path / "a.bin"
        write_blob(path, np.ones(4))
        before = path.read_bytes()
        with pytest.raises(ValueError, match="unsupported dtype"):
            write_blob(path, np.array(["text"]))  # fails after the header
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(ValueError):
            write_blob(tmp_path / "new.bin", np.array([1j]))
        assert list(tmp_path.iterdir()) == []

    def test_failed_manifest_keeps_old_manifest(self, tmp_path, small_scene):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        before = dir_bytes(d)
        # The manifest is serialised, and fails, before the first blob write.
        labels = small_scene.bundle.agent_label.copy()
        labels[-1] = object()
        with pytest.raises(BadManifestField, match="not JSON serializable"):
            write_scene_bundle(d, dataclasses.replace(small_scene.bundle,
                                                      agent_label=labels))
        assert dir_bytes(d) == before

    def test_failed_manifest_keeps_other_scene(self, tmp_path, small_spec,
                                               small_scene):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)  # seed 7
        before = dir_bytes(d)
        other = generate_scene(8, small_spec).bundle
        labels = other.agent_label.copy()
        labels[0] = object()
        with pytest.raises(BadManifestField, match="not JSON serializable"):
            write_scene_bundle(d, dataclasses.replace(other,
                                                      agent_label=labels))
        assert dir_bytes(d) == before
        back = read_scene_bundle(d)
        want = small_scene.bundle
        np.testing.assert_array_equal(back.frame_size, want.frame_size)
        np.testing.assert_array_equal(back.points, want.points)
        assert [back.agent_track.tolist(), back.agent_frame.tolist(),
                back.agent_box[:, 6].tolist()] \
            == [want.agent_track.tolist(), want.agent_frame.tolist(),
                want.agent_box[:, 6].tolist()]

    @pytest.mark.parametrize("fail_at", [0, 4, -1])
    def test_blob_write_failing_partway_keeps_old_bundle(
            self, tmp_path, monkeypatch, small_spec, small_scene, fail_at):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)  # seed 7
        before = dir_bytes(d)
        other = generate_scene(8, small_spec).bundle
        blobs = other.frame_size.size + other.camera_id.size
        written = []

        def failing_write_blob(path, array):
            if len(written) == fail_at % blobs:
                raise OSError(28, "No space left on device")
            written.append(path)
            write_blob(path, array)

        monkeypatch.setattr(storage, "write_blob", failing_write_blob)
        with pytest.raises(IoFailure, match="No space left"):
            write_scene_bundle(d, other)
        assert len(written) == fail_at % blobs
        assert dir_bytes(d) == before  # no new blob, no .tmp file
        back = read_scene_bundle(d)
        want = small_scene.bundle
        for key in ("frame_size", "points", "agent_box", "camera_frame",
                    "camera_size", "pixel_features"):
            np.testing.assert_array_equal(getattr(back, key),
                                          getattr(want, key))

    @pytest.mark.parametrize("frame_size", [[3, 3], [3, 8], [-1, 11]])
    def test_frame_size_not_splitting_points_writes_nothing(self, tmp_path,
                                                            small_scene,
                                                            frame_size):
        d = tmp_path / "scene"
        bad = dataclasses.replace(small_scene.bundle,
                                  points=np.zeros((10, 3)),
                                  frame_size=frame_size)
        with pytest.raises(BundleValidationError, match="frame_size"):
            write_scene_bundle(d, bad)
        assert not d.exists()

    def test_unequal_agent_columns_keep_old_bundle(self, tmp_path,
                                                   small_scene):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        before = dir_bytes(d)
        bundle = small_scene.bundle
        assert bundle.agent_track.size > 1
        bad = dataclasses.replace(bundle, agent_frame=bundle.agent_frame[:1])
        with pytest.raises(BundleValidationError, match="agent columns"):
            write_scene_bundle(d, bad)
        assert dir_bytes(d) == before

    def test_table_errors_list_every_violation(self, tmp_path, small_scene):
        bundle = small_scene.bundle
        bad = dataclasses.replace(bundle, frame_size=bundle.frame_size + 1,
                                  agent_label=bundle.agent_label[:-1])
        with pytest.raises(BundleValidationError) as info:
            write_scene_bundle(tmp_path / "scene", bad)
        assert len(info.value.violations) == 2
        assert not (tmp_path / "scene").exists()

    def test_duplicate_camera_frame_keeps_old_bundle(self, tmp_path,
                                                     small_scene):
        # Two maps of camera 1, frame 3 would both be written to
        # cam01_f003.bin; the writer refuses before it writes anything.
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        before = dir_bytes(d)
        bundle = small_scene.bundle
        frame = bundle.camera_frame.copy()
        first, second = np.flatnonzero((bundle.camera_id == 1)
                                       & (frame >= 3))[:2]
        frame[second] = frame[first]
        bad = dataclasses.replace(bundle, camera_frame=frame)
        with pytest.raises(DuplicateCameraFrame) as info:
            write_scene_bundle(d, bad)
        assert info.value.violations == [
            f"camera 1 appears twice in frame {frame[first]}"]
        assert dir_bytes(d) == before
        assert not (tmp_path / "new").exists()
        with pytest.raises(DuplicateCameraFrame):
            write_scene_bundle(tmp_path / "new", bad)
        assert not (tmp_path / "new").exists()

    def test_unstorable_pixel_dtype_keeps_old_bundle(self, tmp_path,
                                                     small_spec, small_scene):
        # The blob format holds no float16; the writer refuses before it
        # writes the other scene's point blobs.
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)  # seed 7
        before = dir_bytes(d)
        other = generate_scene(8, small_spec).bundle
        bad = dataclasses.replace(
            other, pixel_features=other.pixel_features.astype(np.float16))
        with pytest.raises(StorageError, match="unsupported dtype float16"):
            write_scene_bundle(d, bad)
        assert dir_bytes(d) == before
        with pytest.raises(StorageError, match="unsupported dtype float16"):
            write_scene_bundle(tmp_path / "new", bad)
        assert not (tmp_path / "new").exists()

    def test_failed_config_keeps_old_file(self, tmp_path, small_config):
        path = tmp_path / "cfg.json"
        save_pipeline_config(path, small_config)
        before = path.read_bytes()
        bad = dataclasses.replace(small_config)
        # set past the frozen dataclass's checks
        object.__setattr__(bad, "seed", object())
        with pytest.raises(TypeError, match="not JSON serializable"):
            save_pipeline_config(path, bad)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


class TestBundleIO:
    def test_round_trip_bit_exact(self, tmp_path, small_scene):
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        write_scene_bundle(d1, small_scene.bundle)
        back = read_scene_bundle(d1)
        write_scene_bundle(d2, back)
        assert dir_bytes(d1) == dir_bytes(d2)

    def test_round_trip_with_empty_frame_bit_exact(self, tmp_path,
                                                   small_scene):
        bundle = small_scene.bundle
        end = np.cumsum(bundle.frame_size)
        size = bundle.frame_size.copy()
        size[2] = 0
        bundle = dataclasses.replace(
            bundle, points=np.delete(bundle.points, np.s_[end[1]:end[2]],
                                     axis=0), frame_size=size)
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        write_scene_bundle(d1, bundle)
        back = read_scene_bundle(d1)
        assert back.frame_size.tolist() == size.tolist()
        write_scene_bundle(d2, back)
        assert dir_bytes(d1) == dir_bytes(d2)
        assert read_blob(d1 / "points_f002.bin").shape == (0, 3)

    @pytest.mark.parametrize("shape", [(75, 2), (5, 2), (150,), (50, 3, 1)])
    def test_point_blob_of_another_shape(self, tmp_path, small_scene, shape):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        write_blob(d / "points_f000.bin",
                   np.arange(float(np.prod(shape))).reshape(shape))
        with pytest.raises(ShapeHeaderMismatch) as exc:
            read_scene_bundle(d)
        assert str(exc.value).endswith(
            f"points_f000.bin: must be (N, 3) points, got shape {shape}")

    @pytest.mark.parametrize("shape", [(16,), (32, 8), (1, 32, 32, 8)])
    def test_feature_map_blob_of_another_rank(self, tmp_path, small_scene,
                                              shape):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        write_blob(d / "cam01_f003.bin", np.zeros(shape, dtype=np.float32))
        with pytest.raises(ShapeHeaderMismatch) as exc:
            read_scene_bundle(d)
        assert str(exc.value).endswith(
            f"cam01_f003.bin: must be an (H, W, D) feature map, got shape "
            f"{shape}")

    def test_camera_table_round_trip(self, tmp_path):
        # maps of different sizes and dtypes: one float64 table, each map
        # written back from its slice
        rng = np.random.default_rng(2)
        maps = [rng.normal(size=(3, 5, 4)).astype(np.float32),
                rng.normal(size=(2, 2, 4)), rng.normal(size=(4, 1, 4))]
        bundle = camera_bundle(
            maps, camera_id=[0, 1, 0], frame_index=[0, 0, 1],
            intrinsics=[[1.0, 2.0, 3.0, 4.0]] * 3,
            translation=rng.normal(size=(3, 3)), valid=[True, False, True],
            points=rng.normal(size=(6, 3)), frame_size=[3, 3])
        d1, d2 = tmp_path / "one", tmp_path / "two"
        write_scene_bundle(d1, bundle)
        assert read_blob(d1 / "cam01_f000.bin").dtype == np.float64
        back = read_scene_bundle(d1, PipelineConfig(T=2, D=4))
        assert back.pixel_features.dtype == np.float64
        np.testing.assert_array_equal(back.pixel_features,
                                      bundle.pixel_features)
        for key in ("camera_id", "camera_frame", "camera_intrinsics",
                    "camera_rotation", "camera_translation", "camera_valid",
                    "camera_size"):
            np.testing.assert_array_equal(getattr(back, key),
                                          getattr(bundle, key))
        for c, fm in enumerate(maps):
            np.testing.assert_array_equal(back.feature_map(c), fm)
        write_scene_bundle(d2, back)
        assert dir_bytes(d1) == dir_bytes(d2)

    def test_maps_of_mixed_dtypes_read_into_one_table(self, tmp_path):
        # a float32 map on disk beside float64 ones is cast into its rows
        rng = np.random.default_rng(3)
        maps = [rng.normal(size=(2, 3, 4)), rng.normal(size=(1, 2, 4))]
        bundle = camera_bundle(maps, points=rng.normal(size=(3, 3)),
                               frame_size=[3])
        d = tmp_path / "scene"
        write_scene_bundle(d, bundle)
        write_blob(d / "cam00_f000.bin", maps[0].astype(np.float32))
        back = read_scene_bundle(d)
        assert back.pixel_features.dtype == np.float64
        np.testing.assert_array_equal(back.feature_map(0),
                                      maps[0].astype(np.float32))
        np.testing.assert_array_equal(back.feature_map(1), maps[1])

    def test_feature_maps_of_different_D(self, tmp_path, small_scene):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        write_blob(d / "cam01_f003.bin", np.zeros((32, 32, 5), np.float32))
        with pytest.raises(ShapeHeaderMismatch) as exc:
            read_scene_bundle(d)
        assert str(exc.value).endswith(
            "cam01_f003.bin: feature map has D=5, but "
            f"{d / 'cam00_f000.bin'} has D=8; the maps must share one D")

    def test_feature_map_header_checked_against_file_size(self, tmp_path,
                                                          small_scene):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        blob = d / "cam00_f002.bin"
        blob.write_bytes(blob.read_bytes() + b"\0" * 4)
        with pytest.raises(ShapeHeaderMismatch, match="payload bytes"):
            read_scene_bundle(d)

    @pytest.mark.parametrize("indices, pos, index", [
        ([0, 2, 3, 4, 5], 1, 2), ([0, 0, 2, 3, 4], 1, 0),
        ([4, 3, 2, 1, 1], 0, 1)])
    def test_frame_index_gap_or_repeat(self, tmp_path, small_scene,
                                       small_config, indices, pos, index):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        for entry, frame_index in enumerate(indices):
            set_manifest_field(d, "frames", "frame_index", frame_index, entry)
        message = (f"frame at position {pos} has frame_index {index}; "
                   "frames must be time-ordered 0..T-1")
        for config in (None, small_config):
            with pytest.raises(FrameCountMismatch) as exc:
                read_scene_bundle(d, config)
            assert str(exc.value) == message

    def test_frame_entries_read_in_frame_index_order(self, tmp_path,
                                                     small_scene):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        path = d / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["frames"].reverse()
        path.write_text(json.dumps(manifest))
        back = read_scene_bundle(d)
        np.testing.assert_array_equal(back.frame_size,
                                      small_scene.bundle.frame_size)
        np.testing.assert_array_equal(back.points, small_scene.bundle.points)

    def test_read_validates_with_config(self, tmp_path, small_scene,
                                        small_config):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        bundle = read_scene_bundle(d, small_config)
        assert bundle.frame_size.size == small_config.T

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestMissingEntry):
            read_scene_bundle(tmp_path / "nothing")

    @pytest.mark.parametrize("section, key, value", [
        ("agents", "heading", None),
        ("frames", "points", 5),
        ("frames", "frame_index", "x"),
        ("frames", "frame_index", True),
        ("cameras", "camera_id", 1.5),
        ("cameras", "feature_map", ["cam.bin"]),
        ("cameras", "rotation", "abc"),
        ("agents", "track_id", "1"),
        ("agents", "center", "abc"),
        ("cameras", "fx", "abc"),
        ("cameras", "fx", None),
        ("cameras", "valid", "no"),
        ("agents", "center", [1, 2]),
        ("cameras", "rotation", [[1.0]]),
        ("cameras", "translation", ["a", "b", "c"]),
        ("agents", "frame_index", 1.5),
        ("agents", "size", "abc"),
        ("agents", "label", 5),
    ])
    def test_wrong_typed_field_names_it(self, tmp_path, small_scene,
                                        section, key, value):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        set_manifest_field(d, section, key, value)
        with pytest.raises(BadManifestField,
                           match=f"field {key} must be .*, got "):
            read_scene_bundle(d)

    @pytest.mark.parametrize("key, value, message", [
        ("track_id", "1", 'field track_id must be int, got "1"'),
        ("frame_index", 1.5, "field frame_index must be int, got 1.5"),
        ("center", [1, 2], "field center must be float[3], got [1, 2]"),
        ("size", [1, 2, True],
         "field size must be float[3], got [1, 2, true]"),
        ("heading", None, "field heading must be float, got null"),
        ("label", 5, "field label must be str, got 5"),
    ])
    def test_wrong_typed_field_in_last_agent_entry(self, tmp_path,
                                                   small_scene, key, value,
                                                   message):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        set_manifest_field(d, "agents", key, value, entry=-1)
        with pytest.raises(BadManifestField) as exc:
            read_scene_bundle(d)
        assert str(exc.value) == f"agent entry: {message}"

    def test_missing_key_in_last_agent_entry(self, tmp_path, small_scene):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        manifest = json.loads((d / "manifest.json").read_text())
        del manifest["agents"][-1]["heading"]
        (d / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ManifestMissingEntry) as exc:
            read_scene_bundle(d)
        assert str(exc.value) == "agent entry: missing key 'heading'"

    @pytest.mark.parametrize("key, value", [
        ("track_id", 2**70), ("frame_index", -2**70),
        ("center", [10**400, 0, 0])])
    def test_out_of_range_agent_number(self, tmp_path, small_scene, key,
                                       value):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        set_manifest_field(d, "agents", key, value, entry=-1)
        with pytest.raises(BadManifestField, match="agent entry value out "
                                                   "of range"):
            read_scene_bundle(d)

    def test_integer_valued_numbers_written_back_as_floats(self, tmp_path,
                                                           small_scene):
        # A bundle whose first box has center (1, 2, 3) and heading 0 writes
        # them as 1.0, 2.0, 3.0 and 0.0; a manifest hand-edited to JSON
        # integers reads back to the same bundle, and so to the same bytes.
        box = small_scene.bundle.agent_box.copy()
        box[0, :3], box[0, 6] = (1, 2, 3), 0
        d1, d2 = tmp_path / "one", tmp_path / "two"
        write_scene_bundle(d1, dataclasses.replace(small_scene.bundle,
                                                   agent_box=box))
        written = dir_bytes(d1)
        assert b'"heading": 0.0' in written["manifest.json"]
        set_manifest_field(d1, "agents", "heading", 0)
        set_manifest_field(d1, "agents", "center", [1, 2, 3])
        assert b'"heading": 0,' in (d1 / "manifest.json").read_bytes()
        write_scene_bundle(d2, read_scene_bundle(d1))
        assert dir_bytes(d2) == written

    def test_absent_optional_fields_take_defaults(self, tmp_path,
                                                  small_scene):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        manifest = json.loads((d / "manifest.json").read_text())
        for key in ("fx", "fy", "cx", "cy", "valid"):
            del manifest["cameras"][0][key]
        del manifest["agents"][0]["label"]
        (d / "manifest.json").write_text(json.dumps(manifest))
        bundle = read_scene_bundle(d)
        assert bundle.camera_intrinsics[0].tolist() == [1.0, 1.0, 0.0, 0.0]
        assert bundle.camera_valid[0]
        assert bundle.agent_label[0] == ""

    def test_entry_that_is_not_an_object(self, tmp_path, small_scene):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        manifest = json.loads((d / "manifest.json").read_text())
        manifest["agents"][0] = 3
        (d / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BadManifestField, match="must be a JSON object"):
            read_scene_bundle(d)

    def test_manifest_referencing_absent_file(self, tmp_path, small_scene):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        victim = d / "points_f001.bin"
        victim.unlink()
        with pytest.raises(ManifestMissingEntry) as exc:
            read_scene_bundle(d)
        assert "points_f001.bin" in str(exc.value)

    @pytest.mark.parametrize("section, key", [("frames", "points"),
                                              ("cameras", "feature_map")])
    @pytest.mark.parametrize("where", ["parent", "absolute", "subdirectory"])
    def test_blob_name_outside_the_bundle_is_rejected(
            self, tmp_path, small_scene, section, key, where):
        a, b = tmp_path / "a", tmp_path / "b"
        write_scene_bundle(a, small_scene.bundle)
        write_scene_bundle(b, small_scene.bundle)
        name = json.loads((a / "manifest.json").read_text())[section][1][key]
        (a / "sub").mkdir()
        (a / "sub" / name).write_bytes((a / name).read_bytes())
        set_manifest_field(a, section, key, {
            "parent": f"../b/{name}", "absolute": str(b / name),
            "subdirectory": f"sub/{name}"}[where], entry=1)
        with pytest.raises(BadManifestField, match="file name in the bundle"):
            read_scene_bundle(a)

    @pytest.mark.parametrize("name", ["sub", "..", ""])
    def test_blob_name_of_a_directory_is_missing(self, tmp_path, small_scene,
                                                 name):
        d = tmp_path / "scene"
        write_scene_bundle(d, small_scene.bundle)
        (d / "sub").mkdir()
        set_manifest_field(d, "frames", "points", name, entry=1)
        with pytest.raises(ManifestMissingEntry, match="not a regular file"):
            read_scene_bundle(d)


def small_tokens(n_elem=3, T=2, D=4):
    rng = np.random.default_rng(1)
    kinds = ["agent", "open-set", "ground"]
    elements = [SceneElement(token_id=i, kind=kinds[i % 3],
                             boxes=rng.normal(size=(T, 7)),
                             frame_valid=rng.random(T) > 0.5,
                             source_id=i * 10)
                for i in range(n_elem)]
    return SceneTokens(F_elem=rng.normal(size=(n_elem, D)),
                       kind=np.array([KIND_CODES[e.kind] for e in elements]),
                       source_id=np.array([e.source_id for e in elements]),
                       frame_valid=np.stack([e.frame_valid for e in elements]),
                       boxes=np.stack([e.boxes for e in elements]))


class TestTokensIO:
    def test_round_trip_equality(self, tmp_path):
        tokens = small_tokens()
        path = tmp_path / "t.tokens"
        write_tokens(path, tokens)
        back = read_tokens(path)
        np.testing.assert_array_equal(back.F_elem, tokens.F_elem)
        for column in ("kind", "source_id", "boxes", "frame_valid"):
            np.testing.assert_array_equal(getattr(back, column),
                                          getattr(tokens, column))

    def test_write_read_write_byte_identical(self, tmp_path):
        tokens = small_tokens()
        p1, p2 = tmp_path / "a", tmp_path / "b"
        write_tokens(p1, tokens)
        write_tokens(p2, read_tokens(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_token_file(self, tmp_path):
        tokens = SceneTokens(F_elem=np.zeros((0, 8)),
                             kind=np.empty(0, dtype=np.int64),
                             source_id=np.empty(0, dtype=np.int64),
                             frame_valid=np.zeros((0, 3), dtype=bool),
                             boxes=np.zeros((0, 3, 7)))
        path = tmp_path / "empty.tokens"
        write_tokens(path, tokens)
        back = read_tokens(path)
        assert back.F_elem.shape == (0, 8)
        assert back.kind.size == 0

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

    def test_non_utf8_tensor_name_is_storage_error(self, tmp_path, capsys):
        path = tmp_path / "t.tokens"
        write_tokens(path, small_tokens())
        data = bytearray(path.read_bytes())
        data[data.index(b"kind")] ^= 0xFF  # 'k' becomes a stray 0x94 byte
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError, match=r"t\.tokens.*not valid UTF-8"):
            read_tensor_file(path)
        assert cli_main(["inspect", "--tokens", str(path)]) == 2
        assert "not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("name, change", [
        ("kind", lambda a: a[:2]),
        ("boxes", lambda a: a[:2]),
        ("kind", lambda a: a[:, None]),
        ("f_elem", lambda a: a[:, 0]),
        ("token_id", lambda a: a[::-1]),
        ("token_id", lambda a: a[:, None]),
        ("kind", lambda a: a.astype(np.float32)),
        ("boxes", lambda a: a[:, :, :6]),
        ("frame_valid", lambda a: a[:, :1]),
        ("source_id", lambda a: a[:2]),
        ("f_elem", lambda a: a.astype(np.int32)),
        ("boxes", lambda a: a.astype(np.int64)),
    ], ids=["short_kind", "short_boxes", "2d_kind", "1d_f_elem",
            "token_id_order", "2d_token_id", "float_kind", "box_width",
            "frame_valid_T", "short_source_id", "int_f_elem", "int_boxes"])
    def test_malformed_table_is_storage_error(self, tmp_path, capsys, name,
                                              change):
        path = tmp_path / "t.tokens"
        write_tokens(path, small_tokens())
        raw = read_tensor_file(path)
        raw[name] = np.ascontiguousarray(change(raw[name]))
        write_tensor_file(path, raw)
        with pytest.raises(StorageError, match=rf"t\.tokens: tensor {name} "):
            read_tokens(path)
        assert cli_main(["inspect", "--tokens", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"tensor {name} must be" in err and "Traceback" not in err

    def test_absent_source_id_reads_as_minus_one(self, tmp_path):
        path = tmp_path / "t.tokens"
        write_tokens(path, small_tokens())
        raw = read_tensor_file(path)
        del raw["source_id"]
        write_tensor_file(path, raw)
        assert read_tokens(path).source_id.tolist() == [-1, -1, -1]

    def test_empty_array_with_oversized_shape_is_storage_error(self, tmp_path):
        path = tmp_path / "t.tokens"
        write_tokens(path, small_tokens())
        path.write_bytes(set_shape(path.read_bytes(), (3, 4), (0, 2**63)))
        with pytest.raises(ShapeHeaderMismatch, match="too large"):
            read_tensor_file(path)

    def test_overflowing_shape_is_storage_error(self, tmp_path, capsys):
        path = tmp_path / "t.tokens"
        tokens = small_tokens()
        write_tokens(path, tokens)
        shape = tokens.F_elem.shape
        path.write_bytes(set_shape(path.read_bytes(), shape, (2**62, 4)))
        with pytest.raises(ShapeHeaderMismatch, match=r"t\.tokens.*truncated"):
            read_tensor_file(path)
        assert cli_main(["inspect", "--tokens", str(path)]) == 2
        assert "truncated" in capsys.readouterr().err


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


    @pytest.mark.parametrize("name, change, message", [
        ("mlp_f.w1", lambda a: a[:, :2], "tensor mlp_f.w1 must be float32"),
        ("time.wq", lambda a: a.astype(np.float64),
         "tensor time.wq must be float32"),
        ("elem.bo", lambda a: a[None], "tensor elem.bo must be"),
        ("meta.n_heads", lambda a: a * 0, "meta.n_heads must be one positive"),
        ("meta.T", lambda a: -a, "meta.T must be one positive"),
        ("meta.hidden", lambda a: a.astype(np.float64),
         "meta.hidden must be one positive"),
        ("meta.D", lambda a: np.concatenate([a, a]),
         "meta.D must be one positive"),
        ("meta.n_heads", lambda a: a + 1, "not divisible by meta.n_heads=3"),
        ("meta.D", lambda a: a + 2**40, "tensor f_temporal must be"),
        ("meta.hidden", lambda a: a + 2**40, "tensor mlp_f.w2 must be"),
        ("f_temporal", lambda a: a.astype(np.int32),
         "f_temporal must be float32 or float64"),
    ], ids=["w1_shape", "wq_dtype", "bo_ndim", "zero_heads", "negative_T",
            "float_hidden", "two_D", "heads_divide_D", "huge_D",
            "huge_hidden", "int_f_temporal"])
    def test_tensor_off_template_is_storage_error(self, tmp_path, capsys,
                                                  name, change, message):
        path = tmp_path / "p.ckpt"
        write_fusion_params(path, init_fusion_params(
            T=3, D=8, hidden=6, n_heads=2, dtype=np.float32))
        raw = read_tensor_file(path, kind=KIND_PARAMS)
        raw[name] = np.ascontiguousarray(change(raw[name]))
        write_tensor_file(path, raw, kind=KIND_PARAMS)
        with pytest.raises(StorageError, match=message):
            read_fusion_params(path)
        assert cli_main(["tokenize", "--scene", str(tmp_path / "scene"),
                         "--out", str(tmp_path / "t.tokens"),
                         "--params", str(path)]) == 2
        err = capsys.readouterr().err
        assert message.split()[0] in err and "Traceback" not in err


@pytest.fixture(scope="module")
def reader_inputs(tmp_path_factory):
    """A valid token file and a valid float32 checkpoint to corrupt."""
    root = tmp_path_factory.mktemp("fuzz")
    write_tokens(root / "base.tokens", small_tokens())
    write_fusion_params(root / "base.ckpt", init_fusion_params(
        T=2, D=4, hidden=3, n_heads=2, dtype=np.float32))
    return root


_READERS = {"tokens": (read_tokens, KIND_TOKENS),
            "ckpt": (read_fusion_params, KIND_PARAMS)}


@settings(max_examples=200, deadline=None)
@given(suffix=hs.sampled_from(sorted(_READERS)),
       how=hs.sampled_from(["truncate", "flip", "swap"]), data=hs.data())
def test_readers_raise_only_scenetok_errors(reader_inputs, suffix, how, data):
    """Truncated, byte-flipped or tensor-swapped files end in a typed error
    (or read, when the corruption leaves a valid file)."""
    reader, kind = _READERS[suffix]
    base = reader_inputs / f"base.{suffix}"
    path = reader_inputs / f"case.{suffix}"
    if how == "swap":
        tensors = read_tensor_file(base, kind=kind)
        a, b = data.draw(hs.lists(hs.sampled_from(sorted(tensors)),
                                  min_size=2, max_size=2, unique=True))
        tensors[a], tensors[b] = tensors[b], tensors[a]
        write_tensor_file(path, tensors, kind=kind)
    else:
        path.write_bytes(corrupt_bytes(base.read_bytes(), how, data))
    try:
        reader(path)
    except SceneTokError:
        pass


def corrupt_bytes(raw: bytes, how: str, data) -> bytes:
    """``raw`` truncated, or with 1-4 bytes flipped."""
    if how == "truncate":
        return raw[:data.draw(hs.integers(0, len(raw) - 1))]
    flipped = bytearray(raw)
    for pos in data.draw(hs.lists(hs.integers(0, len(raw) - 1),
                                  min_size=1, max_size=4)):
        flipped[pos] ^= data.draw(hs.integers(1, 255))
    return bytes(flipped)


_JSON_VALUES = [None, True, 0, -1, 7, 1.5, "x", "", [], {}, [1, 2],
                [1.0, 2.0, 3.0], [[1.0, 0.0, 0.0]] * 3]


def swap_json_type(raw: bytes, section, data) -> bytes:
    """``raw`` JSON with one value of one object replaced by a value of
    another JSON type: a value of an entry of ``section``, or a top-level
    value when ``section`` is None."""
    doc = json.loads(raw)
    entry = doc if section is None else data.draw(hs.sampled_from(
        doc[section]))
    key = data.draw(hs.sampled_from(sorted(entry)))
    entry[key] = data.draw(hs.sampled_from(
        [v for v in _JSON_VALUES if type(v) is not type(entry[key])]))
    return json.dumps(doc, indent=2).encode()


@pytest.fixture(scope="module")
def bundle_inputs(tmp_path_factory):
    """A small valid scene bundle, blob and pipeline config to corrupt."""
    root = tmp_path_factory.mktemp("fuzz_bundle")
    spec = SceneSpec(n_agents=2, n_clutter=1, T=2, area_m=30.0, cameras=1,
                     D=4, ground_points_per_frame=30, agent_points=10,
                     clutter_points=10, feature_res=4)
    write_scene_bundle(root / "base", generate_scene(3, spec).bundle)
    write_blob(root / "base.bin", np.arange(12.0).reshape(4, 3))
    save_pipeline_config(root / "base.json", PipelineConfig(T=2, D=4))
    return root


def reshaped_blob(raw_path, data) -> np.ndarray:
    """The blob at ``raw_path`` with its payload in a drawn shape, of its
    own rank or another."""
    array = read_blob(raw_path)
    n = array.size
    shape = data.draw(hs.sampled_from(
        [array.shape, (n,), (1, *array.shape), (*array.shape, 1)]
        + [(n // k, k) for k in (1, 2, 3, 4) if n % k == 0]))
    return array.reshape(shape)


# Blob shapes the bundle reader must reject with ShapeHeaderMismatch.
_BAD_BLOB_SHAPE = {"points_f001.bin": lambda s: len(s) != 2 or s[1] != 3,
                   "cam00_f000.bin": lambda s: len(s) != 3}


@settings(max_examples=400, deadline=None)
@given(target=hs.sampled_from(["manifest.json", "points_f001.bin",
                               "cam00_f000.bin", "blob", "config"]),
       how=hs.sampled_from(["truncate", "flip", "swap", "reshape"]),
       data=hs.data())
def test_bundle_blob_and_config_readers_raise_only_scenetok_errors(
        bundle_inputs, target, how, data):
    """A truncated or byte-flipped bundle file, blob or config, a JSON
    value of another type in an agent entry or a config, or a blob whose
    payload has another shape, ends in a typed error (or reads, when the
    corruption leaves a valid input).  A bundle blob of the wrong rank or
    width always ends in ShapeHeaderMismatch."""
    root = bundle_inputs
    if target == "blob":
        base, path = root / "base.bin", root / "case.bin"
        read = read_blob
    elif target == "config":
        base, path = root / "base.json", root / "case.json"
        read = load_pipeline_config
    else:
        case = root / "case"
        shutil.copytree(root / "base", case, dirs_exist_ok=True)
        base, path = case / target, case / target

        def read(_):
            return read_scene_bundle(case, PipelineConfig(T=2, D=4))
    raw = base.read_bytes()
    if how in ("truncate", "flip"):
        path.write_bytes(corrupt_bytes(raw, how, data))
    elif how == "swap" and target in ("manifest.json", "config"):
        path.write_bytes(swap_json_type(
            raw, "agents" if target == "manifest.json" else None, data))
    elif how == "reshape" and base.suffix == ".bin":
        array = reshaped_blob(base, data)
        write_blob(path, array)
        if target in _BAD_BLOB_SHAPE and _BAD_BLOB_SHAPE[target](array.shape):
            with pytest.raises(ShapeHeaderMismatch):
                read(path)
            return
    else:
        path.write_bytes(raw)
    try:
        read(path)
    except SceneTokError:
        pass


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

    @pytest.mark.parametrize("raw, field", [
        ({"feature_interp": "nearest"}, "feature_interp"),
        ({"camera_overlap": "nearest"}, "camera_overlap"),
        ({"ransac": {"max_score_points": 50_000}}, "ransac.max_score_points"),
    ], ids=["feature_interp", "camera_overlap", "ransac.max_score_points"])
    def test_removed_field_rejected(self, tmp_path, raw, field):
        # older builds saved two pixel-sampling fields and the size of the
        # RANSAC scoring subsample
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(raw, T=5)))
        with pytest.raises(ValueError, match=f"unknown config field {field}"):
            load_pipeline_config(path)

    def test_unknown_nested_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"ransac": {"iterations": 9}}\n')  # typo
        with pytest.raises(ValueError):
            load_pipeline_config(path)

    @pytest.mark.parametrize("text, field", [
        ('{"T": "11"}', "T"),
        ('{"ransac": {"iters": null}}', "ransac.iters"),
        ('{"tile_size_m": true}', "tile_size_m"),
        ('{"T": 11.0}', "T"),
        ('{"cluster": {"radius_m": "0.5"}}', "cluster.radius_m"),
    ])
    def test_wrong_typed_value_rejected(self, tmp_path, text, field):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"config field {field} must be"):
            load_pipeline_config(path)

    @pytest.mark.parametrize("field, may_be_zero", [
        ("T", False), ("D", False), ("n_elem_agent", False),
        ("n_elem_openset", False), ("n_elem_ground", False),
        ("n_pts_ground", False), ("n_pts_agent", False),
        ("n_pts_openset", False), ("tile_size_m", False), ("seed", True),
        ("ransac.iters", False), ("ransac.inlier_threshold_m", False),
        ("cluster.radius_m", False), ("cluster.min_points", False),
        ("track.gate_m", False), ("track.dt_s", False),
        ("track.process_noise_vel", True),
        ("track.measurement_noise_pos", True), ("track.init_pos_var", True),
        ("track.init_vel_var", True)])
    def test_number_bounds(self, tmp_path, field, may_be_zero):
        # every number must be > 0, except those that may also be 0
        path = tmp_path / "cfg.json"
        section, _, key = field.rpartition(".")
        for value, ok in ((0, may_be_zero), (-1, False), (1, True)):
            path.write_text(json.dumps({section: {key: value}} if section
                                       else {key: value}))
            if ok:
                load_pipeline_config(path)
                continue
            bound = ">= 0" if may_be_zero else "> 0"
            with pytest.raises(InvalidInput,
                               match=f"^invalid config: {field} must be "
                                     f"{bound} and finite$"):
                load_pipeline_config(path)

    def test_int_accepted_for_float_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"tile_size_m": 5, "track": {"gate_m": 3}}')
        cfg = load_pipeline_config(path)
        assert cfg.tile_size_m == 5 and cfg.track.gate_m == 3

    @pytest.mark.parametrize("text", ['[1, 2]', '{"cluster": 4}'])
    def test_non_object_rejected(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="must be a JSON object"):
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
