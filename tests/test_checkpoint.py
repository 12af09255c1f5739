"""Named-tensor container format."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from pilot import checkpoint
from pilot.checkpoint import MAGIC, ContainerError, load_tensors, save_tensors


class TestRoundTrip:
    def test_multiple_dtypes(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "f64": rng.standard_normal((3, 4)),
            "f32": rng.standard_normal((2, 2)).astype(np.float32),
            "i64": rng.integers(0, 100, 7),
            "u8": rng.integers(0, 255, (2, 3), dtype=np.uint8),
        }
        path = tmp_path / "mixed.ptc"
        save_tensors(path, tensors, {"note": "x"})
        loaded, meta = load_tensors(path)
        assert meta == {"note": "x"}
        for name, arr in tensors.items():
            np.testing.assert_array_equal(loaded[name], arr)
            assert loaded[name].dtype == arr.dtype

    def test_scalar_and_empty_tensors_keep_their_shape(self, tmp_path):
        tensors = {
            "scalar": np.array(3.0),
            "empty": np.zeros((0, 3)),
            "f_order": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        }
        path = tmp_path / "shapes.ptc"
        save_tensors(path, tensors)
        loaded, _ = load_tensors(path)
        for name, arr in tensors.items():
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()

    def test_empty_meta_default(self, tmp_path):
        path = tmp_path / "bare.ptc"
        save_tensors(path, {"a": np.ones(3)})
        _, meta = load_tensors(path)
        assert meta == {}

    def test_deterministic_bytes(self, tmp_path):
        tensors = {"b": np.arange(5.0), "a": np.ones((2, 2))}
        p1, p2 = tmp_path / "one.ptc", tmp_path / "two.ptc"
        save_tensors(p1, tensors, {"k": 1})
        save_tensors(p2, tensors, {"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_arrays_writable_copies(self, tmp_path):
        path = tmp_path / "w.ptc"
        save_tensors(path, {"a": np.zeros(4)})
        loaded, _ = load_tensors(path)
        loaded["a"][0] = 5.0          # must not raise


class TestMalformedInputs:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ptc"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ContainerError, match="magic"):
            load_tensors(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.ptc"
        path.write_bytes(MAGIC + struct.pack("<I", 1000) + b"{}")
        with pytest.raises(ContainerError, match="truncated header"):
            load_tensors(path)

    def test_truncated_payload_names_tensor(self, tmp_path):
        path = tmp_path / "cut.ptc"
        save_tensors(path, {"weights": np.ones(100)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-50])
        with pytest.raises(ContainerError, match="weights"):
            load_tensors(path)

    def test_version_field_mandatory(self, tmp_path):
        header = json.dumps({"meta": {}, "tensors": []}).encode()
        path = tmp_path / "nover.ptc"
        path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(ContainerError, match="version"):
            load_tensors(path)

    def test_wrong_version_rejected(self, tmp_path):
        header = json.dumps({"version": 99, "meta": {}, "tensors": []}).encode()
        path = tmp_path / "v99.ptc"
        path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(ContainerError, match="version"):
            load_tensors(path)


class TestAtomicWrite:
    def test_failed_write_keeps_old_file_and_leaves_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ptc"
        save_tensors(path, {"a": np.arange(10.0)}, {"v": 1})
        before = path.read_bytes()

        class DiskFull:
            """A file that takes the first two writes, then fails."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 2:
                    raise OSError(28, "No space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(checkpoint, "open", lambda *a: DiskFull(open(*a)), raising=False)
        with pytest.raises(OSError, match="space"):
            save_tensors(path, {"a": np.zeros(10), "b": np.ones(5)}, {"v": 2})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ptc"]

    def test_overwrite_leaves_only_the_new_file(self, tmp_path):
        path = tmp_path / "model.ptc"
        save_tensors(path, {"a": np.zeros(3)})
        save_tensors(path, {"a": np.ones(3)})
        np.testing.assert_array_equal(load_tensors(path)[0]["a"], np.ones(3))
        assert [p.name for p in tmp_path.iterdir()] == ["model.ptc"]


class TestSingleCopyLoad:
    def test_peak_memory_about_the_file_size(self, tmp_path):
        path = tmp_path / "big.ptc"
        save_tensors(path, {"w": np.ones((500, 1000)), "b": np.zeros(1000)})
        size = path.stat().st_size
        tracemalloc.start()
        try:
            tensors, _ = load_tensors(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * size            # reading plus a copy of every tensor is 2x
        np.testing.assert_array_equal(tensors["w"], np.ones((500, 1000)))

    @pytest.mark.parametrize("meta", [{}, {"k": "x"}, {"k": "xyz"}])
    def test_arrays_aligned_and_writeable_whatever_the_header_length(self, tmp_path, meta):
        path = tmp_path / "a.ptc"
        save_tensors(path, {"u8": np.arange(3, dtype=np.uint8), "f64": np.arange(4.0),
                            "i32": np.arange(5, dtype=np.int32)}, meta)
        tensors, _ = load_tensors(path)
        for arr in tensors.values():
            assert arr.flags.aligned and arr.flags.writeable
        tensors["f64"][0] = 7.0
        np.testing.assert_array_equal(tensors["f64"], [7.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(tensors["i32"], np.arange(5))
