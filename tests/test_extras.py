"""Supplementary coverage: PNG row filters and chunk checks, PLY vertex
counts and layouts, quadric-only association."""

import struct
import zlib

import numpy as np
import pytest

from objmap.association import ObjectMap, associate_frame
from objmap.config import PipelineConfig
from objmap.errors import DatasetError
from objmap.frames import Detection2D, FrameBundle
from objmap.plyio import read_point_ply, write_point_ply
from objmap.png import read_png, write_png
from objmap.quadrics import BBox2D, CameraModel, DualQuadric, conic_to_bbox, project_to_conic
from oracles import reference_unfilter


def camera_64():
    return CameraModel(fx=80.0, fy=80.0, cx=32.0, cy=32.0, width=64, height=64)


def png_chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


def filtered_stream(img: np.ndarray, filters) -> bytes:
    """The decompressed PNG stream of `img` (uint8 HxW or HxWx3, uint16 HxW)
    whose row r is filtered with filters[r]: 0 None, 1 Sub (against the
    pixel to the left), 2 Up (against the row above, zeros above row 0)."""
    h = img.shape[0]
    bpp = 3 if img.ndim == 3 else img.itemsize
    raw = img.astype(img.dtype.newbyteorder(">")).view(np.uint8).reshape(h, -1).astype(int)
    out = bytearray()
    prev = np.zeros(raw.shape[1], dtype=int)
    for row, ftype in zip(raw, filters):
        left = np.concatenate([np.zeros(bpp, dtype=int), row[:-bpp]])
        delta = {0: 0, 1: left, 2: prev}.get(int(ftype), 0)
        out.append(int(ftype))
        out += ((row - delta) % 256).astype(np.uint8).tobytes()
        prev = row
    return bytes(out)


def png_bytes(img: np.ndarray, stream: bytes, n_idat: int = 1) -> bytes:
    """A PNG of `img`'s size and format holding `stream`, its zlib data cut
    into n_idat IDAT chunks (some may be empty)."""
    h, w = img.shape[:2]
    color_type, bit_depth = (2, 8) if img.ndim == 3 else (0, 8 * img.itemsize)
    z = zlib.compress(stream)
    cuts = np.linspace(0, len(z), n_idat + 1).astype(int)
    return (b"\x89PNG\r\n\x1a\n"
            + png_chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, 0))
            + b"".join(png_chunk(b"IDAT", z[a:b]) for a, b in zip(cuts[:-1], cuts[1:]))
            + png_chunk(b"IEND", b""))


def random_image(rng, fmt: str, h: int, w: int) -> np.ndarray:
    if fmt == "gray16":
        return rng.integers(0, 65536, size=(h, w), dtype=np.uint16)
    return rng.integers(0, 256, size=(h, w, 3) if fmt == "rgb8" else (h, w), dtype=np.uint8)


class TestPngFilters:
    @pytest.mark.parametrize("ftype", [1, 2])
    def test_decoder_handles_filtered_rows(self, tmp_path, ftype):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(13, 17), dtype=np.uint8)
        path = tmp_path / "f.png"
        path.write_bytes(png_bytes(img, filtered_stream(img, [ftype] * 13)))
        assert np.array_equal(read_png(str(path)), img)

    @pytest.mark.parametrize("fmt", ["rgb8", "gray8", "gray16"])
    def test_mixed_filters_match_bytewise_reference(self, tmp_path, fmt):
        rng = np.random.default_rng(["rgb8", "gray8", "gray16"].index(fmt))
        path = tmp_path / "f.png"
        for trial in range(30):
            h, w = (int(v) for v in rng.integers(1, 14, 2))
            img = random_image(rng, fmt, h, w)
            filters = rng.integers(0, 3, h)
            filters[0] = trial % 3  # Up on row 0 reads a row of zeros
            stream = filtered_stream(img, filters)
            path.write_bytes(png_bytes(img, stream, n_idat=1 + trial % 4))
            got = read_png(str(path))
            ref = reference_unfilter(stream, h, w, 3 if fmt == "rgb8" else 1,
                                     16 if fmt == "gray16" else 8)
            assert got.dtype == ref.dtype == img.dtype and got.shape == img.shape
            assert np.array_equal(got, ref) and np.array_equal(got, img)
            assert got.flags.writeable and got.flags.c_contiguous

    @pytest.mark.parametrize("fmt", ["rgb8", "gray8", "gray16"])
    def test_many_idat_chunks(self, tmp_path, fmt):
        rng = np.random.default_rng(7)
        img = random_image(rng, fmt, 40, 30)
        stream = filtered_stream(img, rng.integers(0, 3, 40))
        path = tmp_path / "f.png"
        path.write_bytes(png_bytes(img, stream, n_idat=500))
        assert np.array_equal(read_png(str(path)), img)

    def test_unknown_row_filter_rejected(self, tmp_path):
        img = np.arange(20, dtype=np.uint8).reshape(4, 5)
        path = tmp_path / "f.png"
        path.write_bytes(png_bytes(img, filtered_stream(img, [0, 2, 4, 3])))
        with pytest.raises(DatasetError, match="f.png: unsupported PNG row filter 4"):
            read_png(str(path))

    def test_roundtrip_all_supported_formats(self, tmp_path):
        rng = np.random.default_rng(1)
        cases = [
            rng.integers(0, 256, size=(9, 11, 3), dtype=np.uint8),
            rng.integers(0, 256, size=(9, 11), dtype=np.uint8),
            rng.integers(0, 65536, size=(9, 11), dtype=np.uint16),
        ]
        for i, img in enumerate(cases):
            p = tmp_path / f"c{i}.png"
            write_png(str(p), img)
            assert np.array_equal(read_png(str(p)), img)


class TestPngChunks:
    def _png(self, tmp_path):
        path = tmp_path / "c.png"
        write_png(str(path), np.arange(12, dtype=np.uint8).reshape(3, 4))
        return path, bytearray(path.read_bytes())

    def test_crc_mismatch_rejected(self, tmp_path):
        path, blob = self._png(tmp_path)
        blob[8 + 8 + 13] ^= 0xFF  # first byte of the IHDR CRC
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetError, match="c.png.*CRC"):
            read_png(str(path))

    def test_short_ihdr_rejected(self, tmp_path):
        path, blob = self._png(tmp_path)
        payload = bytes(blob[16:21])
        short_ihdr = (struct.pack(">I", 5) + b"IHDR" + payload
                      + struct.pack(">I", zlib.crc32(b"IHDR" + payload)))
        path.write_bytes(bytes(blob[:8]) + short_ihdr + bytes(blob[8 + 25:]))
        with pytest.raises(DatasetError, match="c.png.*IHDR"):
            read_png(str(path))


class TestPlyVertexCount:
    @pytest.mark.parametrize("count", ["x", "-1"])
    def test_bad_count_rejected(self, tmp_path, count):
        path = tmp_path / "p.ply"
        write_point_ply(str(path), np.zeros((2, 3)))
        path.write_bytes(path.read_bytes().replace(
            b"element vertex 2\n", f"element vertex {count}\n".encode()))
        with pytest.raises(DatasetError, match="p.ply.*vertex count"):
            read_point_ply(str(path))


class TestPlyLayout:
    def test_float_xyz_normals_rejected(self, tmp_path):
        # 3 vertices of 6 floats: a 72-byte body, long enough for 3 records
        # of the writer's 23-byte layout, so only the header tells them apart.
        header = "ply\nformat binary_little_endian 1.0\nelement vertex 3\n" + "".join(
            f"property float {name}\n" for name in ("x", "y", "z", "nx", "ny", "nz")
        ) + "end_header\n"
        body = np.arange(18, dtype="<f4").tobytes()
        assert len(body) == 72
        path = tmp_path / "normals.ply"
        path.write_bytes(header.encode() + body)
        with pytest.raises(DatasetError, match="normals.ply.*layout"):
            read_point_ply(str(path))

    def test_reordered_properties_rejected(self, tmp_path):
        path = tmp_path / "swapped.ply"
        write_point_ply(str(path), np.zeros((2, 3)))
        blob = path.read_bytes().replace(
            b"property float opacity\nproperty int object_id\n",
            b"property int object_id\nproperty float opacity\n",
        )
        path.write_bytes(blob)
        with pytest.raises(DatasetError, match="swapped.ply.*layout"):
            read_point_ply(str(path))


class TestQdOnlyMode:
    def _frame(self, cam, dets, index=0):
        h, w = cam.height, cam.width
        depth = np.full((h, w), 4.0)
        return FrameBundle(rgb8=np.zeros((h, w, 3), np.uint8), depth=depth,
                           instance=np.zeros((h, w), dtype=np.int32),
                           camera=cam, detections=dets, index=index)

    def test_qd_mode_matches_without_overlap(self):
        # the projection drifted away (zero image overlap), but the
        # provisional quadric still agrees: quadric-only mode re-associates
        cam = camera_64()
        obj_map = ObjectMap()
        cfg = PipelineConfig(assoc_mode="qd", tau=0.25, qd_accept=0.2)
        q = DualQuadric([0.1, 0.1, 4.4], np.eye(3), [0.9, 0.9, 0.9])
        bbox = conic_to_bbox(project_to_conic(q, cam))
        det = Detection2D(bbox=bbox, class_id=3)
        associate_frame(obj_map, self._frame(cam, [det], 0), cfg)
        assert len(obj_map) == 1
        track = obj_map.live_tracks()[0]
        # shift the detection a full box away: no overlap with the first
        shift = bbox.width * 1.2
        far = Detection2D(
            bbox=BBox2D(bbox.x_min + shift, bbox.y_min, bbox.x_max + shift, bbox.y_max),
            class_id=3,
        )
        res = associate_frame(obj_map, self._frame(cam, [far], 1), cfg)
        assert res.matches == [(track.object_id, 0)]

    def test_iou_mode_spawns_for_same_case(self):
        cam = camera_64()
        obj_map = ObjectMap()
        cfg = PipelineConfig(assoc_mode="iou", iou_gate=0.3)
        q = DualQuadric([0.1, 0.1, 4.4], np.eye(3), [0.9, 0.9, 0.9])
        bbox = conic_to_bbox(project_to_conic(q, cam))
        det = Detection2D(bbox=bbox, class_id=3)
        associate_frame(obj_map, self._frame(cam, [det], 0), cfg)
        shift = bbox.width * 1.2
        far = Detection2D(
            bbox=BBox2D(bbox.x_min + shift, bbox.y_min, bbox.x_max + shift, bbox.y_max),
            class_id=3,
        )
        res = associate_frame(obj_map, self._frame(cam, [far], 1), cfg)
        assert res.matches == []
        assert res.new_tracks == [0]

