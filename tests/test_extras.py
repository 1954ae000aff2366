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


def camera_64():
    return CameraModel(fx=80.0, fy=80.0, cx=32.0, cy=32.0, width=64, height=64)


class TestPngFilters:
    def _encode_with_filter(self, img, ftype):
        """Hand-roll a PNG using Sub (1) or Up (2) row filters."""
        h, w = img.shape
        raw = img[:, :, None].astype(np.uint8)
        stride = w
        out = bytearray()
        prev = bytearray(stride)
        for r in range(h):
            row = bytearray(raw[r].tobytes())
            out.append(ftype)
            if ftype == 1:  # Sub: delta against previous pixel
                enc = bytearray(row)
                for i in range(stride - 1, 0, -1):
                    enc[i] = (row[i] - row[i - 1]) & 0xFF
                out += enc
            else:  # Up: delta against previous row
                enc = bytearray((row[i] - prev[i]) & 0xFF for i in range(stride))
                out += enc
            prev = row

        def chunk(tag, payload):
            return (struct.pack(">I", len(payload)) + tag + payload
                    + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))

        header = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
        return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", header)
                + chunk(b"IDAT", zlib.compress(bytes(out)))
                + chunk(b"IEND", b""))

    @pytest.mark.parametrize("ftype", [1, 2])
    def test_decoder_handles_filtered_rows(self, tmp_path, ftype):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(13, 17), dtype=np.uint8)
        path = tmp_path / "f.png"
        path.write_bytes(self._encode_with_filter(img, ftype))
        assert np.array_equal(read_png(str(path)), img)

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
        return FrameBundle(rgb=np.zeros((h, w, 3)), depth=depth,
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

