"""Minimal deterministic PNG encode/decode for the formats this package emits.

Supports exactly: 8-bit RGB (color channels), 8-bit grayscale, and 16-bit
grayscale (depth in millimeter-style integer units, instance ids).  Filter
type 0 on every row and a fixed zlib level keep output byte-stable, which the
dataset determinism guarantees rely on.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import DatasetError

_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def write_png(path, image: np.ndarray) -> None:
    """Write uint8 HxW / HxWx3 or uint16 HxW images."""
    img = np.asarray(image)
    if img.dtype == np.uint8 and img.ndim == 3 and img.shape[2] == 3:
        color_type, bit_depth = 2, 8
        raw = img
    elif img.dtype == np.uint8 and img.ndim == 2:
        color_type, bit_depth = 0, 8
        raw = img[:, :, None]
    elif img.dtype == np.uint16 and img.ndim == 2:
        color_type, bit_depth = 0, 16
        raw = img[:, :, None].astype(">u2")
    else:
        raise DatasetError(f"unsupported image dtype/shape: {img.dtype} {img.shape}")
    h, w = img.shape[:2]
    rows = raw.tobytes()
    stride = w * raw.shape[2] * (bit_depth // 8)
    filtered = bytearray()
    for r in range(h):
        filtered.append(0)  # filter type None
        filtered += rows[r * stride : (r + 1) * stride]
    header = struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, 0)
    data = (
        _SIGNATURE
        + _chunk(b"IHDR", header)
        + _chunk(b"IDAT", zlib.compress(bytes(filtered), 6))
        + _chunk(b"IEND", b"")
    )
    with open(path, "wb") as f:
        f.write(data)


def read_png(path) -> np.ndarray:
    """Read PNGs produced by write_png (also tolerates filtered rows)."""
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(_SIGNATURE):
        raise DatasetError(f"{path}: not a PNG file")
    pos = len(_SIGNATURE)
    idat = []
    header = None
    while pos + 8 <= len(blob):
        (length,) = struct.unpack(">I", blob[pos : pos + 4])
        tag = blob[pos + 4 : pos + 8]
        payload = blob[pos + 8 : pos + 8 + length]
        crc = blob[pos + 8 + length : pos + 12 + length]
        if len(payload) != length or len(crc) != 4:
            raise DatasetError(f"{path}: truncated chunk {tag!r}")
        if struct.unpack(">I", crc)[0] != zlib.crc32(payload, zlib.crc32(tag)):
            raise DatasetError(f"{path}: CRC mismatch in chunk {tag!r}")
        if tag == b"IHDR":
            if length != 13:
                raise DatasetError(f"{path}: IHDR chunk is {length} bytes, not 13")
            header = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
        pos += 12 + length
    if header is None:
        raise DatasetError(f"{path}: missing IHDR")
    w, h, bit_depth, color_type, _, _, interlace = header
    if interlace != 0:
        raise DatasetError(f"{path}: interlaced PNG not supported")
    if (color_type, bit_depth) not in ((2, 8), (0, 8), (0, 16)):
        raise DatasetError(
            f"{path}: unsupported PNG format (color {color_type}, depth {bit_depth})"
        )
    channels = 3 if color_type == 2 else 1
    bpp = channels * (bit_depth // 8)
    stride = w * bpp
    try:
        raw = zlib.decompress(b"".join(idat))
    except zlib.error as e:
        raise DatasetError(f"{path}: corrupt PNG data ({e})") from e
    if len(raw) != h * (stride + 1):
        raise DatasetError(f"{path}: truncated PNG pixel data")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(h, stride + 1)
    filters = rows[:, 0].copy()
    if (filters > 2).any():
        ftype = filters[np.argmax(filters > 2)]
        raise DatasetError(f"{path}: unsupported PNG row filter {ftype}")
    data = rows[:, 1:].copy()  # the one copy; filtered rows are rebuilt in it
    del raw, rows
    for r in np.flatnonzero(filters):  # in row order: Up reads the rebuilt row above
        if filters[r] == 1:  # Sub: a running sum over each byte lane of a pixel
            lanes = data[r].reshape(w, bpp)
            np.cumsum(lanes, axis=0, dtype=np.uint8, out=lanes)
        elif r > 0:  # Up; the row above row 0 is zeros
            data[r] += data[r - 1]
    if bit_depth == 16:
        return data.view(">u2").astype(np.uint16)
    return data.reshape(h, w, 3) if channels == 3 else data
