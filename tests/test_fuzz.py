"""Reader fuzzing: mutated PNG and PLY files decode or raise DatasetError.

Each example starts from a valid file written by the package's own writer
and applies a few edits: flip one bit, truncate, or splice in a run of
arbitrary bytes.  Any other exception fails the test.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from objmap.errors import DatasetError
from objmap.plyio import read_point_ply, write_point_ply
from objmap.png import read_png, write_png

# (kind, position, bit, payload); positions past the end are clamped.
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["flip", "truncate", "splice"]),
        st.integers(0, 400),
        st.integers(0, 7),
        st.binary(min_size=1, max_size=16),
    ),
    min_size=1,
    max_size=4,
)

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def mutate(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for kind, pos, bit, payload in edits:
        pos = min(pos, len(out))
        if kind == "flip" and pos < len(out):
            out[pos] ^= 1 << bit
        elif kind == "truncate":
            del out[pos:]
        elif kind == "splice":
            out[pos:pos] = payload
    return bytes(out)


def assert_decodes_or_dataset_error(reader, path) -> None:
    try:
        reader(str(path))
    except DatasetError as exc:
        assert str(path) in str(exc)


@FUZZ
@given(edits=EDITS)
def test_mutated_png(tmp_path, edits):
    path = tmp_path / "f.png"
    write_png(str(path), np.arange(48, dtype=np.uint16).reshape(6, 8) * 997)
    path.write_bytes(mutate(path.read_bytes(), edits))
    assert_decodes_or_dataset_error(read_png, path)


@FUZZ
@given(edits=EDITS)
def test_mutated_ply(tmp_path, edits):
    path = tmp_path / "f.ply"
    write_point_ply(str(path), np.arange(12, dtype=np.float32).reshape(4, 3),
                    object_ids=np.arange(4))
    path.write_bytes(mutate(path.read_bytes(), edits))
    assert_decodes_or_dataset_error(read_point_ply, path)

