"""Reader fuzzing: mutated PNG and PLY files, saved states and dataset
headers and detections decode or raise DatasetError naming the file.

Each example starts from a valid file written by the package's own writer
and applies a few edits: flip one bit, truncate, or splice in a run of
arbitrary bytes.  Any other exception fails the test.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from objmap.association import ObjectMap
from objmap.errors import DatasetError
from objmap.gaussians import GaussianStore
from objmap.pipeline import PipelineConfig, PipelineResult, load_state, save_state
from objmap.plyio import read_point_ply, write_point_ply
from objmap.png import read_png, write_png
from objmap.quadrics import DualQuadric
from objmap.simulator import ObjectSpec, SceneSpec, generate, load


def edit_lists(max_pos: int):
    """Lists of (kind, position, bit, payload); positions past the end are clamped."""
    return st.lists(
        st.tuples(
            st.sampled_from(["flip", "truncate", "splice"]),
            st.integers(0, max_pos),
            st.integers(0, 7),
            st.binary(min_size=1, max_size=16),
        ),
        min_size=1,
        max_size=4,
    )


EDITS = edit_lists(400)

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


@pytest.fixture(scope="module")
def saved_state(tmp_path_factory):
    """state.json and gaussians.npz of a two-track map, as bytes."""
    obj_map = ObjectMap()
    for class_id in (3, 5):
        track = obj_map.new_track(class_id)
        track.quadric = DualQuadric([0.1 * class_id, 0, 1], np.eye(3), [0.2, 0.3, 0.25])
        track.status = "stable"
    rng = np.random.default_rng(0)
    store = GaussianStore(
        means=rng.normal(size=(3, 3)), scales=np.full((3, 3), 0.01),
        quats=np.tile([1.0, 0, 0, 0], (3, 1)), opacities=[0.9, 0.8, 0.2],
        colors=rng.random((3, 3)), object_ids=[1, 2, 0], kinds=[0, 0, 1],
    )
    out = tmp_path_factory.mktemp("state")
    save_state(PipelineResult(obj_map, store, [], PipelineConfig()), str(out))
    return {name: (out / name).read_bytes() for name in ("state.json", "gaussians.npz")}


@FUZZ
@given(edits=edit_lists(2000), name=st.sampled_from(["state.json", "gaussians.npz"]))
def test_mutated_state(tmp_path, saved_state, edits, name):
    for fn, blob in saved_state.items():
        (tmp_path / fn).write_bytes(mutate(blob, edits) if fn == name else blob)
    try:
        load_state(str(tmp_path))
    except DatasetError as exc:
        assert str(tmp_path / name) in str(exc)


@pytest.fixture(scope="module")
def dataset_files(tmp_path_factory):
    """Every file `load` reads of a two-frame 32x24 dataset, as bytes."""
    out = tmp_path_factory.mktemp("ds")
    generate(SceneSpec(objects=[ObjectSpec(class_id=1, shape="sphere", center=(0, 0, 0.5),
                                           semi_axes=(0.3, 0.3, 0.3))],
                       n_frames=2, width=32, height=24, fx=30.0, fy=30.0), str(out))
    names = ["intrinsics.json", "poses.txt"] + [
        f"{sub}/{i:06d}.{ext}" for i in range(2)
        for sub, ext in (("rgb", "png"), ("depth", "png"), ("instance", "png"),
                         ("detections", "json"))
    ]
    return {name: (out / name).read_bytes() for name in names}


@FUZZ
@given(edits=EDITS, name=st.sampled_from(
    ["intrinsics.json", "poses.txt", "detections/000001.json"]))
def test_mutated_dataset(tmp_path, dataset_files, edits, name):
    for sub in ("rgb", "depth", "instance", "detections"):
        (tmp_path / sub).mkdir(exist_ok=True)
    for fn, blob in dataset_files.items():
        (tmp_path / fn).write_bytes(mutate(blob, edits) if fn == name else blob)
    try:
        list(load(str(tmp_path)))
    except DatasetError as exc:
        assert str(tmp_path / name) in str(exc)
