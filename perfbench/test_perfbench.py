"""Smoke test of the benchmark on shrunken copies of its workloads.

Run with `python3 -m pytest perfbench/test_perfbench.py -q` from the
repository root.  Each workload is mapped once at a small size, untraced and
traced; the test checks that every metric BENCHMARK.json declares is
reported, that the metrics named per workload appear where they apply, and
that span self times add up to the traced wall time.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS threads and puts src/ on the path)
from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

sys.path.insert(0, SRC)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

SMALL = {
    "assoc-ablation8": dict(scene_kw=dict(n_frames=12, width=100, height=75)),
    "recon-sphere12": dict(scene_kw=dict(n_frames=3, width=48, height=36), replay_views=24),
    "map-pose4": dict(scene_kw=dict(n_frames=4, width=64, height=48), replay_views=8),
}

with open(os.path.join(HERE, "layers.json")) as _f:
    LAYERS = json.load(_f)["layers"]


def small(name):
    return dataclasses.replace(WORKLOADS[name], name=name + "-smoke", gates={},
                               **SMALL[name])


@pytest.fixture(scope="module", params=sorted(SMALL))
def reports(request):
    wl = small(request.param)
    return wl, run.run(wl, seed=0, seconds=0.0, trace=0), run.run(wl, seed=0, seconds=0.0, trace=1)


def test_end_to_end_metrics_present(reports):
    wl, timed, _ = reports
    names = set(timed["metrics"])
    assert {m["name"] for m in SPEC["end_to_end"]} <= names
    assert {"frames_per_s", "frame_ms_p50", "error_rate", "host.ref_ms",
            "track_count_err", "mean_cde_cm", "mean_iou_3d"} <= names
    gaussians = wl.pipeline_config().enable_gaussians
    for name in ("recon_acc_cm", "recon_comp_cm", "recon_ratio_pct", "masked_mae"):
        assert (name in names) == gaussians
    assert ("render_ms_p50" in names) == (wl.replay_views > 0)
    assert ("render_ms_tail" in names) == (wl.replay_views >= 20)
    assert ("frame_ms_tail" in names) == (wl.min_passes * timed["frames_per_pass"] >= 20)
    assert timed["failures"] == [] and timed["failed"] == 0
    assert all(v["value"] > 0 for k, v in timed["metrics"].items()
               if k in {m["name"] for m in SPEC["end_to_end"]})
    line = run.result_line(timed, run.declared_metrics(0))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1


def test_per_layer_metrics_present(reports):
    wl, _, traced = reports
    layers = traced["layers"]
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert set(declared) <= set(layers)
    running = {"simulator", "association", "quadric_fit", "pipeline"}
    if wl.pipeline_config().enable_gaussians:
        running |= {"gaussians", "renderer"}
    for layer in running:
        key = next(n for n in declared if n.endswith(".ms")
                   and n.startswith(tuple(LAYERS[layer]["prefixes"])))
        assert layers[key] > 0, key
    if "renderer" not in running:
        assert layers["renderer.evals"] == 0 and layers["gaussians.store_final"] == 0
    assert "trace.overhead_pct" in layers
    line = run.result_line(traced, run.declared_metrics(1))
    assert line["correct"]


def test_declared_layer_metrics_belong_to_one_layer():
    for m in SPEC["per_layer"]:
        owners = [k for k, v in LAYERS.items() if m["name"].startswith(tuple(v["prefixes"]))]
        assert len(owners) == (m["name"] not in ("host.ref_ms", "trace.overhead_pct")), m


def test_self_times_sum_to_traced_wall(reports):
    wl, _, traced = reports
    layers = traced["layers"]
    wall, self_sum = layers["trace.wall_s"], layers["trace.self_sum_s"]
    overhead = abs(traced["traced_walls_s"][0] - traced["pass_walls_s"][0])
    workers = wl.pipeline_config().workers
    if workers == 1:
        assert abs(self_sum - wall) <= max(overhead, 1e-6)
    else:
        # pool threads add their overlapping self time on top of the wall
        assert wall - 1e-6 <= self_sum <= workers * wall + overhead


def test_tail_rule():
    assert run.tail(range(19)) is None
    value, pct, n = run.tail(range(48))
    assert (value, round(pct), n) == (37, 79, 48)
    assert run.tail(range(80))[1] == 87.5
    # more passes add samples but keep the percentile of the smallest run
    assert run.tail(range(90), n_min=60)[1:] == (100.0 * 50 / 60, 90)


def test_gate_failures():
    gates = {"track_count_err_max": 1, "recon_ratio_pct_min": 90.0}
    assert run.gate_failures(gates, {"track_count_err": 1, "recon_ratio_pct": 90.0}) == []
    assert len(run.gate_failures(gates, {"track_count_err": 2, "recon_ratio_pct": 89.0})) == 2
    assert run.gate_failures(gates, {"track_count_err": 0}) == ["recon_ratio_pct missing"]


def test_fails_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "map-pose4", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
