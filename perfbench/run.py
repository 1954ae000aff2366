#!/usr/bin/env python3
"""One benchmark run of one objmap workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run maps the workload's sequence with `run_pipeline` in a closed loop
(one process, one sequence, the next frame is pulled only after the previous
one is done), repeating the whole sequence while the next pass still fits in
`--seconds`.  It then replays the final Gaussian store from fixed orbit views
with `render`, evaluates the map and checks every output.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and reports the per-layer metrics of the traced ones plus
the tracing overhead.  The full report (every metric, quality numbers,
fingerprints, host) is printed as a `REPORT {...}` line and saved under
`.perfbench_work/results/`; the last line of stdout is the JSON result
holding the metrics that BENCHMARK.json declares for the chosen mode.
"""

import os
import sys

# BLAS threads are pinned before numpy loads, so `workers` is the only
# parallelism in the mapped process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import ROOT, SRC, WORK, WORKLOADS, code_hash, dataset, frame_bytes  # noqa: E402

SETUP_PROBES = 15    # fresh-process set-ups per run, at least
SETUP_PER_PASS = 5   # taken before each pass, so they spread over the run
PROBE = os.path.join(HERE, "probe_setup.py")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Measurements


def setup_seconds(dataset_dir: str, probes: int) -> list[float]:
    """Fresh-process set-up: spawn to the first frame request, `probes` times."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, PROBE, SRC, dataset_dir],
                                stdout=subprocess.PIPE, env=os.environ.copy())
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(t1 - t0)
    return times


def ref_kernel_ms() -> float:
    """A fixed numpy kernel timed beside the workload to expose host drift."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((160, 160))
    v = rng.standard_normal(40_000)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        b = a
        for _ in range(4):
            b = np.tanh(b @ a)
        np.sort(v)
        samples.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(samples)


def clocked(frames, stamps: list):
    """Yield frames, stamping each request made at the iterator boundary."""
    while True:
        stamps.append(time.perf_counter())
        frame = next(frames, None)
        if frame is None:
            return
        yield frame


def timed_pass(dataset_dir, config):
    """Map the sequence once; returns (result, segment ms).

    The segments tile the wall time of `run_pipeline`: from the call to the
    first frame request, then one per frame (request to next request, the
    frame's latency), then from the last request to the return (the final
    quadric refinement).
    """
    import objmap.pipeline as pipeline

    stamps: list[float] = []
    load = pipeline.load
    pipeline.load = lambda d: clocked(load(d), stamps)
    try:
        t0 = time.perf_counter()
        result = pipeline.run_pipeline(dataset_dir, config)
        t1 = time.perf_counter()
    finally:
        pipeline.load = load
    stamps = [t0] + stamps + [t1]
    return result, [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]


def traced_pass(dataset_dir, config):
    from objmap.pipeline import run_pipeline

    tracer = Tracer()
    t0 = time.perf_counter()
    result = tracer.run(run_pipeline, dataset_dir, config)
    return result, time.perf_counter() - t0, tracer


def tail(samples, n_min: int | None = None):
    """(value, percentile, n): the highest percentile with >= 10 samples beyond.

    The percentile is fixed by `n_min`, the fewest samples a run can hold, so
    it does not move with the number of passes; larger runs only add samples.
    """
    xs = sorted(samples)
    n = len(xs)
    n_min = n_min or n
    if n_min < 20 or n < n_min:
        return None
    pct = 100.0 * (n_min - 10) / n_min
    k = max(0, -(-len(xs) * (n_min - 10) // n_min) - 1)  # nearest rank
    return xs[k], pct, n


def replay(workload, seed, store):
    """Render the final store from fixed orbit views; returns per-view ms."""
    from objmap.renderer import render

    spec = workload.scene(seed)
    spec.n_frames = workload.replay_views
    out = []
    for i in range(workload.replay_views):
        cam = spec.camera_at(i)
        t0 = time.perf_counter()
        render(store, cam)
        out.append(1e3 * (time.perf_counter() - t0))
    return out


# ---------------------------------------------------------------------------
# Output checks


def map_fingerprint(result) -> str:
    """SHA-256 of the final store arrays and the live tracks."""
    import numpy as np

    h = hashlib.sha256()
    s = result.store
    for name in ("means", "scales", "quats", "opacities", "colors", "object_ids", "kinds"):
        arr = np.ascontiguousarray(getattr(s, name))
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    for t in sorted(result.object_map.live_tracks(), key=lambda t: t.object_id):
        h.update(f"track:{t.object_id}:{t.class_id}:{t.status}".encode())
        if t.quadric is not None:
            for arr in (t.quadric.center, t.quadric.rotation, t.quadric.semi_axes):
                h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


def evaluate(workload, dataset_dir, result) -> dict:
    """Deterministic quality fields of one mapped sequence."""
    import numpy as np
    from objmap.gaussians import KIND_OPAQUE
    from objmap.pipeline import eval_pose, eval_recon
    from objmap.renderer import render
    from objmap.simulator import load, load_gt

    gt = load_gt(dataset_dir)
    report = eval_pose(result, gt, [f.camera for f in load(dataset_dir)])
    q = {
        "track_count": report.track_count,
        "gt_count": report.gt_count,
        "track_count_err": abs(report.track_count - report.gt_count),
        "mean_cde_cm": report.mean_cde_cm,
        "mean_iou_3d": report.mean_iou_3d,
        "mean_iou_2d": report.mean_iou_2d,
        "max_cde_cm": max((o.cde_cm for o in report.per_object if o.cde_cm is not None),
                          default=None),
        "min_iou_3d": min((o.iou_3d for o in report.per_object), default=None),
        "per_object": [
            [o.gt_id, o.track_id, o.iou_3d, o.iou_2d, o.cde_cm] for o in report.per_object
        ],
    }
    store = result.store
    if result.config.enable_gaussians and len(store):
        sel = (store.kinds == KIND_OPAQUE) & (store.object_ids > 0)
        gt_pts = np.vstack([gt["points"][k] for k in sorted(gt["points"])])
        acc, comp, ratio = eval_recon(store.means[sel], gt_pts, threshold_cm=5.0)
        q.update(recon_acc_cm=acc, recon_comp_cm=comp, recon_ratio_pct=ratio)
        maes = []
        for f in load(dataset_dir):
            out = render(store, f.camera, instance_ref=f.instance)
            fg = f.instance > 0
            maes.append(float(np.abs(out.color - f.rgb).mean(axis=2)[fg].mean()))
        q["masked_mae"] = float(np.mean(maes))
    return q


def gate_failures(gates: dict, q: dict) -> list[str]:
    out = []
    for key, bound in sorted(gates.items()):
        name, kind = key.rsplit("_", 1)
        value = q.get(name)
        if value is None:
            out.append(f"{name} missing")
        elif kind == "max" and not value <= bound:
            out.append(f"{name} {value:.4g} > {bound}")
        elif kind == "min" and not value >= bound:
            out.append(f"{name} {value:.4g} < {bound}")
    return out


def remembered(key: str, fingerprint: str | None = None) -> str | None:
    """Fingerprint stored for `key` by an earlier run; stores it if absent."""
    path = os.path.join(WORK, "fingerprints.json")
    known = {}
    if os.path.isfile(path):
        with open(path) as f:
            known = json.load(f)
    if key in known or fingerprint is None:
        return known.get(key)
    known[key] = fingerprint
    os.makedirs(WORK, exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return None


# ---------------------------------------------------------------------------


def declared_metrics(trace: int) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def host_info() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "machine": platform.machine(),
            "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def run(wl, seed: int, seconds: float, trace: int) -> dict:
    """Measure and check one workload; returns the full report."""
    ds, manifest = dataset(wl, seed)
    code = code_hash()
    config = wl.pipeline_config()

    setup, host_ms, passes, fingerprints = [], [], [], []
    traced_walls, layer_runs, tracer = [], [], None
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        setup += setup_seconds(ds, SETUP_PER_PASS)
        host_ms.append(ref_kernel_ms())
        result, segments = timed_pass(ds, config)
        passes.append(segments)
        fingerprints.append(map_fingerprint(result))
        if trace:
            result, wall, tracer = traced_pass(ds, config)
            traced_walls.append(wall)
            fingerprints.append(map_fingerprint(result))
            layer_runs.append(layer_metrics(tracer.spans, config.workers))
        now = time.perf_counter()
        if len(passes) >= wl.min_passes and (now - t_start) + (now - t_pass) > seconds:
            break
    setup += setup_seconds(ds, SETUP_PROBES - len(setup))
    # the mapping passes' high-water mark, before replay, evaluation and the
    # workers comparison
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [1e-3 * sum(p) for p in passes]
    frame_ms = [ms for p in passes for ms in p[1:-1]]
    n_frames = len(passes[0]) - 2

    render_ms = replay(wl, seed, result.store) if wl.replay_views else []
    t0 = time.perf_counter()
    quality = evaluate(wl, ds, result)
    eval_ms = 1e3 * (time.perf_counter() - t0)

    # output checks: quality gates and determinism
    failures = gate_failures(wl.gates, quality)
    if len(set(fingerprints)) != 1:
        failures.append("map fingerprint differs between passes of one run")
    eval_fp = hashlib.sha256(json.dumps(quality, sort_keys=True).encode()).hexdigest()
    fp = {"map": fingerprints[0], "eval": eval_fp}
    key = f"{wl.name}|seed={seed}|code={code[:16]}"
    for kind, value in fp.items():
        earlier = remembered(f"{key}|{kind}", value)
        if earlier is not None and earlier != value:
            failures.append(f"{kind} fingerprint differs from an earlier run of the same code")
    if wl.compare_workers:
        # the map depends only on the frames, so one comparison serves every seed
        wkey = (f"{wl.name}|frames={manifest['frames_sha256'][:16]}|code={code[:16]}"
                f"|map|workers={wl.compare_workers}")
        other = remembered(wkey)
        if other is None:
            other_result, _ = timed_pass(ds, wl.pipeline_config(workers=wl.compare_workers))
            other = map_fingerprint(other_result)
            remembered(wkey, other)
        fp[f"map_workers{wl.compare_workers}"] = other
        if other != fp["map"]:
            failures.append(f"workers={config.workers} and workers={wl.compare_workers} "
                            "maps differ")

    attempted = len(frame_ms) + len(render_ms)
    failed = attempted if failures else 0

    m = {
        "setup_s": (statistics.median(setup), "s"),
        "frames_per_s": (statistics.median(n_frames / w for w in walls), "1/s"),
        "frame_ms_p50": (statistics.median(frame_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_rate": (failed / attempted, "ratio"),
        "host.ref_ms": (statistics.median(host_ms), "ms"),
    }
    ft = tail(frame_ms, n_frames * wl.min_passes)
    if ft:
        m["frame_ms_tail"] = (ft[0], "ms")
    if render_ms:
        m["render_ms_p50"] = (statistics.median(render_ms), "ms")
        rt = tail(render_ms)
        if rt:
            m["render_ms_tail"] = (rt[0], "ms")
    for name, unit in (("track_count_err", "count"), ("mean_cde_cm", "cm"),
                       ("mean_iou_3d", "ratio"), ("recon_acc_cm", "cm"),
                       ("recon_comp_cm", "cm"), ("recon_ratio_pct", "%"),
                       ("masked_mae", "ratio")):
        if name in quality:
            m[name] = (quality[name], unit)

    if trace:
        layers = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        spawned = layers["association.spawned"]
        layers.update({
            "simulator.load.mb": frame_bytes(ds) / 1e6,
            "simulator.generate.s": manifest["generate_s"],
            "association.churn": spawned - len(result.object_map),
            "gaussians.store_final": len(result.store),
            "pipeline.eval.ms": eval_ms,
            "host.ref_ms": statistics.median(host_ms),
            "trace.overhead_pct": 100.0 * (statistics.median(traced_walls)
                                           / statistics.median(walls) - 1.0),
        })
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        tracer.write(os.path.join(WORK, "traces", f"{wl.name}-s{seed}.jsonl"))

    report = {
        "workload": wl.name, "seed": seed, "scene_seed": manifest["scene_seed"],
        "heldout_seed": wl.heldout_seed, "trace": trace, "seconds": seconds,
        "passes": len(walls), "frames_per_pass": n_frames, "workers": config.workers,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
        "frame_tail": {"pct": ft[1], "samples": ft[2]} if ft else None,
        "render_tail": ({"pct": rt[1], "samples": rt[2]} if render_ms and rt else None),
        "setup_samples_s": setup, "pass_walls_s": walls,
        "quality": quality, "fingerprint": fp, "failures": failures,
        "attempted": attempted, "failed": failed,
        "inputs": {"tree_sha256": manifest["tree_sha256"], "reused": manifest["reused"],
                   "generate_s": manifest["generate_s"]},
        "host": host_info(), "code_sha256": code,
    }
    if trace:
        report["layers"] = layers
        report["traced_walls_s"] = traced_walls
    return report


def result_line(report: dict, declared: dict[str, str]) -> dict:
    """The last stdout line: the BENCHMARK.json metrics of the report's mode."""
    source = report["layers"] if report["trace"] else {
        k: v["value"] for k, v in report["metrics"].items()}
    missing = sorted(set(declared) - set(source))
    if missing:
        raise KeyError(f"{report['workload']} does not measure {missing}")
    return {
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": source[k], "unit": declared[k]} for k in declared},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "objmap")):
        print(f"perfbench: no objmap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    declared = declared_metrics(args.trace)
    report = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    line = result_line(report, declared)

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results",
                        f"{report['workload']}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    for name in sorted(report["metrics"]):
        v = report["metrics"][name]
        print(f"{report['workload']:16s} {name:18s} {v['value']:14.6g} {v['unit']}")
    for failure in report["failures"]:
        print(f"{report['workload']:16s} CHECK FAILED: {failure}")
    print("REPORT " + json.dumps(report, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
