"""Spans around the calls into each objmap layer, recorded from outside.

`Tracer.install()` swaps module attributes of `objmap.pipeline`,
`objmap.renderer` and `objmap.association` for wrappers that record one span
per call (name, start, end, parent, frame index, thread) plus a few counts
taken from the arguments and results.  Spans stay in memory; `write()` dumps
them as JSONL when the run ends.  `uninstall()` restores the originals.

Frame spans run from the request of one frame at the dataset iterator to the
request of the next, so they cover decoding plus all work on that frame.
Spans opened on pool threads are parented to the frame being mapped.
"""

from __future__ import annotations

import inspect
import json
import threading
import time

import numpy as np


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "frame", "thread", "attrs")

    def __init__(self, sid, name, start, parent, frame):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.frame = frame
        self.thread = threading.get_ident()
        self.attrs = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        d = {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
             "parent": self.parent, "frame": self.frame, "thread": self.thread}
        if self.attrs:
            d["attrs"] = self.attrs
        return d


# -- counts taken at each boundary from the call's named arguments ------------


def _assoc_attrs(a, res):
    return {"detections": len(a["frame"].detections), "matches": len(res.matches),
            "spawned": len(res.new_tracks), "merges": len(res.merges)}


def _quadric_attrs(a, res):
    return {"obs": len(a["observations"]), "iters": res.iterations,
            "accepted": bool(res.loss <= res.initial_loss)}


def _masks_attrs(a, res):
    return {"masked_px": sum(res.masked_counts())}


def _densify_attrs(a, res):
    return {"spawned": len(res)}


def _select_attrs(a, res):
    return {"selected": len(res), "object_gaussians":
            int(np.count_nonzero(a["store"].object_ids == a["object_id"]))}


def _optimize_attrs(a, res):
    trace = res or []
    steps = max(0, len(trace) - 1)
    rejected = sum(1 for i in range(steps) if trace[i + 1] == trace[i])
    return {"trained": len(a["trainable_idx"]), "steps": steps, "rejected": rejected}


def _store_size(a, res):
    return {"gaussians": len(a["store"])}


PATCHES = (
    # (module, attribute, span name, counts)
    ("objmap.pipeline", "associate_frame", "association", _assoc_attrs),
    ("objmap.pipeline", "optimize_quadric", "quadric_fit", _quadric_attrs),
    ("objmap.pipeline", "render", "renderer.render", _store_size),
    ("objmap.pipeline", "compute_update_masks", "gaussians.masks", _masks_attrs),
    ("objmap.pipeline", "densify_from_mask", "gaussians.densify", _densify_attrs),
    ("objmap.pipeline", "select_trainable", "gaussians.select", _select_attrs),
    ("objmap.renderer", "optimize_object", "renderer.optimize", _optimize_attrs),
    ("objmap.renderer", "loss_and_gradients", "renderer.eval", _store_size),
    ("objmap.renderer", "project_gaussian_subset", "renderer.project", None),
    ("objmap.association", "merge_occluded", "association.merge_occluded", None),
    ("objmap.association", "iou_3d", "quadrics.iou_3d", None),
    ("objmap.association", "quadric_distance", "quadrics.quadric_distance", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Span | None = None     # parent for spans on pool threads
        self._saved: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, frame=None, parent: Span | None = None) -> Span:
        st = self._stack()
        if parent is None:
            parent = st[-1] if st else self._root
        if frame is None and parent is not None:
            frame = parent.frame
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        sp = Span(sid, name, time.perf_counter(), parent.id if parent else None, frame)
        st.append(sp)
        return sp

    def close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        st = self._stack()
        if st and st[-1] is sp:
            st.pop()
        with self._lock:
            self.spans.append(sp)

    def _wrap(self, name, fn, attrs):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            sp = self.open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.close(sp)
            if attrs is not None:
                sp.attrs = attrs(signature.bind(*args, **kwargs).arguments, res)
            return res

        return traced

    def _frames(self, iterator, run: Span):
        """Yield frames, opening one root span per frame request."""
        current = None
        while True:
            if current is not None:
                self.close(current)
            current = self.open("frame", parent=run)
            self._root = current
            load = self.open("simulator.load")
            frame = next(iterator, None)
            self.close(load)
            if frame is None:
                # the request that finds no frame starts the final refinement
                current.name = current.frame = load.frame = "final"
                return
            current.frame = load.frame = frame.index
            yield frame

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        import importlib

        for mod_name, attr, name, counts in PATCHES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig, counts))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def run(self, run_pipeline, dataset_dir, config):
        """Call run_pipeline under a 'run' root span with traced frame loading."""
        import objmap.pipeline as pipeline

        load = pipeline.load
        run = self.open("run", frame="run")
        self._root = run
        pipeline.load = lambda d: self._frames(load(d), run)
        self.install()
        try:
            result = run_pipeline(dataset_dir, config)
        finally:
            self.uninstall()
            pipeline.load = load
            # close the 'final' span left open after the last frame
            st = self._stack()
            while len(st) > 1:
                self.close(st[-1])
            self.close(run)
            self._root = None
        return result

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for sp in sorted(self.spans, key=lambda s: s.id):
                f.write(json.dumps(sp.as_dict()) + "\n")


# ---------------------------------------------------------------------------
# Analysis


def _union(intervals) -> float:
    total, end = 0.0, -np.inf
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {sp.id: sp.dur - _union(children.get(sp.id, ())) for sp in spans}


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer times (ms) and counts of one traced pass."""
    by = {}
    for sp in spans:
        by.setdefault(sp.name, []).append(sp)
    selft = self_times(spans)

    def total_ms(name, pred=None):
        return 1e3 * sum(sp.dur for sp in by.get(name, ()) if pred is None or pred(sp))

    def attr_sum(name, key):
        return sum((sp.attrs or {}).get(key, 0) for sp in by.get(name, ()))

    def n(name):
        return len(by.get(name, ()))

    m: dict[str, float] = {}
    # simulator
    m["simulator.load.ms"] = total_ms("simulator.load")
    m["simulator.load.frames"] = len(by.get("frame", ()))
    # association (+ the quadrics calls it makes)
    dets = attr_sum("association", "detections")
    matches = attr_sum("association", "matches")
    m["association.ms"] = total_ms("association")
    m["association.calls"] = n("association")
    m["association.detections"] = dets
    m["association.matches"] = matches
    m["association.spawned"] = attr_sum("association", "spawned")
    m["association.merges"] = attr_sum("association", "merges")
    m["association.match_ratio"] = matches / dets if dets else 0.0
    m["association.merge_occluded.ms"] = total_ms("association.merge_occluded")
    m["quadrics.iou_3d.ms"] = total_ms("quadrics.iou_3d")
    m["quadrics.iou_3d.calls"] = n("quadrics.iou_3d")
    m["quadrics.quadric_distance.calls"] = n("quadrics.quadric_distance")
    # quadric_fit
    qf = [sp for sp in by.get("quadric_fit", ()) if sp.attrs]  # None: call raised
    m["quadric_fit.ms"] = total_ms("quadric_fit")
    m["quadric_fit.calls"] = n("quadric_fit")
    m["quadric_fit.obs"] = sum(sp.attrs["obs"] for sp in qf)
    m["quadric_fit.iters"] = sum(sp.attrs["iters"] for sp in qf)
    m["quadric_fit.obs_iters"] = sum(sp.attrs["obs"] * sp.attrs["iters"] for sp in qf)
    m["quadric_fit.accepted_ratio"] = (
        sum(sp.attrs["accepted"] for sp in qf) / len(qf) if qf else 0.0)
    m["quadric_fit.final.ms"] = total_ms("quadric_fit", lambda sp: sp.frame == "final")
    # gaussians
    selected = attr_sum("gaussians.select", "selected")
    obj_g = attr_sum("gaussians.select", "object_gaussians")
    m["gaussians.masks.ms"] = total_ms("gaussians.masks")
    m["gaussians.masked_px"] = attr_sum("gaussians.masks", "masked_px")
    m["gaussians.densify.ms"] = total_ms("gaussians.densify")
    m["gaussians.spawned"] = attr_sum("gaussians.densify", "spawned")
    m["gaussians.select.ms"] = total_ms("gaussians.select")
    m["gaussians.selected"] = selected
    m["gaussians.select_ratio"] = selected / obj_g if obj_g else 0.0
    # renderer
    evals = by.get("renderer.eval", ())
    opt = by.get("renderer.optimize", ())
    steps = attr_sum("renderer.optimize", "steps")
    rejected = attr_sum("renderer.optimize", "rejected")
    m["renderer.render.ms"] = total_ms("renderer.render")
    m["renderer.render.calls"] = n("renderer.render")
    m["renderer.optimize.ms"] = total_ms("renderer.optimize")
    m["renderer.optimize.calls"] = len(opt)
    m["renderer.evals"] = len(evals)
    m["renderer.eval.ms"] = total_ms("renderer.eval")
    m["renderer.eval_ms_p50"] = float(np.median([1e3 * sp.dur for sp in evals])) if evals else 0.0
    m["renderer.project.ms"] = total_ms("renderer.project")
    m["renderer.eval_self.ms"] = 1e3 * sum(selft[sp.id] for sp in evals)
    m["renderer.step.ms"] = 1e3 * sum(selft[sp.id] for sp in opt)
    m["renderer.gaussians_per_eval"] = (
        float(np.mean([sp.attrs["gaussians"] for sp in evals if sp.attrs])) if evals else 0.0)
    m["renderer.trained"] = attr_sum("renderer.optimize", "trained")
    m["renderer.steps"] = steps
    m["renderer.steps_rejected"] = rejected
    m["renderer.accept_ratio"] = (steps - rejected) / steps if steps else 0.0
    # pipeline: training pool use and frame time covered by no layer span
    sections: dict = {}
    for sp in opt:
        s = sections.setdefault(sp.frame, [sp.start, sp.end, []])
        s[0], s[1] = min(s[0], sp.start), max(s[1], sp.end)
        s[2].append(sp)
    wall = sum(e - s for s, e, _ in sections.values())
    busy = sum(sp.dur for sp in opt)
    m["pipeline.train_pool.busy_frac"] = busy / (workers * wall) if wall > 0 else 0.0
    m["pipeline.train_pool.wait_ms"] = 1e3 * sum(
        sp.start - s for s, _, jobs in sections.values() for sp in jobs)
    m["pipeline.other.ms"] = 1e3 * sum(selft[sp.id] for sp in by.get("frame", ()))
    m["trace.spans"] = len(spans)
    m["trace.self_sum_s"] = sum(selft.values())
    m["trace.wall_s"] = sum(sp.dur for sp in by.get("run", ()))
    return m
