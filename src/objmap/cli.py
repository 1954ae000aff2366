"""Command-line interface.

Subcommands:
  simulate      generate a synthetic dataset from a scene preset
  run           run the mapping pipeline over a dataset, save final state
  eval-pose     pose metrics (3D/2D IoU, center distance) vs ground truth
  eval-recon    reconstruction metrics (accuracy / completion / ratio)
  export        per-object PLY point clouds plus a manifest
  render-frame  render the saved map at a dataset frame's camera as PNGs

Exit codes: 0 success, 1 I/O or dataset error, 2 configuration error,
3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields

import numpy as np

from .errors import DatasetError, InvalidParameterError, ObjmapError
from .gaussians import KIND_OPAQUE
from .pipeline import (
    PipelineConfig,
    check_threshold_cm,
    dataset_cameras,
    eval_pose,
    eval_recon,
    export_objects,
    load_state,
    run_pipeline,
    save_state,
)
from .renderer import dump_render_pngs, render
from .scenes import PRESETS, make_scene
from .simulator import _read_header, generate, load_gt

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLS[text.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(f"expected one of {'/'.join(_BOOLS)}, got {text!r}")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per PipelineConfig field, defaulting to 'leave unchanged'."""
    for f in fields(PipelineConfig):
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, bool):
            parser.add_argument(flag, type=_parse_bool, default=None, metavar="BOOL")
        elif isinstance(f.default, int):
            parser.add_argument(flag, type=int, default=None)
        elif isinstance(f.default, float):
            parser.add_argument(flag, type=float, default=None)
        else:
            parser.add_argument(flag, type=str, default=None)


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig.from_json(args.config) if args.config else PipelineConfig()
    for f in fields(PipelineConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(config, f.name, val)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="objmap", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--preset", choices=PRESETS, default="pose4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--out", required=True)

    # no abbreviations: a flag that is no config key (`--merge-d`) is refused,
    # not read as a field it prefixes (`--merge-duplicate-raw`)
    p = sub.add_parser("run", help="run the mapping pipeline", allow_abbrev=False)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-state", required=True)
    p.add_argument("--config", default=None, help="JSON config file")
    _add_config_flags(p)

    p = sub.add_parser("eval-pose", help="pose metrics vs ground truth")
    p.add_argument("--state", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", default=None, help="write JSON report here")

    p = sub.add_parser("eval-recon", help="reconstruction metrics vs ground truth")
    p.add_argument("--state", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--threshold-cm", type=float, default=5.0)
    p.add_argument("--out", default=None, help="write JSON report here")

    p = sub.add_parser("export", help="export per-object point clouds")
    p.add_argument("--state", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("render-frame", help="render the saved map at a frame")
    p.add_argument("--state", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    return parser


def _cmd_simulate(args) -> int:
    kw = {}
    if args.frames is not None:
        kw["n_frames"] = args.frames
    if args.width is not None:
        kw["width"] = args.width
    if args.height is not None:
        kw["height"] = args.height
    spec = make_scene(args.preset, seed=args.seed, **kw)
    out = generate(spec, args.out)
    print(f"wrote {spec.n_frames} frames, {len(spec.objects)} objects to {out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    result = run_pipeline(args.dataset, config)
    save_state(result, args.out_state)
    n_frames = len(result.logs)
    print(
        f"processed {n_frames} frames: {result.track_count()} tracks, "
        f"{len(result.store)} gaussians -> {args.out_state}"
    )
    return EXIT_OK


def _cmd_eval_pose(args) -> int:
    result = load_state(args.state)
    gt = load_gt(args.dataset)
    cams = dataset_cameras(args.dataset)
    report = eval_pose(result, gt, cams)
    print(report.table())
    if args.out:
        with open(args.out, "w") as f:
            json.dump(asdict(report), f, indent=1, sort_keys=True)
            f.write("\n")
    return EXIT_OK


def _cmd_eval_recon(args) -> int:
    check_threshold_cm(args.threshold_cm)  # also when no object is matched
    result = load_state(args.state)
    gt = load_gt(args.dataset)
    report = {"threshold_cm": args.threshold_cm, "objects": []}
    store = result.store
    # each GT object is scored on the Gaussians of the track that the pose
    # report matched to it by 3D IoU
    pose = eval_pose(result, gt, [])
    for entry in pose.per_object:
        if entry.track_id is None:
            report["objects"].append({"gt_id": entry.gt_id, "matched": False})
            continue
        sel = (store.object_ids == entry.track_id) & (store.kinds == KIND_OPAQUE)
        est = store.means[sel]
        gt_pts = gt["points"].get(entry.gt_id)
        if gt_pts is None or len(est) == 0:
            report["objects"].append({"gt_id": entry.gt_id, "matched": False})
            continue
        acc, comp, ratio = eval_recon(est, gt_pts, args.threshold_cm)
        report["objects"].append(
            {
                "gt_id": entry.gt_id,
                "track_id": entry.track_id,
                "matched": True,
                "accuracy_cm": acc,
                "completion_cm": comp,
                "completion_ratio_pct": ratio,
                "points": int(len(est)),
            }
        )
    matched = [o for o in report["objects"] if o.get("matched")]
    for o in matched:
        print(
            f"object {o['gt_id']}: acc {o['accuracy_cm']:.2f} cm, "
            f"comp {o['completion_cm']:.2f} cm, ratio {o['completion_ratio_pct']:.1f}% "
            f"({o['points']} points)"
        )
    if matched:
        print(
            "mean: acc %.2f cm, comp %.2f cm, ratio %.1f%%"
            % (
                float(np.mean([o["accuracy_cm"] for o in matched])),
                float(np.mean([o["completion_cm"] for o in matched])),
                float(np.mean([o["completion_ratio_pct"] for o in matched])),
            )
        )
    else:
        print("no matched objects to evaluate")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return EXIT_OK


def _cmd_export(args) -> int:
    result = load_state(args.state)
    manifest = export_objects(result, args.out)
    print(f"exported {len(manifest['objects'])} objects to {args.out}")
    return EXIT_OK


def _cmd_render_frame(args) -> int:
    result = load_state(args.state)
    _, cameras = _read_header(args.dataset)  # the camera only: no image is decoded
    if args.frame not in cameras:
        raise DatasetError(f"frame {args.frame} not found in {args.dataset}")
    out = render(result.store, cameras[args.frame])
    paths = dump_render_pngs(out, args.out_prefix)
    print("wrote " + ", ".join(paths))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "run": _cmd_run,
    "eval-pose": _cmd_eval_pose,
    "eval-recon": _cmd_eval_recon,
    "export": _cmd_export,
    "render-frame": _cmd_render_frame,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except InvalidParameterError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DatasetError, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except ObjmapError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as e:  # pragma: no cover - safety net
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
