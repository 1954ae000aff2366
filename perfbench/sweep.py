#!/usr/bin/env python3
"""Run sets of benchmark runs and summarise them per workload.

usage: python3 perfbench/sweep.py [--seeds 0-9] [--sets 2] [--workloads a,b]
                                  [--trace 0|1] [--seconds S] [--baseline FILE]

Each run is `perfbench/run.py` in its own process.  Within a set the
workloads are interleaved (the order rotates with the seed) so host drift
spreads over all of them.  For every workload the sweep prints each metric by
name and unit with its median and quartiles; for the end-to-end metrics of
BENCHMARK.json it also prints the spread (quartile distance over median)
against the metric's bound and, with two or more sets, the shift of each
set's median from the first set's.  Quality numbers and fingerprints must be
identical across sets for the same seed.  Exits 1 when a run fails its
output check, a spread or shift exceeds its bound, or a fingerprint differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_one(workload, seed, seconds, trace) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    report = next(json.loads(ln[len("REPORT "):]) for ln in lines if ln.startswith("REPORT "))
    return json.loads(lines[-1]), report


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--baseline", help="write medians of every metric to this JSON file")
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    gated = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}

    # runs[set][workload] = list of (seed, result line, report)
    runs = [{w: [] for w in workloads} for _ in range(args.sets)]
    for s in range(args.sets):
        for i, seed in enumerate(args.seeds):
            k = i % len(workloads)
            for w in workloads[k:] + workloads[:k]:
                t0 = time.monotonic()
                line, report = run_one(w, seed, args.seconds, args.trace)
                runs[s][w].append((seed, line, report))
                print(f"set {s} seed {seed:3d} {w:16s} correct={line['correct']} "
                      f"passes={report['passes']} host.ref_ms="
                      f"{report['metrics']['host.ref_ms']['value']:.3f} "
                      f"run={time.monotonic() - t0:.1f}s", flush=True)

    ok = True
    baseline = {"seeds": args.seeds, "sets": args.sets, "seconds": args.seconds,
                "trace": args.trace, "workloads": {}}
    for w in workloads:
        print(f"\n== {w}")
        print(f"{'metric':34s} {'unit':6s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s} {'shift':>7s}")
        first = runs[0][w][0][2]
        names = dict(first["layers" if args.trace else "metrics"])
        for name in sorted(names):
            unit = gated[name]["unit"] if name in gated else (
                names[name]["unit"] if isinstance(names[name], dict) else "")
            meds, first_quartiles = [], None
            for s in range(args.sets):
                vals = []
                for _, _, rep in runs[s][w]:
                    src = rep["layers"] if args.trace else rep["metrics"]
                    if name in src:
                        v = src[name]
                        vals.append(v["value"] if isinstance(v, dict) else v)
                q1, med, q3 = quartiles(vals)
                meds.append(med)
                first_quartiles = first_quartiles or (q1, med, q3)
                spread = (q3 - q1) / med if med else 0.0
                shift = ""
                bound = ""
                if name in gated and "bound" in gated[name]:
                    b = gated[name]["bound"]
                    bound = f"{b:.2f}"
                    worse = (med - meds[0]) if gated[name]["better"] == "lower" else (meds[0] - med)
                    rel = worse / meds[0] if meds[0] else 0.0
                    if s > 0:
                        shift = f"{rel:+.3f}"
                        ok &= rel <= b
                    ok &= spread <= b
                print(f"{name:34s} {unit:6s} {s:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:7.3f} {bound:>6s} {shift:>7s}")
            q1, med, q3 = first_quartiles
            baseline["workloads"].setdefault(w, {})[name] = {
                "unit": unit, "median": med, "q1": q1, "q3": q3}
        failed = [(s, seed) for s in range(args.sets) for seed, line, _ in runs[s][w]
                  if not line["correct"]]
        if failed:
            ok = False
            print(f"runs failing their output check (set, seed): {failed}")
        for s in range(1, args.sets):
            for (seed, _, a), (_, _, b) in zip(runs[0][w], runs[s][w]):
                if a["quality"] != b["quality"] or a["fingerprint"] != b["fingerprint"]:
                    ok = False
                    print(f"seed {seed}: quality or fingerprint differs between set 0 and set {s}")
        baseline["workloads"][w]["fingerprint"] = dict(first["fingerprint"],
                                                       seed=runs[0][w][0][0])
        baseline["workloads"][w]["host"] = first["host"]
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=1, sort_keys=True)
            f.write("\n")
    print("\nsweep " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
