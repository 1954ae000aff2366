"""Set-up probe run in a fresh interpreter by run.py.

Imports objmap the way a mapping run does, opens the dataset, and prints
"ready" at the moment the first frame would be requested.  The parent times
the interval from spawning this process to reading that line.

usage: probe_setup.py SRC_DIR DATASET_DIR
"""

import sys


def main() -> int:
    src, dataset_dir = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from objmap.pipeline import PipelineConfig, run_pipeline  # noqa: F401
    from objmap.simulator import load

    frames = load(dataset_dir)
    print("ready", flush=True)
    del frames
    return 0


if __name__ == "__main__":
    sys.exit(main())
