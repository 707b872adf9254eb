#!/usr/bin/env python3
"""Promote BENCH_*.json artifacts into the checked-in baseline tree.

Stdlib only. Feed it the artifact directory downloaded from a green
nightly run (or a local --out-dir/--json-dir); each file is copied into
bench/baselines/cores-<N>/ where N is the file's effective core count
(check_regression.bucket_cores: round(env.effective_cores) clamped to
[1, env.cores], or env.cores for files that predate the probe), which is
the bucketing check_regression.py reads back. Files that carry
a failing `slo` verdict are refused -- a breached run must never become
the bar future runs are judged against -- unless --allow-slo-breach is
given (useful when promoting a deliberately loosened scenario).

Typical flow:

  mkdir -p /tmp/bench
  ./build/bench_scenarios --out-dir=/tmp/bench
  ./build/bench_serve_parallel --json-dir=/tmp/bench
  python3 bench/promote_baselines.py /tmp/bench
  git add bench/baselines && git commit
"""

import argparse
import json
import pathlib
import shutil
import sys

from check_regression import bucket_cores


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "source", nargs="+", help="directories holding BENCH_*.json files"
    )
    parser.add_argument(
        "--baseline-dir",
        default=str(pathlib.Path(__file__).resolve().parent / "baselines"),
        help="baseline tree to promote into (default: bench/baselines)",
    )
    parser.add_argument(
        "--allow-slo-breach",
        action="store_true",
        help="promote files even when their recorded SLO verdict failed",
    )
    args = parser.parse_args()

    baseline_dir = pathlib.Path(args.baseline_dir)
    promoted = 0
    errors = []
    for source in args.source:
        files = sorted(pathlib.Path(source).glob("BENCH_*.json"))
        if not files:
            errors.append(f"{source}: no BENCH_*.json files")
            continue
        for path in files:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            cores = doc.get("env", {}).get("cores")
            if not isinstance(cores, int) or cores < 1:
                errors.append(f"{path.name}: missing or bad env.cores")
                continue
            slo = doc.get("slo")
            if (
                slo is not None
                and not slo.get("ok", False)
                and not args.allow_slo_breach
            ):
                errors.append(
                    f"{path.name}: SLO verdict failed -- refusing to make "
                    "a breached run the baseline (--allow-slo-breach to "
                    "override)"
                )
                continue
            dest_dir = baseline_dir / f"cores-{bucket_cores(doc)}"
            dest_dir.mkdir(parents=True, exist_ok=True)
            dest = dest_dir / path.name
            shutil.copyfile(path, dest)
            print(f"promoted {path.name} -> {dest}")
            promoted += 1
            # The scenario's metrics dump (histogram p99 baselines) rides
            # along when present; it shares the BENCH file's cores bucket.
            scenario = doc.get("scenario")
            if scenario:
                metrics = path.parent / f"METRICS_{scenario}.json"
                if metrics.exists():
                    metrics_dest = dest_dir / metrics.name
                    shutil.copyfile(metrics, metrics_dest)
                    print(f"promoted {metrics.name} -> {metrics_dest}")
                    promoted += 1

    if errors:
        print("\nFAIL:")
        for error in errors:
            print(f"  {error}")
        return 1
    print(f"\npromoted {promoted} baseline file(s) into {baseline_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
