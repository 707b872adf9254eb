#!/usr/bin/env python3
"""Compare BENCH_*.json artifacts against checked-in baselines.

Stdlib only (CI runners have bare python3). Two file shapes exist, both
produced by this repo's benches:

  * scenario files (bench_scenarios): carry `scenario`, `goodput_qps`,
    and an `slo` verdict. The SLO must hold unconditionally; goodput is
    compared against the baseline only when the candidate ran on the
    same number of cores the baseline recorded (see bucket_cores) --
    baselines generated on a 1-core dev box say nothing about the
    4-vCPU nightly runner's throughput, and vice versa.
  * sweep files (bench_serve_parallel): carry `bench` and a
    `speedup_*` key. Speedup is a ratio, but it still only means
    anything on matching hardware, so the same cores gate applies.

A candidate more than --max-regression below its comparable baseline
fails the run. A baseline with no candidate also fails: the matrix
shrank silently. So does a baseline whose headline metric key is absent
from (or renamed in) the candidate: a bench that silently stopped
reporting its metric would otherwise pass forever. A candidate with no
baseline is reported but passes (new scenarios land before their first
baseline).

Baselines live either flat in --baseline-dir (legacy) or bucketed under
cores-<N>/ subdirectories. N is the file's effective core count:
round(env.effective_cores) clamped to [1, env.cores] when the
effective-core probe (bench/workload/cores.h) recorded one, else
env.cores (nproc) for files that predate the probe. A 4-vCPU box that
delivers ~1 core therefore lands in cores-1/, not cores-4/. Lookup
prefers cores-<candidate cores>/<name> and falls back to the flat file;
the missing-candidate sweep only inspects the flat files plus the
subdirectories matching the cores the candidates actually ran on, so a
1-core dev baseline never fails a 4-vCPU nightly run.

Scenario runs also emit METRICS_<scenario>.json -- the server metrics
registry's dump, scraped through the api front door. When a baseline
metrics dump exists (same cores bucketing as BENCH files), every
histogram's p99 is diffed: a candidate p99 more than
--max-p99-regression above its baseline fails the run. Counters and
missing histograms are never compared (workloads legitimately reshape
them); only a latency distribution that got materially worse is a
regression. One counter-derived ratio IS gated: the cross-batch
plan-cache hit rate (hits/lookups) may not drop more than
--max-hit-rate-drop absolute points below the baseline's -- a plan-cache
keying bug regresses there first.

Promoting a baseline: download the BENCH json artifacts from a green
nightly run and feed them to bench/promote_baselines.py, which buckets
them into bench/baselines/cores-<N>/ with the same bucket_cores rule;
commit the result. The cores travel with each file, so future
comparisons stay apples to apples.
"""

import argparse
import json
import pathlib
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def bucket_cores(doc):
    """The cores-<N>/ bucket of a BENCH file: its effective core count.

    round(env.effective_cores) clamped to [1, env.cores] when the probe
    recorded it; env.cores as-is (None when absent) otherwise.
    """
    env = doc.get("env", {})
    cores = env.get("cores")
    effective = env.get("effective_cores")
    if isinstance(cores, int) and isinstance(effective, (int, float)):
        return min(max(round(effective), 1), cores)
    return cores


def metric_of(doc):
    """Returns (key, value) for the file's headline metric, or None."""
    if "goodput_qps" in doc:
        return ("goodput_qps", float(doc["goodput_qps"]))
    for key in ("speedup_4_vs_1", "speedup_top_vs_1",
                "speedup_simd_on_vs_off"):
        if key in doc:
            return (key, float(doc[key]))
    return None


def plan_hit_rate(dump):
    """Plan-cache hit rate from a metrics dump, or None below sample size.

    The cross-batch plan cache (serve/plan_cache.h) reports its
    lookups and hits as counters; a dump with too few lookups says
    nothing about steady-state hit rate, so it is skipped rather than
    compared against noise.
    """
    counters = dump.get("counters", {})
    lookups = float(counters.get("pmw_serve_cross_batch_lookups_total", 0))
    hits = float(counters.get("pmw_serve_cross_batch_hits_total", 0))
    if lookups < 50:
        return None
    return hits / lookups


def compare_metrics_dumps(baseline_dir, candidate_dir, cand_cores_by_name,
                          max_p99_regression, max_hit_rate_drop, failures):
    """Diffs histogram p99s and plan-cache hit rates between METRICS dumps.

    `cand_cores_by_name` maps scenario name -> the cores its BENCH file
    recorded, reusing the same cores-<N>/ baseline bucketing.

    The plan-cache floor: when baseline and candidate both saw enough
    plan lookups, the candidate's hit rate may not fall more than
    --max-hit-rate-drop absolute points below the baseline's. This is
    the plan-cache regression tripwire -- a keying bug shows up as
    warm-stream lookups that stop hitting long before it shows up in p99.
    """
    for path in sorted(candidate_dir.glob("METRICS_*.json")):
        scenario = path.stem[len("METRICS_"):]
        cores = cand_cores_by_name.get(scenario)
        base_path = baseline_dir / f"cores-{cores}" / path.name
        if not base_path.exists():
            base_path = baseline_dir / path.name
        if not base_path.exists():
            print(f"{path.name}: no baseline metrics dump -- skipping")
            continue
        try:
            cand_dump = load(path)
            base_dump = load(base_path)
        except (json.JSONDecodeError, OSError) as error:
            failures.append(f"{path.name}: unreadable metrics dump: {error}")
            continue
        cand_hists = cand_dump.get("histograms", {})
        base_hists = base_dump.get("histograms", {})

        base_rate = plan_hit_rate(base_dump)
        cand_rate = plan_hit_rate(cand_dump)
        if base_rate is not None and cand_rate is not None:
            floor = base_rate - max_hit_rate_drop
            verdict = "OK"
            if cand_rate < floor:
                verdict = "REGRESSION"
                failures.append(
                    f"{path.name}: plan-cache hit rate {cand_rate:.3f} is "
                    f"more than {max_hit_rate_drop:.2f} below baseline "
                    f"{base_rate:.3f}"
                )
            print(
                f"{path.name}: plan-cache hit rate candidate "
                f"{cand_rate:.3f} vs baseline {base_rate:.3f} ({verdict})"
            )
        for name, base_hist in sorted(base_hists.items()):
            cand_hist = cand_hists.get(name)
            if cand_hist is None:
                continue  # instruments may come and go with the workload
            base_p99 = float(base_hist.get("p99", 0.0))
            cand_p99 = float(cand_hist.get("p99", 0.0))
            if base_p99 <= 0.0:
                continue
            ceiling = base_p99 * (1.0 + max_p99_regression)
            verdict = "OK"
            if cand_p99 > ceiling:
                verdict = "REGRESSION"
                failures.append(
                    f"{path.name}: {name} p99 {cand_p99:.3f} is more than "
                    f"{max_p99_regression:.0%} above baseline {base_p99:.3f}"
                )
            print(
                f"{path.name}: {name} p99 candidate {cand_p99:.3f} vs "
                f"baseline {base_p99:.3f} ({verdict})"
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", required=True)
    parser.add_argument("--candidate-dir", required=True)
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.10,
        help="allowed fractional drop below baseline (default 0.10)",
    )
    parser.add_argument(
        "--max-p99-regression",
        type=float,
        default=0.50,
        help="allowed fractional rise of a metrics-dump histogram p99 "
        "above its baseline (default 0.50; latency tails are noisy)",
    )
    parser.add_argument(
        "--max-hit-rate-drop",
        type=float,
        default=0.10,
        help="allowed absolute drop of the plan-cache hit rate below its "
        "baseline (default 0.10; rates, unlike latencies, are stable)",
    )
    args = parser.parse_args()

    baseline_dir = pathlib.Path(args.baseline_dir)
    candidate_dir = pathlib.Path(args.candidate_dir)
    candidates = sorted(candidate_dir.glob("BENCH_*.json"))
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not candidates:
        print(f"FAIL: no BENCH_*.json files in {candidate_dir}")
        return 1

    failures = []
    cores_seen = set()
    cand_cores_by_name = {}
    for path in candidates:
        doc = load(path)
        name = path.name
        cand_cores = bucket_cores(doc)
        cores_seen.add(cand_cores)
        if "scenario" in doc:
            cand_cores_by_name[doc["scenario"]] = cand_cores

        slo = doc.get("slo")
        if slo is not None and not slo.get("ok", False):
            failures.append(
                f"{name}: SLO breach: {'; '.join(slo.get('violations', []))}"
            )
            continue

        base_path = baseline_dir / f"cores-{cand_cores}" / name
        if not base_path.exists():
            base_path = baseline_dir / name
        if not base_path.exists():
            print(f"{name}: no baseline yet -- skipping comparison")
            continue
        base = load(base_path)

        base_cores = bucket_cores(base)
        if base_cores != cand_cores:
            print(
                f"{name}: cores mismatch (baseline {base_cores}, "
                f"candidate {cand_cores}) -- throughput not comparable, "
                "skipping"
            )
            continue

        base_metric = metric_of(base)
        cand_metric = metric_of(doc)
        if base_metric is None:
            # A baseline without a headline metric constrains nothing;
            # once the candidate grows one, promote it as the baseline.
            print(f"{name}: baseline has no headline metric -- "
                  "skipping comparison")
            continue
        key, base_value = base_metric
        if cand_metric is None or cand_metric[0] != key:
            # Mirrors the missing-candidate rule: a baseline that stops
            # being comparable (metric dropped or renamed) must fail
            # loudly, not degrade into a silent skip.
            have = cand_metric[0] if cand_metric is not None else "none"
            failures.append(
                f"{name}: baseline metric {key} missing from candidate "
                f"(candidate has: {have}) -- bench output changed shape; "
                "fix the bench or promote a new baseline"
            )
            continue
        _, cand_value = cand_metric
        floor = base_value * (1.0 - args.max_regression)
        verdict = "OK"
        if cand_value < floor:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: {key} {cand_value:.1f} is more than "
                f"{args.max_regression:.0%} below baseline {base_value:.1f}"
            )
        elif base_value > 0 and cand_value > base_value * (
            1.0 + args.max_regression
        ):
            verdict = "OK (improved -- consider promoting the baseline)"
        print(
            f"{name}: {key} candidate {cand_value:.1f} vs baseline "
            f"{base_value:.1f} ({verdict})"
        )

    compare_metrics_dumps(baseline_dir, candidate_dir, cand_cores_by_name,
                          args.max_p99_regression, args.max_hit_rate_drop,
                          failures)

    candidate_names = {p.name for p in candidates}
    for cores in sorted(cores_seen, key=str):
        baselines += sorted(
            (baseline_dir / f"cores-{cores}").glob("BENCH_*.json")
        )
    for path in baselines:
        if path.name not in candidate_names:
            failures.append(
                f"{path.name}: baseline has no candidate -- scenario "
                "removed or not run"
            )

    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nPASS: all scenarios within SLO and regression bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
