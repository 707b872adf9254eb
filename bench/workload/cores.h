// Effective-parallelism probe for the bench gates and the BENCH json
// `env` record.
//
// std::thread::hardware_concurrency() counts the vCPUs a box advertises;
// a shared or throttled VM can deliver far fewer, and a speedup gate
// that trusts the advertised count reports FAIL for hardware it never
// had. The probe times the same fixed integer spin on one thread and on
// four threads at once: four threads finishing in the one-thread time is
// four cores of real parallelism. Each width keeps its best of three
// timings (single shots read anywhere from 0.9 to 5.4 on one 4-vCPU box)
// and the ratio is clamped to [1, nproc].

#ifndef PMWCM_BENCH_WORKLOAD_CORES_H_
#define PMWCM_BENCH_WORKLOAD_CORES_H_

namespace pmw {
namespace workload {

/// The measured parallelism in [1, hardware_concurrency()]. Probed once
/// per process (well under a second) and cached. `env.cores` keeps
/// recording hardware_concurrency(); baselines are bucketed by this
/// value, rounded and clamped to [1, env.cores].
double EffectiveCores();

/// A fresh probe, never cached. On a shared box the reading can flip
/// between ~1 and ~4 from one probe to the next, so a gate re-probes
/// right after its timed phase to check the phase had the cores too.
double MeasureEffectiveCores();

}  // namespace workload
}  // namespace pmw

#endif  // PMWCM_BENCH_WORKLOAD_CORES_H_
