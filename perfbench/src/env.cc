#include "env.h"

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/simd.h"

namespace pmw {
namespace perfbench {
namespace {

/// A dependent integer chain the compiler cannot fold or vectorize.
uint64_t Spin(uint64_t iterations) {
  uint64_t x = 0x2545f4914f6cdd1dULL;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double TimeThreads(int threads, uint64_t iterations) {
  std::vector<uint64_t> sink(static_cast<size_t>(threads));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&sink, t, iterations] {
      sink[static_cast<size_t>(t)] = Spin(iterations);
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  volatile uint64_t keep = 0;
  for (uint64_t v : sink) keep = keep + v;
  (void)keep;
  return seconds;
}

}  // namespace

Environment ProbeEnvironment() {
  Environment env;
  env.nproc = static_cast<int>(std::thread::hardware_concurrency());
  constexpr uint64_t kIterations = 20'000'000;
  const double one = TimeThreads(1, kIterations);
  const double four = TimeThreads(4, kIterations);
  env.effective_cores = four > 0.0 ? 4.0 * one / four : 0.0;
  env.avx2_available = simd::Available();
  env.avx2_enabled = simd::Enabled();
  env.build_type = PERFBENCH_BUILD_TYPE;
  return env;
}

}  // namespace perfbench
}  // namespace pmw
