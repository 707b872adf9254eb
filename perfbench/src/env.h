// The environment every benchmark output records: what the machine
// claims (nproc), what it delivers (a short calibrated probe), and how
// the program was built.

#ifndef PERFBENCH_ENV_H_
#define PERFBENCH_ENV_H_

#include <string>

namespace pmw {
namespace perfbench {

struct Environment {
  int nproc = 0;
  /// Effective parallelism: four threads spinning on a fixed amount of
  /// work each, against one thread doing the same work alone
  /// (4 * t_one / t_four). About 1 on a box that time-slices one core.
  double effective_cores = 0.0;
  /// AVX2 kernels compiled in and supported by the CPU / and in use.
  bool avx2_available = false;
  bool avx2_enabled = false;
  std::string build_type;
};

/// Takes about a quarter of a second.
Environment ProbeEnvironment();

}  // namespace perfbench
}  // namespace pmw

#endif  // PERFBENCH_ENV_H_
