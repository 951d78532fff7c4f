// The benchmark's three closed-loop workloads. Each one generates its
// data from the seed, computes reference results, sets up the system
// under test several times (timing each set-up), then measures a thread
// phase and a process phase of queries over a fixed plan deck. A traced
// run additionally times the public calls into each module and reads the
// stats structs those calls return.
#ifndef MJBENCH_WORKLOADS_H_
#define MJBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mjoin::bench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes and one set-up, for the self-test.
  bool smoke = false;
  /// AF_UNIX socket path for the serve workload.
  std::string socket_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Diagnostics (attempts per backend, host fingerprint, steal); never
  /// used to skip, repeat or weight a run.
  std::string diag_json;
};

std::vector<std::string> WorkloadNames();

/// Runs one workload end to end. The caller has checked the name.
RunReport RunWorkload(const RunOptions& options);

}  // namespace mjoin::bench

#endif  // MJBENCH_WORKLOADS_H_
