// mjbench: one run of one benchmark workload.
//
//   mjbench --workload NAME --seed N --seconds S --trace 0|1
//           [--socket PATH] [--smoke]
//
// Prints diagnostics to stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics", "diag"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. run.py builds this binary and drives it.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "probes.h"
#include "workloads.h"

namespace mjoin::bench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "mjbench: %s\nusage: mjbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--socket PATH] [--smoke]\n",
               why);
  return 2;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

int Main(int argc, char** argv) {
  RunOptions opt;
  opt.socket_path = "mjbench.sock";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      opt.seed = n;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n > 0) {
      opt.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      opt.trace = value == "1";
    } else if (flag == "--socket") {
      opt.socket_path = value;
    } else {
      return Usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == opt.workload;
  if (!known) return Usage(("unknown workload '" + opt.workload + "'").c_str());

  const RunReport report = RunWorkload(opt);
  JsonObject metrics;
  for (const Metric& m : report.metrics) {
    metrics.Raw(m.name,
                JsonObject().Number("value", m.value).String("unit", m.unit)
                    .str());
  }
  JsonObject result;
  result.Bool("correct", report.correct)
      .Integer("attempted", report.attempted)
      .Integer("failed", report.failed)
      .Raw("metrics", metrics.str())
      .Raw("diag", report.diag_json);
  std::printf("%s\n", result.str().c_str());
  return 0;
}

}  // namespace
}  // namespace mjoin::bench

int main(int argc, char** argv) { return mjoin::bench::Main(argc, argv); }
