// Measurements the benchmark takes from outside the engine: clocks, CPU
// time of this process and of its worker processes, resident-set
// high-water marks, host steal time, and the small statistics the
// metrics are summarized with. Nothing here calls into src/.
#ifndef MJBENCH_PROBES_H_
#define MJBENCH_PROBES_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace mjoin::bench {

/// Monotonic seconds.
double Now();

/// CPU seconds (user + sys) of this process's threads so far.
double SelfCpuSeconds();
/// CPU seconds of this process's reaped children so far.
double ChildrenCpuSeconds();
/// CPU seconds the calling thread has used so far.
double ThreadCpuSeconds();
/// CPU seconds of a live process, summed over its threads from
/// /proc/<pid>/task/*/schedstat (nanosecond resolution); 0 once it is gone.
double ProcessCpuSeconds(pid_t pid);

/// High-water RSS of this process in MB (VmHWM).
double SelfPeakRssMb();
/// High-water RSS of a live process in MB (VmHWM); 0 once it is gone.
double ProcessPeakRssMb(pid_t pid);
/// Largest high-water RSS among reaped children in MB (ru_maxrss).
double ChildrenPeakRssMb();
/// Resets this process's RSS high-water mark to its current RSS. Returns
/// false when the kernel refuses (the mark then covers everything so far).
bool ResetPeakRss();
/// Returns freed heap pages to the kernel, so memory the benchmark used
/// for its own bookkeeping stops counting as resident.
void TrimHeap();

/// Host-wide steal share of CPU time between two snapshots of /proc/stat.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadHostCpuTimes();
double StealFraction(const CpuTimes& from, const CpuTimes& to);

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);
/// Geometric mean of positive values; 0 when empty.
double GeoMean(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

/// Minimal JSON object writer for the result line: keys in insertion
/// order, numbers printed with every significant digit.
class JsonObject {
 public:
  JsonObject& Number(const std::string& key, double value);
  JsonObject& Integer(const std::string& key, uint64_t value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& String(const std::string& key, const std::string& value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

}  // namespace mjoin::bench

#endif  // MJBENCH_PROBES_H_
