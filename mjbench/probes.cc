#include "probes.h"

#include <dirent.h>
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace mjoin::bench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double RusageCpu(int who) {
  struct rusage ru {};
  getrusage(who, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// Reads the first whitespace-separated field of a one-line file.
bool ReadFirstField(const std::string& path, double* out) {
  std::ifstream in(path);
  return static_cast<bool>(in >> *out);
}

// VmHWM of a /proc/<pid>/status file in MB; 0 once the process is gone.
double PeakRssMb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double SelfCpuSeconds() { return RusageCpu(RUSAGE_SELF); }
double ChildrenCpuSeconds() { return RusageCpu(RUSAGE_CHILDREN); }
double ThreadCpuSeconds() { return RusageCpu(RUSAGE_THREAD); }

double ProcessCpuSeconds(pid_t pid) {
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = opendir(task_dir.c_str());
  if (dir == nullptr) return 0;
  double ns = 0;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    double run_ns = 0;
    if (ReadFirstField(task_dir + "/" + entry->d_name + "/schedstat",
                       &run_ns)) {
      ns += run_ns;
    }
  }
  closedir(dir);
  return ns * 1e-9;
}

double SelfPeakRssMb() { return PeakRssMb("/proc/self/status"); }

double ProcessPeakRssMb(pid_t pid) {
  return PeakRssMb("/proc/" + std::to_string(pid) + "/status");
}

double ChildrenPeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

void TrimHeap() { malloc_trim(0); }

CpuTimes ReadHostCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes t;
  if (label != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealFraction(const CpuTimes& from, const CpuTimes& to) {
  if (to.total <= from.total) return 0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

double Median(std::vector<double> values) { return Percentile(values, 50); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  if (p >= 100) return values.back();
  // Linear interpolation between closest ranks (the median of an even
  // count is the midpoint of the two middle values).
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + key + "\": ";
}

JsonObject& JsonObject::Number(const std::string& key, double value) {
  Key(key);
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::Integer(const std::string& key, uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::String(const std::string& key,
                               const std::string& value) {
  Key(key);
  body_ += "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') body_ += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) body_ += c;
  }
  body_ += "\"";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

}  // namespace mjoin::bench
