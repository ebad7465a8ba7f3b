// Helpers shared by the benchmark programs: a flat JSON object writer, wall
// and CPU clocks, the peak-RSS probe, and itemset-model equality.

#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/telemetry.h"
#include "itemsets/itemset_model.h"

namespace perfbench {

inline double NowSeconds() {
  return static_cast<double>(demon::telemetry::NowNanos()) * 1e-9;
}

/// CPU seconds a process spent in user mode (its own code) and in the
/// kernel on its behalf (system calls, page faults, file-system work).
struct CpuSeconds {
  double user = 0.0;
  double system = 0.0;

  CpuSeconds operator-(const CpuSeconds& earlier) const {
    return {user - earlier.user, system - earlier.system};
  }
};

/// CPU seconds of the whole process so far.
inline CpuSeconds ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

/// CPU seconds of process `pid` so far, its exited threads included
/// (clock-tick resolution); negative when /proc does not report it.
inline CpuSeconds ProcessCpuSeconds(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(stat, line);
  // Fields after the parenthesised command name start at field 3 (state);
  // utime and stime are fields 14 and 15.
  const size_t name_end = line.rfind(')');
  if (name_end == std::string::npos) return {-1.0, -1.0};
  std::istringstream fields(line.substr(name_end + 1));
  std::string field;
  for (int i = 3; i < 14 && fields >> field; ++i) {
  }
  unsigned long long utime = 0, stime = 0;
  if (!(fields >> utime >> stime)) return {-1.0, -1.0};
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return {static_cast<double>(utime) / tick, static_cast<double>(stime) / tick};
}

/// The `field` ("VmHWM:", "VmRSS:") line of process `pid`'s status ("self"
/// for this one) in MiB; negative when /proc does not report it.
inline double StatusMb(const std::string& pid, const std::string& field) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;
    }
  }
  return -1.0;
}

/// VmHWM (peak resident set) of process `pid` in MiB.
inline double PeakRssMb(const std::string& pid = "self") {
  return StatusMb(pid, "VmHWM:");
}

/// Heap bytes this process has allocated and not freed, in MiB: in-use
/// chunks of every malloc arena plus mmapped blocks. Unlike the resident
/// set it does not count free heap the allocator keeps or pages that
/// fragmentation pins, which vary with how threads interleave.
inline double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

/// VmRSS (current resident set) of process `pid` in MiB.
inline double RssMb(const std::string& pid = "self") {
  return StatusMb(pid, "VmRSS:");
}

/// Returns freed heap to the system and resets this process's VmHWM to its
/// current resident set, so that a later PeakRssMb() reads the peak of
/// what ran in between. False when the kernel refuses the reset.
inline bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

/// Seconds one benchmark-side span costs (two clock reads and a store),
/// measured on this host; the tracing overhead estimate multiplies it by
/// the number of spans a run records.
inline double SpanCostSeconds() {
  constexpr size_t kSamples = 200000;
  std::vector<std::pair<double, double>> spans;
  spans.reserve(kSamples);
  const double start = NowSeconds();
  for (size_t i = 0; i < kSamples; ++i) {
    const double t0 = NowSeconds();
    spans.emplace_back(t0, NowSeconds());
  }
  const double per_span = (NowSeconds() - start) / kSamples;
  return spans.back().second >= start ? per_span : 0.0;
}

/// Order-independent digest of a model: its transaction total plus every
/// tracked itemset with its count and flag. Equal models give equal
/// digests, so systems can be compared after they are destroyed.
inline uint64_t ModelDigest(const demon::ItemsetModel& model) {
  uint64_t sum = model.num_transactions() * 0x9E3779B97F4A7C15ULL;
  for (const auto& [itemset, entry] : model.entries()) {
    uint64_t h = 1469598103934665603ULL;  // FNV-1a over the entry
    auto mix = [&h](uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 1099511628211ULL;
      }
    };
    for (const demon::Item item : itemset) mix(item);
    mix(entry.count);
    mix(entry.frequent ? 1 : 0);
    sum += h ^ (h >> 29);
  }
  return sum ^ (static_cast<uint64_t>(model.entries().size()) << 1);
}

/// True when both models track the same itemsets with the same counts and
/// flags over the same number of transactions.
inline bool SameModel(const demon::ItemsetModel& a,
                      const demon::ItemsetModel& b) {
  if (a.num_transactions() != b.num_transactions() ||
      a.entries().size() != b.entries().size()) {
    return false;
  }
  for (const auto& [itemset, entry] : a.entries()) {
    const auto it = b.entries().find(itemset);
    if (it == b.entries().end() || it->second.count != entry.count ||
        it->second.frequent != entry.frequent) {
      return false;
    }
  }
  return true;
}

/// Builds one JSON object of scalars, number arrays, nested objects and
/// named check results. Keys are emitted in insertion order.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    return Raw(key, quoted + "\"");
  }
  JsonObject& Nums(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    char buf[64];
    for (size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", i > 0 ? "," : "", values[i]);
      out += buf;
    }
    return Raw(key, out + "]");
  }
  JsonObject& Obj(const std::string& key, const JsonObject& value) {
    return Raw(key, value.ToString());
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }

  std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + fields_[i].first + "\":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Named pass/fail results of the correctness gate. A check added more
/// than once (once per episode) passes only if every instance passed.
class Checks {
 public:
  void Add(const std::string& name, bool ok) {
    for (auto& [existing, passed] : results_) {
      if (existing == name) {
        passed = passed && ok;
        Report(name, ok);
        return;
      }
    }
    results_.emplace_back(name, ok);
    Report(name, ok);
  }
  bool all_ok() const {
    for (const auto& [name, passed] : results_) {
      if (!passed) return false;
    }
    return true;
  }
  JsonObject json() const {
    JsonObject out;
    for (const auto& [name, passed] : results_) out.Bool(name, passed);
    return out;
  }

 private:
  static void Report(const std::string& name, bool ok) {
    if (!ok) std::fprintf(stderr, "correctness check failed: %s\n", name.c_str());
  }

  std::vector<std::pair<std::string, bool>> results_;
};

/// Size of the file at `path` in bytes; 0 when it does not exist.
inline uint64_t FileSize(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

/// Writes `contents` to `path`; false on any I/O error.
inline bool WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
