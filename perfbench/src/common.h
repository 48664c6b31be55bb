/// \file common.h
/// \brief Shared helpers of the repository benchmark: monotonic time,
/// order statistics, the named-metric ledger, and digest folding.

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) / 1e9;
}

/// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
inline double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double idx = q * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return (*v)[lo] + frac * ((*v)[hi] - (*v)[lo]);
}

inline double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

inline double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;

inline uint64_t FoldFnv(uint64_t h, const std::string& text) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Every measured number of one run, by metric name, with its unit.
/// perfbench/run.py picks the end-to-end or per-layer subset that
/// BENCHMARK.json names.
class Ledger {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    entries_[name] = {value, unit};
  }
  const std::map<std::string, std::pair<double, std::string>>& entries()
      const {
    return entries_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> entries_;
};

}  // namespace perfbench
