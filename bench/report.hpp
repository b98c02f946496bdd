// Shared table-rendering helpers for the reproduction benches.  Every
// bench prints the paper's reported numbers next to the measured ones so
// the shape comparison (who wins, by what factor) is visible at a glance.
// Also hosts the interleaved steady-state timing harness; the
// JSON emitter the trajectory files use lives in serve/json.hpp (shared
// with the art9-serve HTTP front end) and is aliased back in below.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "serve/json.hpp"

namespace art9::bench {

inline void heading(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void rule() { std::printf("%s\n", std::string(72, '-').c_str()); }

/// "paper vs measured" row for a numeric metric.
inline void paper_row(const char* metric, double paper, double measured, const char* unit) {
  const double ratio = paper != 0.0 ? measured / paper : 0.0;
  std::printf("  %-34s paper %12.4g %-10s measured %12.4g  (x%.2f)\n", metric, paper, unit,
              measured, ratio);
}

inline void note(const std::string& text) { std::printf("  %s\n", text.c_str()); }

// --- steady-state timing ------------------------------------------------------

/// Interleaved steady-state timing.  After `warmup` untimed passes
/// (first-touch page faults, cache/branch-predictor warm-in), each of
/// `reps` timed passes runs every entry of `runs` once, starting one entry
/// later than the pass before, so a slow host phase falls on all entries
/// alike instead of on whichever one it happened to overlap.  Each entry
/// performs one complete run and returns its work-unit count (e.g. retired
/// instructions).  Returns units per second, `rates[entry][rep]`: samples
/// of one rep come from the same stretch of host time, so a ratio of two
/// entries is paired rep by rep.
template <typename Fn>
[[nodiscard]] std::vector<std::vector<double>> interleaved_rates(const std::vector<Fn>& runs,
                                                                 int warmup, int reps) {
  using clock = std::chrono::steady_clock;
  for (int i = 0; i < warmup; ++i) {
    for (const Fn& run : runs) static_cast<void>(run());
  }
  std::vector<std::vector<double>> rates(runs.size());
  for (std::vector<double>& samples : rates) samples.reserve(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const std::size_t entry = (k + static_cast<std::size_t>(rep)) % runs.size();
      const clock::time_point t0 = clock::now();
      const uint64_t units = runs[entry]();
      const std::chrono::duration<double> elapsed = clock::now() - t0;
      rates[entry].push_back(elapsed.count() > 0.0 ? static_cast<double>(units) / elapsed.count()
                                                   : 0.0);
    }
  }
  return rates;
}

/// Min / median / max of a sample set (odd sizes have an exact median).
struct Spread {
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
};

[[nodiscard]] inline Spread spread(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  return {samples.front(), samples[samples.size() / 2], samples.back()};
}

// --- machine-readable output ---------------------------------------------------

/// The flat JSON object writer (moved to serve/json.hpp; write(path)
/// renders the same bytes as it always did — locked by
/// tests/serve/json_test.cpp).
using JsonObject = ::art9::json::JsonObject;

}  // namespace art9::bench
