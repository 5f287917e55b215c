// Worker threads for the table-regeneration benches, from STT_BENCH_JOBS:
// unset, empty or 0 means the hardware concurrency; 1 reproduces the old
// serial run (values are identical either way, only wall time changes).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "util/strings.hpp"

namespace stt {

/// Throws std::invalid_argument naming STT_BENCH_JOBS and its value for
/// anything but an integer in [0, kMaxBenchJobs].
inline unsigned bench_jobs() {
  constexpr std::int64_t kMaxBenchJobs = 1024;
  const std::optional<std::int64_t> n = env_int("STT_BENCH_JOBS");
  if (n && *n > kMaxBenchJobs) {
    throw std::invalid_argument(
        "STT_BENCH_JOBS expects a thread count in [0, " +
        std::to_string(kMaxBenchJobs) + "], got '" + std::to_string(*n) +
        "'");
  }
  return n ? static_cast<unsigned>(*n) : 0;  // ThreadPool: 0 = hardware
}

}  // namespace stt
