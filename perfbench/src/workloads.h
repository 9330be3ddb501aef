// The benchmark's three workloads (see README.md for why each exists).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed phase [s]. A workload always finishes its
  /// deterministic prefix, so a run may exceed this on a slow host.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Toy sizes for the self-test.
  bool toy = false;
  /// Scratch directory for evidence bundles (inside the checkout).
  std::string work_dir;
  /// Where the traced run writes its spans (empty = nowhere).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Sample count and tail percentile behind the value (0 = not a
  /// distribution statistic).
  std::size_t samples = 0;
  double percentile = 0.0;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed output check; empty = correct.
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  /// Deterministic digest lines: identical for the same seed on any host.
  std::vector<std::string> digest;
  /// Shard threads used by the workload (provenance).
  std::size_t threads = 1;
  /// Passes made over the timed inputs (stream: replays), provenance.
  std::size_t passes = 1;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload; throws on unknown names.
[[nodiscard]] Outcome run_workload(const Options& options);

}  // namespace perfbench
