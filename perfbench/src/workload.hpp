// The serving benchmark's workloads: set-up, a closed-loop phase, a paced
// open-loop phase and (traced runs) a per-layer ledger, all driven through
// the public API of runtime::StreamServer and the layers under it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and sub-second phases: every workload and every check in
  /// a few seconds (the benchmark's own test).
  bool short_mode = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  /// Packets shed plus decisions the oracle rejected.
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Threads the run used at most (fingerprint).
  std::size_t threads = 1;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload; throws std::invalid_argument on an unknown name.
RunResult RunWorkload(const RunOptions& opts);

/// Serves a short stream, then alters one decision's predicted class and
/// returns true iff the oracle accepts the true stream and rejects exactly
/// the altered decision.
bool OracleRejectsAlteredDecision();

}  // namespace perfbench
