#ifndef KBOOST_PERFBENCH_WORKLOADS_H_
#define KBOOST_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/trace.h"

namespace perfbench {

/// Everything one run of one workload needs. The program under test only
/// ever sees inputs generated from `seed`.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Dataset scale of the flixster stand-in (0.02 gives n=1,920, m=9,680);
  /// the smoke test shrinks it.
  double scale = 0.02;
  /// Perturbs one reference answer by one ulp so the output gate must trip
  /// (the smoke test's negative control).
  bool plant_divergence = false;
  /// Build and solver worker count (nproc), pinned rather than defaulted.
  int threads = 1;
  std::string kboostd;  ///< path of the kboostd binary
  std::string workdir;  ///< scratch directory for graph and snapshot files
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run reports: the operation accounting the result line carries,
/// the metrics, and every output-gate violation seen.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> violations;

  bool correct() const { return violations.empty(); }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Violation(const std::string& what) { violations.push_back(what); }
  void Failure(uint64_t count = 1) { failed += count; }
};

/// Repeated from-scratch builds of a full and an LB pool, then repeated
/// snapshot save / owned load / mmap warm start. No queries.
Result RunBuild(const Config& config, Trace* trace);
/// kboostd (owned warm start) answering full sandwich queries on two
/// closed-loop connections.
Result RunSandwich(const Config& config, Trace* trace);
/// kboostd --mmap-pool answering LB-only queries on two closed-loop
/// connections while a third hot-swaps the pool at a fixed interval.
Result RunWireLb(const Config& config, Trace* trace);

}  // namespace perfbench

#endif  // KBOOST_PERFBENCH_WORKLOADS_H_
