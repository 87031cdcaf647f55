#ifndef KBOOST_PERFBENCH_TRACE_H_
#define KBOOST_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer, recorded from the benchmark's side of the
/// layer boundary. `parent` indexes the enclosing span in the same Trace
/// (-1 for a root); spans of one wire request share `request`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
};

/// An in-memory span log plus exact counters. Disabled traces record
/// nothing, so the untraced run pays one branch per call site. Not
/// thread-safe: each client thread keeps its own and Merge()s it into the
/// workload's trace after joining.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  int32_t Begin(const char* name, int32_t parent = -1, uint64_t request = 0);
  /// Closes span `id` (no-op for -1).
  void End(int32_t id);
  /// Records `value` under counter `name` (last write wins).
  void Count(const std::string& name, double value);

  /// Appends `other`'s spans (re-parented) and counters.
  void Merge(const Trace& other);

  /// Durations in milliseconds of every closed span called `name`, in
  /// recording order.
  std::vector<double> DurationsMs(const std::string& name) const;
  const std::map<std::string, double>& counters() const { return counters_; }

  /// Writes the spans and counters as one JSON document: "names", then
  /// "spans" as rows [name index, start_ns, end_ns, parent, request] whose
  /// row number is the span id, then "counters". Returns false on an I/O
  /// error.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name, int32_t parent = -1,
             uint64_t request = 0)
      : trace_(trace), id_(trace->Begin(name, parent, request)) {}
  ~ScopedSpan() { trace_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  Trace* trace_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // KBOOST_PERFBENCH_TRACE_H_
