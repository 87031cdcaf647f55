#include "perfbench/workloads.h"

#include <fcntl.h>
#include <malloc.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/core/boost_session.h"
#include "src/expt/datasets.h"
#include "src/expt/seed_selection.h"
#include "src/graph/graph_io.h"
#include "src/io/pool_io.h"
#include "src/net/client.h"
#include "src/net/wire.h"
#include "src/serve/boost_service.h"
#include "src/sim/boost_model.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace perfbench {

namespace {

using kboost::BoostOptions;
using kboost::BoostResult;
using kboost::BoostSession;
using kboost::DirectedGraph;
using kboost::KboostClient;
using kboost::NodeId;
using kboost::SolveMode;
using kboost::WireQuery;
using kboost::WireQueryReply;

// The shared instance every workload runs on.
constexpr const char* kDataset = "flixster";
constexpr size_t kNumSeeds = 50;
constexpr size_t kMaxBudget = 100;
constexpr size_t kBudgets[] = {10, 25, 50, 100};
constexpr int kNumShards = 4;
// The paper's ε = 0.5 puts this instance's OPT_μ (≈48–53 over seeds) on the
// IMM schedule's level-6 threshold (1 + √2·ε)·n/64 = 51.2, so θ jumps
// between ≈158k and 253,511 from one workload seed to the next — a 1.6×
// cost cliff no bound could absorb. At ε = 0.7 the threshold is 59.7 and
// every seed stops at level 7 with the same θ = 139,211.
constexpr double kEpsilon = 0.7;
constexpr const char* kPoolName = "pool";
// Closed-loop query connections; wire-lb adds one admin connection.
constexpr int kClients = 2;
// A query workload's set-up is repeated this many times per run and
// reported as the median (build repeats its own in every cycle).
constexpr int kSetupReps = 3;
// Every workload measures every end-to-end metric. A run alternates rounds
// of build-side work with serving segments, so both kinds of sample spread
// over the whole run and a burst of host noise reaches only a few of them.
// The daemon idles during build-side work, and nothing builds while it
// serves. build's round is one build cycle and one 1 s segment; sandwich
// and wire-lb serve two 3 s segments and then run one build probe round.
// A segment holds well over 1,000 round trips (sandwich answers about 500
// a second), so at least ten lie beyond its p99.
struct Shape {
  int64_t segment_ns;
  int segments_per_round;
};
constexpr Shape kBuildShape{1'000'000'000, 1};
constexpr Shape kQueryShape{3'000'000'000, 2};
// A run has at least this many rounds; the traced run alternates untraced
// and traced ones.
constexpr int kMinRounds = 2;
// A build probe round of a query workload: this many warm starts of the
// served snapshot, then a full build and an LB build.
constexpr int kProbeWarmStarts = 25;
// The traced run's in-process replay lasts this share of the run.
constexpr double kReplayShare = 0.1;
// Every serving segment hot-swaps the pool at this interval while the
// clients run.
constexpr int64_t kRefreshIntervalNs = 200'000'000;

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error(what);
}

double Median(const std::vector<double>& values) {
  return values.empty() ? 0.0 : kboost::Quantile(values, 0.5);
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

double SelfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

/// utime + stime of `pid` from /proc, in seconds.
double ProcCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) Fail("cannot read /proc stat of kboostd");
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  double ticks = 0.0;
  // Fields 3..15 of proc(5); utime and stime are fields 14 and 15.
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Returns freed heap to the kernel and restarts this process's VmHWM, so
/// the next PeakRssMb("self") is the peak since this call. When the kernel
/// refuses the reset, VmHWM stays the peak since process start.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set (VmHWM) of `who` ("self" or a pid), in MiB.
double PeakRssMb(const std::string& who) {
  std::ifstream in("/proc/" + who + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  Fail("no VmHWM in /proc/" + who + "/status");
}

// ---- The shared instance ---------------------------------------------------

struct Instance {
  std::string graph_path;
  /// The graph as re-read from graph_path: the daemon's bits, since the
  /// edge-list text rounds probabilities.
  std::unique_ptr<DirectedGraph> graph;
  std::vector<NodeId> seeds;
  BoostOptions options;
};

Instance MakeInstance(const Config& config, const std::string& tag,
                      Trace* trace, int32_t parent) {
  Instance inst;
  inst.graph_path = config.workdir + "/graph-" + tag + ".txt";
  {
    ScopedSpan span(trace, "graph.gen", parent);
    const kboost::Dataset dataset =
        kboost::MakeDataset(kboost::SpecByName(kDataset, config.scale));
    if (!kboost::SaveEdgeList(dataset.graph, inst.graph_path).ok()) {
      Fail("cannot write " + inst.graph_path);
    }
  }
  {
    ScopedSpan span(trace, "graph.load", parent);
    kboost::StatusOr<DirectedGraph> graph =
        kboost::LoadEdgeList(inst.graph_path);
    if (!graph.ok()) Fail(graph.status().ToString());
    inst.graph = std::make_unique<DirectedGraph>(std::move(graph.value()));
  }
  {
    ScopedSpan span(trace, "im.seeds", parent);
    inst.seeds = kboost::SelectInfluentialSeeds(*inst.graph, kNumSeeds,
                                                config.seed, config.threads);
  }
  inst.options.k = kMaxBudget;
  inst.options.epsilon = kEpsilon;
  inst.options.seed = config.seed;
  inst.options.num_threads = config.threads;
  inst.options.num_shards = kNumShards;
  return inst;
}

std::unique_ptr<BoostSession> CreateSession(const Instance& inst,
                                            bool lb_only) {
  auto session = BoostSession::Create(*inst.graph, inst.seeds, inst.options,
                                      lb_only);
  if (!session.ok()) Fail(session.status().ToString());
  return std::move(session.value());
}

/// The budgets of the query stream, in a seeded order. Client c starts
/// reading at c * size / kClients.
std::vector<size_t> QueryStream(uint64_t seed) {
  kboost::Rng rng(seed ^ 0x5157455259ULL);
  std::vector<size_t> stream(4096);
  for (size_t& k : stream) k = kBudgets[rng.NextBounded(std::size(kBudgets))];
  return stream;
}

// ---- Output gate -----------------------------------------------------------

/// Sampling work of a pool; must repeat exactly across a run's builds.
struct PoolCounts {
  size_t theta = 0;
  size_t boostable = 0;
  size_t activated = 0;
  size_t hopeless = 0;
  size_t edges_examined = 0;
  size_t uncompressed_edges = 0;
  size_t compressed_edges = 0;
  size_t stored_bytes = 0;
  bool capped = false;
  bool operator==(const PoolCounts&) const = default;
};

PoolCounts CountsOf(const BoostSession& session) {
  const kboost::PrrCollection& pool = session.engine().collection();
  const kboost::PrrSamplerStats& stats = session.engine().stats();
  return {pool.num_samples(),        pool.num_boostable(),
          pool.num_activated(),      pool.num_hopeless(),
          stats.edges_examined,      stats.uncompressed_edges,
          stats.compressed_edges,    pool.StoredGraphBytes(),
          session.engine().samples_capped()};
}

using References = std::map<size_t, BoostResult>;

References SolveReferences(const BoostSession& session, SolveMode mode,
                           const Config& config) {
  References refs;
  kboost::SolveContext context;
  for (size_t k : kBudgets) {
    kboost::SolveSpec spec;
    spec.k = k;
    spec.mode = mode;
    auto result = session.Solve(spec, &context);
    if (!result.ok()) Fail("reference solve: " + result.status().ToString());
    refs[k] = std::move(result.value());
  }
  if (config.plant_divergence) {
    BoostResult& planted = refs[kMaxBudget];
    planted.best_estimate = std::nextafter(planted.best_estimate, INFINITY);
  }
  return refs;
}

/// Bit-identity of an answer (a BoostResult or a WireQueryReply) against
/// the in-process reference; doubles compare exactly.
template <typename Answer>
bool SameAnswer(const Answer& got, const BoostResult& want) {
  return got.best_set == want.best_set &&
         got.best_estimate == want.best_estimate &&
         got.lb_set == want.lb_set && got.lb_mu_hat == want.lb_mu_hat &&
         got.lb_delta_hat == want.lb_delta_hat &&
         got.delta_set == want.delta_set &&
         got.delta_delta_hat == want.delta_delta_hat &&
         got.num_samples == want.num_samples &&
         got.num_boostable == want.num_boostable &&
         static_cast<uint64_t>(got.pool_budget) ==
             static_cast<uint64_t>(want.pool_budget);
}

/// The sandwich invariants of a full answer; empty when they hold.
template <typename Answer>
std::string SandwichViolation(const Answer& r) {
  if (!(r.lb_mu_hat <= r.lb_delta_hat)) return "lb_mu_hat > lb_delta_hat";
  if (r.best_estimate != std::max(r.lb_delta_hat, r.delta_delta_hat)) {
    return "best_estimate != max(lb_delta_hat, delta_delta_hat)";
  }
  return "";
}

/// Checks one answer for budget k: bit-identical to refs[k] and, for full
/// answers, the sandwich invariants. Returns the violation or "".
template <typename Answer>
std::string AnswerViolation(const Answer& got, size_t k, const References& refs,
                            bool full) {
  if (!SameAnswer(got, refs.at(k))) {
    return "answer for k=" + std::to_string(k) + " differs from reference";
  }
  return full ? SandwichViolation(got) : "";
}

/// LB answers must be nested: each budget's set extends the smaller one's.
void CheckPrefixMonotone(const References& refs, Result* result) {
  const std::vector<NodeId>* prev = nullptr;
  for (const auto& [k, ref] : refs) {
    const std::vector<NodeId>& set = ref.best_set;
    if (set.size() != k) {
      result->Violation("LB answer for k=" + std::to_string(k) + " has " +
                        std::to_string(set.size()) + " nodes");
    }
    if (prev != nullptr && !std::equal(prev->begin(), prev->end(), set.begin(),
                                       set.begin() + std::min(prev->size(),
                                                              set.size()))) {
      result->Violation("LB answer for k=" + std::to_string(k) +
                        " does not extend the smaller budget's");
    }
    prev = &set;
  }
}

void CheckAllAnswers(const BoostSession& session, SolveMode mode,
                     const References& refs, const std::string& what,
                     Result* result) {
  kboost::SolveContext context;
  for (size_t k : kBudgets) {
    kboost::SolveSpec spec;
    spec.k = k;
    spec.mode = mode;
    auto got = session.Solve(spec, &context);
    ++result->attempted;
    if (!got.ok()) {
      result->Failure();
      continue;
    }
    const std::string v =
        AnswerViolation(got.value(), k, refs, mode == SolveMode::kFull);
    if (!v.empty()) result->Violation(what + ": " + v);
  }
}

bool SameFileBytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  return fa && fb &&
         std::equal(std::istreambuf_iterator<char>(fa),
                    std::istreambuf_iterator<char>(),
                    std::istreambuf_iterator<char>(fb),
                    std::istreambuf_iterator<char>());
}

// ---- The kboostd process ---------------------------------------------------

/// Counters kboostd prints when its drain completes.
struct DrainLine {
  unsigned long long connections = 0, frames = 0, queries = 0;
  unsigned long long unavailable = 0, protocol_errors = 0;
};

/// One kboostd child, started on an ephemeral loopback port. The child gets
/// SIGKILL if this process dies first; the destructor kills and reaps it if
/// Stop() did not.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& flags) {
    std::vector<std::string> args = {binary};
    args.insert(args.end(), flags.begin(), flags.end());
    args.push_back("--bind=127.0.0.1");
    args.push_back("--listen=0");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) Fail("pipe2 failed");
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) Fail("fork failed");
    if (pid_ == 0) {
      // Only async-signal-safe calls between fork and exec.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      dup2(fds[1], STDOUT_FILENO);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(fds[1]);
    out_fd_ = fds[0];
    const int64_t deadline = NowNs() + 60'000'000'000;
    std::string line;
    while (ReadLine(deadline, &line)) {
      unsigned port = 0;
      const char* at = std::strstr(line.c_str(), "kboostd listening on ");
      const char* colon = at != nullptr ? std::strrchr(at, ':') : nullptr;
      if (colon != nullptr && std::sscanf(colon + 1, "%u", &port) == 1) {
        port_ = static_cast<uint16_t>(port);
        return;
      }
    }
    Release();
    Fail("kboostd did not report its port");
  }

  ~Daemon() { Release(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

  /// Sends SHUTDOWN, waits for a clean exit and parses the drain line.
  DrainLine Stop() {
    {
      auto admin = kboost::KboostClient::Connect("127.0.0.1", port_);
      if (!admin.ok() || !admin.value()->Shutdown().ok()) {
        Fail("kboostd refused SHUTDOWN");
      }
    }
    DrainLine drain;
    bool drained = false;
    std::string line;
    const int64_t deadline = NowNs() + 30'000'000'000;
    while (ReadLine(deadline, &line)) {
      drained |= std::sscanf(line.c_str(),
                             "kboostd drained: %llu connections, %llu frames, "
                             "%llu queries, %llu unavailable rejects, %llu "
                             "protocol errors",
                             &drain.connections, &drain.frames, &drain.queries,
                             &drain.unavailable, &drain.protocol_errors) == 5;
    }
    int status = 0;
    const pid_t reaped = waitpid(pid_, &status, 0);
    pid_ = -1;
    if (reaped < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      Fail("kboostd did not exit cleanly");
    }
    if (!drained) Fail("kboostd printed no drain line");
    return drain;
  }

 private:
  /// Next stdout line of the child; false on EOF or past `deadline_ns`.
  bool ReadLine(int64_t deadline_ns, std::string* line) {
    while (true) {
      const size_t nl = buffered_.find('\n');
      if (nl != std::string::npos) {
        *line = buffered_.substr(0, nl);
        buffered_.erase(0, nl + 1);
        return true;
      }
      const int64_t left_ms = (deadline_ns - NowNs()) / 1'000'000;
      if (left_ms <= 0) return false;
      pollfd pfd{out_fd_, POLLIN, 0};
      if (poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) return false;
      char buf[4096];
      const ssize_t n = read(out_fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      buffered_.append(buf, static_cast<size_t>(n));
    }
  }

  /// Kills and reaps the child if it still runs; closes its pipe.
  void Release() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
  std::string buffered_;
};

std::unique_ptr<KboostClient> ConnectOrFail(uint16_t port) {
  auto client = KboostClient::Connect("127.0.0.1", port);
  if (!client.ok()) Fail("connect: " + client.status().ToString());
  return std::move(client.value());
}

WireQuery MakeQuery(size_t k, SolveMode mode) {
  WireQuery q;
  q.pool = kPoolName;
  q.k = k;
  q.mode = mode;
  q.num_threads = 0;  // the pool default, as `kboost_cli query` sends
  return q;
}

// ---- Closed-loop clients ---------------------------------------------------

/// One answered query of a serving segment.
struct Sample {
  int64_t done_ns = 0;  ///< completion time, relative to the segment start
  double rtt_us = 0.0;
  double solve_us = 0.0;  ///< the reply's solve_seconds
};

/// One closed-loop connection's record of a segment.
struct ClientRun {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string violation;  // first gate violation seen
  Trace trace{false};
};

/// Sends queries until `end_ns`; each is traced when out->trace is enabled.
void RunClient(uint16_t port, SolveMode mode, const std::vector<size_t>& stream,
               size_t client, const References& refs, int64_t start_ns,
               int64_t end_ns, ClientRun* out) {
  auto connected = KboostClient::Connect("127.0.0.1", port);
  if (!connected.ok()) {
    out->attempted = out->failed = 1;
    return;
  }
  KboostClient& client_conn = *connected.value();
  const bool full = mode == SolveMode::kFull;
  size_t next = client * stream.size() / kClients;
  for (uint64_t request = 1;; ++request) {
    const int64_t t0 = NowNs();
    if (t0 >= end_ns) break;
    const size_t k = stream[next++ % stream.size()];
    const int32_t span =
        out->trace.Begin("net.query", -1, (client << 32) | request);
    kboost::StatusOr<WireQueryReply> reply =
        client_conn.Query(MakeQuery(k, mode));
    out->trace.End(span);
    const int64_t t1 = NowNs();
    ++out->attempted;
    if (!reply.ok()) {
      // Transport failure: the connection is gone, stop this client.
      ++out->failed;
      break;
    }
    const WireQueryReply& r = reply.value();
    if (!r.status.ok() || r.degraded) {
      ++out->failed;
      continue;
    }
    const std::string v = AnswerViolation(r, k, refs, full);
    if (!v.empty() && out->violation.empty()) out->violation = v;
    out->samples.push_back({t1 - start_ns,
                            static_cast<double>(t1 - t0) * 1e-3,
                            r.solve_seconds * 1e6});
  }
}

double Rtt(const Sample& s) { return s.rtt_us; }
double Solve(const Sample& s) { return s.solve_us; }
double Overhead(const Sample& s) { return s.rtt_us - s.solve_us; }

/// Per-run STATS and drain accounting: every error, shed or degraded answer
/// the service recorded, and every reject or protocol error the server
/// counted, is a failed operation. `queries` and `refreshes` are what the
/// clients saw answered OK; the service must agree.
void CheckServiceCounters(KboostClient* admin, uint64_t queries,
                          uint64_t refreshes, Result* result) {
  auto stats = admin->Stats();
  ++result->attempted;
  if (!stats.ok() || stats.value().pools.size() != 1) {
    result->Failure();
    return;
  }
  const kboost::ServiceStatsSnapshot& s = stats.value();
  const kboost::PoolStatsSnapshot& pool = s.pools[0];
  result->Failure(pool.errors + pool.shed + pool.degraded +
                  pool.deadline_misses + s.not_found + s.shed +
                  s.queue_timeouts);
  if (pool.queries != queries) {
    result->Violation("STATS counts " + std::to_string(pool.queries) +
                      " queries, clients saw " + std::to_string(queries));
  }
  if (pool.refreshes != refreshes) {
    result->Violation("STATS counts " + std::to_string(pool.refreshes) +
                      " refreshes, the admin connection made " +
                      std::to_string(refreshes));
  }
}

void StopDaemon(Daemon* daemon, Result* result) {
  const DrainLine drain = daemon->Stop();
  result->Failure(drain.unavailable + drain.protocol_errors);
}

// ---- Serving segments ------------------------------------------------------

/// A running kboostd under measurement, and what its serving segments
/// measured so far.
struct Serving {
  Daemon* daemon = nullptr;
  SolveMode mode = SolveMode::kFull;
  const References* refs = nullptr;
  /// The two byte-identical files the refreshes alternate between, both
  /// written before the daemon started.
  std::vector<std::string> snapshots;
  std::unique_ptr<KboostClient> admin;
  int segments = 0;
  uint64_t version = 0;  ///< the pool version the last REFRESH reported
  uint64_t answered = 0;
  /// Completions per second of each half of every untraced segment.
  std::vector<double> qps_windows;
  /// The median and 99th-percentile round trip (µs) of every untraced
  /// segment. Only these summaries outlive an untraced segment, so the
  /// bench process's memory does not grow with the run.
  std::vector<double> p50_windows, p99_windows;
  /// Every sample of the traced segments.
  std::vector<Sample> traced;
  std::vector<double> refresh_ms;
  uint64_t refreshes = 0;
  double daemon_cpu_s = 0.0;  ///< over the segments only
  double bench_cpu_s = 0.0;
  double rss_mb = 0.0;

  Serving(Daemon* d, SolveMode m, const References* r,
          std::vector<std::string> files)
      : daemon(d), mode(m), refs(r), snapshots(std::move(files)),
        admin(ConnectOrFail(d->port())) {}

  /// `field` of every sample of the traced segments.
  template <typename Field>
  std::vector<double> Traced(Field field) const {
    std::vector<double> out;
    for (const Sample& s : traced) out.push_back(field(s));
    return out;
  }
};

/// The segment length of `shape`, shortened so even a short run holds a
/// few rounds.
int64_t SegmentNs(const Config& config, const Shape& shape) {
  return std::min(shape.segment_ns, static_cast<int64_t>(config.seconds * 1e9 /
                                                         8));
}

/// One serving segment of `length_ns`: kClients closed-loop connections,
/// while the admin connection sends REFRESH every kRefreshIntervalNs,
/// alternating between the two snapshot files. In the traced run every
/// second segment is traced, so tracing overhead is measured against the
/// same stretch of host noise.
void ServeSegment(const Config& config, Serving* serving, int64_t length_ns,
                  Trace* trace, Result* result) {
  const bool traced = trace->enabled() && serving->segments++ % 2 == 1;
  const std::vector<size_t> stream = QueryStream(config.seed);
  std::vector<ClientRun> runs(kClients);
  for (ClientRun& run : runs) run.trace = Trace(traced);
  const pid_t pid = serving->daemon->pid();
  const double daemon_cpu0 = ProcCpuSeconds(pid);
  const double bench_cpu0 = SelfCpuSeconds();
  const int64_t start = NowNs();
  const int64_t end = start + length_ns;
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < runs.size(); ++c) {
      threads.emplace_back(RunClient, serving->daemon->port(), serving->mode,
                           std::cref(stream), c, std::cref(*serving->refs),
                           start, end, &runs[c]);
    }
    for (int64_t due = start + kRefreshIntervalNs; due < end;
         due += kRefreshIntervalNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
      kboost::WireRefresh refresh;
      refresh.pool = kPoolName;
      refresh.snapshot_path =
          serving->snapshots[(serving->refreshes + 1) % 2];
      const int64_t t0 = NowNs();
      const int32_t span =
          trace->Begin("net.refresh", -1, serving->refreshes + 1);
      auto reply = serving->admin->Refresh(refresh);
      trace->End(span);
      ++result->attempted;
      if (!reply.ok() || !reply.value().status.ok() ||
          reply.value().version <= serving->version) {
        result->Failure();
        if (!reply.ok()) break;
        continue;
      }
      serving->version = reply.value().version;
      ++serving->refreshes;
      serving->refresh_ms.push_back(SecondsSince(t0) * 1e3);
    }
    for (std::thread& t : threads) t.join();
  }
  serving->daemon_cpu_s += ProcCpuSeconds(pid) - daemon_cpu0;
  serving->bench_cpu_s += SelfCpuSeconds() - bench_cpu0;

  size_t halves[2] = {0, 0};
  std::vector<double> rtt_us;
  for (ClientRun& run : runs) {
    result->attempted += run.attempted;
    result->failed += run.failed;
    if (!run.violation.empty()) result->Violation(run.violation);
    trace->Merge(run.trace);
    serving->answered += run.samples.size();
    if (traced) {
      serving->traced.insert(serving->traced.end(), run.samples.begin(),
                             run.samples.end());
      continue;
    }
    for (const Sample& s : run.samples) {
      if (s.done_ns >= length_ns) continue;  // answered after the segment
      ++halves[s.done_ns * 2 / length_ns];
      rtt_us.push_back(s.rtt_us);
    }
  }
  if (!traced && !rtt_us.empty()) {
    for (size_t half : halves) {
      serving->qps_windows.push_back(static_cast<double>(half) * 2e9 /
                                     static_cast<double>(length_ns));
    }
    serving->p50_windows.push_back(Median(rtt_us));
    serving->p99_windows.push_back(kboost::Quantile(rtt_us, 0.99));
  }
}

/// Ends the measurement: the daemon's peak memory, the STATS and drain
/// accounting, and the daemon is stopped. `earlier` counts queries the
/// daemon answered before the first segment.
void FinishServing(Serving* serving, uint64_t earlier, Result* result) {
  serving->rss_mb = PeakRssMb(std::to_string(serving->daemon->pid()));
  CheckServiceCounters(serving->admin.get(), serving->answered + earlier,
                       serving->refreshes, result);
  serving->admin.reset();
  StopDaemon(serving->daemon, result);
  if (serving->answered == 0) result->Violation("no query was answered");
  if (serving->refresh_ms.empty()) {
    result->Violation("no REFRESH was answered");
  }
}

/// The client-observed end-to-end metrics of the untraced run: qps is the
/// median over half segments, p50 and p99 the medians over segments'
/// percentiles.
void AddServeMetrics(const Serving& serving, Result* result) {
  result->Add("qps", Median(serving.qps_windows), "1/s");
  result->Add("p50_ms", Median(serving.p50_windows) * 1e-3, "ms");
  result->Add("p99_ms", Median(serving.p99_windows) * 1e-3, "ms");
  result->Add("refresh_ms", Median(serving.refresh_ms), "ms");
}

/// The per-layer split of the traced segments' round trips.
void AddServeLayers(const Serving& serving, Result* result) {
  const double queries = static_cast<double>(serving.answered);
  result->Add("serve.solve_us", Median(serving.Traced(Solve)), "us");
  result->Add("net.overhead_us", Median(serving.Traced(Overhead)), "us");
  result->Add("kboostd.cpu_us_per_q", serving.daemon_cpu_s * 1e6 / queries,
              "us");
  result->Add("bench.cpu_us_per_q", serving.bench_cpu_s * 1e6 / queries,
              "us");
  result->Add("serve.refreshes", static_cast<double>(serving.refreshes),
              "count");
}

// ---- Builds and warm starts ------------------------------------------------

/// Exact sampling work of a full pool, as per-layer counters.
void CountPool(const PoolCounts& counts, Trace* trace) {
  trace->Count("core.theta", static_cast<double>(counts.theta));
  trace->Count("core.boostable", static_cast<double>(counts.boostable));
  trace->Count("core.edges_examined",
               static_cast<double>(counts.edges_examined));
  trace->Count("core.stored_bytes", static_cast<double>(counts.stored_bytes));
  trace->Count("core.compression_ratio",
               static_cast<double>(counts.uncompressed_edges) /
                   static_cast<double>(counts.compressed_edges));
}

/// One from-scratch full-pool build: Create + Prepare. With `steps` (traced
/// builds) Prepare's sampling and index warm-up are explicit calls, so each
/// layer is timed on its own and sampling's CPU use per worker is appended
/// to `sample_busy`.
std::unique_ptr<BoostSession> BuildFull(const Instance& inst, int threads,
                                        bool steps, Trace* t, int32_t parent,
                                        std::vector<double>* sample_busy) {
  const ScopedSpan root(t, "build.full", parent);
  std::unique_ptr<BoostSession> full;
  {
    ScopedSpan span(t, "core.create", root.id());
    full = CreateSession(inst, /*lb_only=*/false);
  }
  if (steps) {
    const double cpu0 = SelfCpuSeconds();
    const int64_t s0 = NowNs();
    {
      ScopedSpan span(t, "core.sample", root.id());
      full->engine().EnsureSampled();
    }
    sample_busy->push_back((SelfCpuSeconds() - cpu0) /
                           (SecondsSince(s0) * threads));
    ScopedSpan span(t, "core.warm", root.id());
    full->engine().collection().WarmIndexes(threads);
  }
  {
    ScopedSpan span(t, "select.lb_order", root.id());
    full->Prepare();
  }
  return full;
}

/// One from-scratch PRR-Boost-LB build; `steps` as in BuildFull.
std::unique_ptr<BoostSession> BuildLb(const Instance& inst, bool steps,
                                      Trace* t) {
  const ScopedSpan root(t, "build.lb");
  std::unique_ptr<BoostSession> lb;
  {
    ScopedSpan span(t, "core.create", root.id());
    lb = CreateSession(inst, /*lb_only=*/true);
  }
  if (steps) {
    ScopedSpan span(t, "core.lb_sample", root.id());
    lb->engine().EnsureSampled();
  }
  {
    ScopedSpan span(t, "build.lb_prepare", root.id());
    lb->Prepare();
  }
  return lb;
}

/// One warm start of each kind from `path`: owned LoadPoolSnapshot +
/// Prepare, then MmapPool + Prepare. Returns the mapped one's wall time in
/// ms, or a negative value when a load failed (a failed operation). With
/// `check`, both sessions' answers for every budget are gated against refs.
double WarmStarts(const DirectedGraph& graph, const std::string& path,
                  SolveMode mode, const References& refs, bool check, Trace* t,
                  Result* result) {
  {
    const int32_t span = t->Begin("io.load_owned");
    auto owned = kboost::LoadPoolSnapshot(graph, path);
    if (owned.ok()) owned.value()->Prepare();
    t->End(span);
    ++result->attempted;
    if (!owned.ok()) {
      result->Failure();
    } else if (check) {
      CheckAllAnswers(*owned.value(), mode, refs, "owned snapshot load",
                      result);
    }
  }
  const int64_t start = NowNs();
  const int32_t map_span = t->Begin("io.map");
  auto mapped = kboost::MmapPool(graph, path);
  t->End(map_span);
  ++result->attempted;
  if (!mapped.ok()) {
    result->Failure();
    return -1.0;
  }
  {
    ScopedSpan span(t, "io.bind");
    mapped.value()->Prepare();
  }
  const double ms = SecondsSince(start) * 1e3;
  if (check) {
    CheckAllAnswers(*mapped.value(), mode, refs, "mapped snapshot", result);
  }
  return ms;
}

/// Saves `session` to `path`; false (a failed operation) on error.
bool Save(const BoostSession& session, const std::string& path, Trace* t,
          int32_t parent, Result* result) {
  ScopedSpan span(t, "io.save", parent);
  auto saved = kboost::SavePoolSnapshot(session, path, {});
  ++result->attempted;
  if (!saved.ok()) {
    result->Failure();
    return false;
  }
  t->Count("io.snapshot_bytes", static_cast<double>(saved.value().file_bytes));
  return true;
}

// ---- Per-layer probes of the traced run ------------------------------------

/// In-process replay of the query stream for `seconds` against a
/// BoostService warm-started from the full-pool snapshot, splitting
/// BoostService::Solve into the Δ̂ greedy and EstimateDelta of B_μ, each
/// called on its own.
void ReplayLayers(const Config& config, const DirectedGraph& graph,
                  const std::string& snapshot, const References& full_refs,
                  double seconds, Trace* trace, Result* result) {
  kboost::BoostService::Options options;
  options.warm_pools = {{kPoolName, snapshot}};
  auto service = kboost::BoostService::Create(graph, options);
  if (!service.ok()) Fail(service.status().ToString());
  const std::shared_ptr<const BoostSession> pool =
      service.value()->GetPool(kPoolName);
  const std::vector<uint8_t> excluded =
      kboost::MakeNodeBitmap(graph.num_nodes(), pool->seeds());
  const int threads = pool->options().num_threads;
  kboost::SolveContext solve_context, delta_context;
  std::vector<double> glue_us;
  std::map<size_t, kboost::PrrCollection::DeltaResult> picks;
  const std::vector<size_t> stream = QueryStream(config.seed);
  const int64_t replay_end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  // At least one pass over every budget, however short the replay.
  for (size_t i = 0; i < stream.size() &&
                     (NowNs() < replay_end || picks.size() < std::size(kBudgets));
       ++i) {
    const size_t k = stream[i];
    const BoostResult& ref = full_refs.at(k);
    const ScopedSpan root(trace, "replay.query", -1, i + 1);
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(trace, "serve.service_solve", root.id(), i + 1);
      kboost::BoostRequest request;
      request.pool = kPoolName;
      request.k = k;
      request.mode = SolveMode::kFull;
      auto answer = service.value()->Solve(request, &solve_context);
      ++result->attempted;
      if (!answer.ok()) {
        result->Failure();
        continue;
      }
      const std::string v = AnswerViolation(answer.value().result, k,
                                            full_refs, /*full=*/true);
      if (!v.empty()) result->Violation("in-process replay: " + v);
    }
    const int64_t t1 = NowNs();
    kboost::PrrCollection::DeltaResult delta;
    {
      ScopedSpan span(trace, "select.delta", root.id(), i + 1);
      delta = pool->engine().collection().SelectGreedyDelta(
          k, excluded, threads, &delta_context.eval_state);
    }
    const int64_t t2 = NowNs();
    double estimate = 0.0;
    {
      ScopedSpan span(trace, "core.estimate", root.id(), i + 1);
      estimate = pool->engine().EstimateDelta(ref.lb_set);
    }
    const int64_t t3 = NowNs();
    if (delta.nodes != ref.delta_set || delta.delta_hat != ref.delta_delta_hat ||
        estimate != ref.lb_delta_hat) {
      result->Violation("replayed selection differs for k=" +
                        std::to_string(k));
    }
    glue_us.push_back(static_cast<double>((t1 - t0) - (t2 - t1) - (t3 - t2)) *
                      1e-3);
    picks.emplace(k, std::move(delta));
  }
  // Exact selection work of one pass over the four budgets.
  double num_picks = 0, gain_sum = 0, activated = 0;
  for (const auto& [k, delta] : picks) {
    num_picks += static_cast<double>(delta.pick_gains.size());
    for (uint64_t gain : delta.pick_gains) gain_sum += static_cast<double>(gain);
    activated += static_cast<double>(delta.activated_samples);
  }
  if (picks.size() != std::size(kBudgets)) {
    result->Violation("the replay did not cover every budget");
  }
  result->Add("select.delta_ms", Median(trace->DurationsMs("select.delta")),
              "ms");
  result->Add("core.estimate_ms", Median(trace->DurationsMs("core.estimate")),
              "ms");
  result->Add("serve.glue_us", Median(glue_us), "us");
  result->Add("select.picks", num_picks, "count");
  result->Add("select.gain_sum", gain_sum, "count");
  result->Add("select.activated", activated, "count");
}

/// The bench-side codec: encode a query frame and decode the reply body of
/// the largest budget's answer, timed in batches so the clock does not
/// dominate.
void CodecLayer(const References& refs, SolveMode mode, Trace* trace,
                Result* result) {
  const BoostResult& ref = refs.at(kMaxBudget);
  WireQueryReply reply;
  reply.best_set = ref.best_set;
  reply.best_estimate = ref.best_estimate;
  reply.lb_set = ref.lb_set;
  reply.lb_mu_hat = ref.lb_mu_hat;
  reply.lb_delta_hat = ref.lb_delta_hat;
  reply.delta_set = ref.delta_set;
  reply.delta_delta_hat = ref.delta_delta_hat;
  reply.pool_budget = ref.pool_budget;
  reply.num_samples = ref.num_samples;
  reply.num_boostable = ref.num_boostable;
  const std::string reply_frame = kboost::EncodeQueryReplyFrame(1, reply);
  const auto* body = reinterpret_cast<const uint8_t*>(reply_frame.data()) +
                     kboost::kFrameHeaderBytes;
  const size_t body_len = reply_frame.size() - kboost::kFrameHeaderBytes;
  constexpr int kCodecBatch = 2000;
  std::vector<double> codec_us;
  const WireQuery query = MakeQuery(kMaxBudget, mode);
  for (int batch = 0; batch < 50; ++batch) {
    const int64_t t0 = NowNs();
    const ScopedSpan span(trace, "net.codec");
    size_t sink = 0;
    for (int i = 0; i < kCodecBatch; ++i) {
      sink += kboost::EncodeQueryFrame(static_cast<uint32_t>(i), query).size();
      WireQueryReply decoded;
      if (!kboost::DecodeQueryReplyBody(body, body_len, &decoded).ok() ||
          !SameAnswer(decoded, ref)) {
        result->Violation("codec round trip changed the answer");
      }
      sink += decoded.best_set.size();
    }
    if (sink == 0) result->Violation("codec produced nothing");
    codec_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3 / kCodecBatch);
  }
  result->Add("net.codec_us", Median(codec_us), "us");
}

/// The per-layer metrics every traced run takes from its spans and
/// counters: instance, build and snapshot layers.
void AddBuildLayers(const Trace& trace, const std::vector<double>& sample_busy,
                    Result* result) {
  auto span_median = [&](const char* name) {
    const std::vector<double> ms = trace.DurationsMs(name);
    if (ms.empty()) Fail(std::string("the traced run has no ") + name);
    return Median(ms);
  };
  result->Add("graph.gen_s", span_median("graph.gen") * 1e-3, "s");
  result->Add("im.seeds_s", span_median("im.seeds") * 1e-3, "s");
  result->Add("core.sample_s", span_median("core.sample") * 1e-3, "s");
  result->Add("core.sample_busy", Median(sample_busy), "ratio");
  result->Add("core.warm_ms", span_median("core.warm"), "ms");
  result->Add("select.lb_order_ms", span_median("select.lb_order"), "ms");
  result->Add("core.lb_sample_s", span_median("core.lb_sample") * 1e-3, "s");
  const std::pair<const char*, const char*> counters[] = {
      {"core.theta", "count"},          {"core.boostable", "count"},
      {"core.edges_examined", "count"}, {"core.stored_bytes", "bytes"},
      {"core.compression_ratio", "ratio"}, {"io.snapshot_bytes", "bytes"}};
  for (const auto& [name, unit] : counters) {
    const auto it = trace.counters().find(name);
    if (it == trace.counters().end()) {
      Fail(std::string("the traced run has no counter ") + name);
    }
    result->Add(name, it->second, unit);
  }
  result->Add("io.save_ms", span_median("io.save"), "ms");
  result->Add("io.load_owned_ms", span_median("io.load_owned"), "ms");
  result->Add("io.map_ms", span_median("io.map"), "ms");
  result->Add("io.bind_ms", span_median("io.bind"), "ms");
}

// ---- Query workload set-up -------------------------------------------------

/// What one set-up of a query workload leaves running.
struct Served {
  Instance instance;
  std::unique_ptr<Daemon> daemon;
  /// Byte-identical snapshot files: [0] and [1] are the daemon's, which
  /// the refreshes alternate between; [2] is the build probe's, which the
  /// daemon is never given, so warm starts do not share its mapping.
  std::vector<std::string> snapshots;
  PoolCounts counts;
  double build_s = 0.0;  ///< the full build's Create + Prepare
  WireQueryReply first_reply;
  size_t first_k = 0;
};

/// One from-scratch set-up of a query workload: instance, full pool build,
/// the snapshot files, kboostd spawn, up to its first OK reply. With `mmap`
/// the daemon serves zero-copy.
Served SetUpServing(const Config& config, int rep, bool mmap, SolveMode mode,
                    Trace* trace, Result* result,
                    std::vector<double>* sample_busy) {
  const ScopedSpan root(trace, "setup");
  Served served;
  served.instance =
      MakeInstance(config, "rep" + std::to_string(rep), trace, root.id());
  const int64_t build_start = NowNs();
  std::unique_ptr<BoostSession> session =
      BuildFull(served.instance, config.threads, trace->enabled(), trace,
                root.id(), sample_busy);
  served.build_s = SecondsSince(build_start);
  served.counts = CountsOf(*session);
  CountPool(served.counts, trace);
  // Every snapshot file is written once, before the daemon starts, under a
  // name no earlier set-up used. Re-saving a path a live kboostd has mapped
  // (--mmap-pool) truncates the pages under its pool and crashes the next
  // solve, so a running daemon's files are never written again.
  for (const char* suffix : {"a", "b", "probe"}) {
    served.snapshots.push_back(config.workdir + "/pool-rep" +
                               std::to_string(rep) + "-" + suffix + ".bin");
    if (!Save(*session, served.snapshots.back(), trace, root.id(), result)) {
      Fail("cannot save " + served.snapshots.back());
    }
  }
  session.reset();
  {
    ScopedSpan span(trace, "kboostd.start", root.id());
    std::vector<std::string> flags = {
        "--graph=" + served.instance.graph_path,
        std::string("--pool=") + kPoolName + "=" + served.snapshots[0]};
    if (mmap) flags.push_back("--mmap-pool");
    served.daemon = std::make_unique<Daemon>(config.kboostd, flags);
  }
  {
    ScopedSpan span(trace, "kboostd.first_reply", root.id());
    auto client = ConnectOrFail(served.daemon->port());
    served.first_k = QueryStream(config.seed)[0];
    auto reply = client->Query(MakeQuery(served.first_k, mode));
    if (!reply.ok() || !reply.value().status.ok()) {
      Fail("kboostd's first query failed");
    }
    served.first_reply = reply.value();
  }
  return served;
}

/// Runs kSetupReps set-ups, keeping the last daemon running, and gates
/// that every repetition built the same pool bytes. Returns the median
/// set-up time; each set-up's full build time is appended to `build_s`.
double RepeatedSetUp(const Config& config, bool mmap, SolveMode mode,
                     Trace* trace, Result* result, Served* served,
                     std::vector<double>* build_s,
                     std::vector<double>* sample_busy) {
  std::vector<double> setup_s;
  std::vector<std::string> first_files;
  PoolCounts first_counts;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Stop and release the previous set-up before timing the next.
    if (served->daemon != nullptr) StopDaemon(served->daemon.get(), result);
    *served = Served();
    const int64_t start = NowNs();
    *served =
        SetUpServing(config, rep, mmap, mode, trace, result, sample_busy);
    setup_s.push_back(SecondsSince(start));
    build_s->push_back(served->build_s);
    ++result->attempted;
    if (rep == 0) {
      first_files = served->snapshots;
      first_counts = served->counts;
      continue;
    }
    if (!(served->counts == first_counts)) {
      result->Violation("pool counts differ between set-up repetitions");
    }
    for (size_t i = 0; i < served->snapshots.size(); ++i) {
      if (!SameFileBytes(served->snapshots[i], first_files[i])) {
        result->Violation("snapshot bytes differ between repetitions");
      }
    }
  }
  for (size_t i = 1; i < served->snapshots.size(); ++i) {
    if (!SameFileBytes(served->snapshots[0], served->snapshots[i])) {
      result->Violation("a set-up's snapshot files are not byte-identical");
    }
  }
  return Median(setup_s);
}

/// In-process references from the same snapshot file against the same
/// edge-list graph the daemon read: `served` for the workload's query mode,
/// `full` for the traced replay.
struct ServingRefs {
  References served;
  References full;
};

ServingRefs ServingReferences(const Config& config, const Served& served,
                              SolveMode mode, Result* result) {
  auto session =
      kboost::LoadPoolSnapshot(*served.instance.graph, served.snapshots[0]);
  if (!session.ok()) Fail(session.status().ToString());
  session.value()->Prepare();
  if (!(CountsOf(*session.value()) == served.counts)) {
    result->Violation("reloaded pool counts differ from the built pool");
  }
  ServingRefs refs;
  refs.full = SolveReferences(*session.value(), SolveMode::kFull, config);
  refs.served = mode == SolveMode::kFull
                    ? refs.full
                    : SolveReferences(*session.value(), mode, config);
  for (const auto& [k, ref] : refs.full) {
    const std::string v = SandwichViolation(ref);
    if (!v.empty()) {
      result->Violation("reference k=" + std::to_string(k) + ": " + v);
    }
  }
  const std::string v =
      AnswerViolation(served.first_reply, served.first_k, refs.served,
                      mode == SolveMode::kFull);
  if (!v.empty()) result->Violation("first reply: " + v);
  return refs;
}

/// The build-side samples of a query workload, from its probe rounds.
struct BuildProbe {
  std::vector<double> build_s, build_lb_s, warm_ms;
  PoolCounts lb_counts;
  int rounds = 0;
};

/// One build probe round, run while the daemon idles: kProbeWarmStarts warm
/// starts of the probe's copy of the served snapshot, a full build and an
/// LB build. Full builds
/// must repeat the served pool's counts, LB builds the first LB build's.
void ProbeRound(const Config& config, const Served& served, SolveMode mode,
                const References& refs, Trace* trace, Result* result,
                BuildProbe* probe, std::vector<double>* sample_busy) {
  const bool first = probe->rounds++ == 0;
  for (int i = 0; i < kProbeWarmStarts; ++i) {
    const double ms =
        WarmStarts(*served.instance.graph, served.snapshots[2], mode, refs,
                   /*check=*/first && i == 0, trace, result);
    if (ms >= 0) probe->warm_ms.push_back(ms);
  }
  int64_t start = NowNs();
  auto full = BuildFull(served.instance, config.threads, trace->enabled(),
                        trace, -1, sample_busy);
  probe->build_s.push_back(SecondsSince(start));
  ++result->attempted;
  if (!(CountsOf(*full) == served.counts)) {
    result->Violation("pool counts differ between builds");
  }
  full.reset();
  start = NowNs();
  auto lb = BuildLb(served.instance, trace->enabled(), trace);
  probe->build_lb_s.push_back(SecondsSince(start));
  ++result->attempted;
  if (first) probe->lb_counts = CountsOf(*lb);
  if (!(CountsOf(*lb) == probe->lb_counts)) {
    result->Violation("LB pool counts differ between builds");
  }
}

double TraceOverheadPct(const Serving& serving) {
  const double untraced = Median(serving.p50_windows);
  return (Median(serving.Traced(Rtt)) / untraced - 1.0) * 100.0;
}

/// Runs rounds until the next one would end past `seconds` from now, with
/// at least kMinRounds; `round(i)` runs round i.
template <typename Round>
void RunRounds(double seconds, Round round) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  int64_t last = 0;
  for (int i = 0; i < kMinRounds || NowNs() + last <= end; ++i) {
    const int64_t start = NowNs();
    round(i);
    last = NowNs() - start;
  }
}

/// sandwich and wire-lb: repeated set-ups, then rounds of serving segments
/// and a build probe round.
Result RunQueries(const Config& config, bool mmap, SolveMode mode,
                  Trace* trace) {
  Result result;
  Served served;
  std::vector<double> build_s, sample_busy;
  const double setup_s = RepeatedSetUp(config, mmap, mode, trace, &result,
                                       &served, &build_s, &sample_busy);
  const ServingRefs refs = ServingReferences(config, served, mode, &result);
  if (mode != SolveMode::kFull) CheckPrefixMonotone(refs.served, &result);

  Serving serving(served.daemon.get(), mode, &refs.served,
                  {served.snapshots[0], served.snapshots[1]});
  BuildProbe probe;
  const int64_t segment = SegmentNs(config, kQueryShape);
  RunRounds(config.seconds, [&](int) {
    for (int s = 0; s < kQueryShape.segments_per_round; ++s) {
      ServeSegment(config, &serving, segment, trace, &result);
    }
    ProbeRound(config, served, mode, refs.served, trace, &result, &probe,
               &sample_busy);
  });
  // The set-up's first reply came from this daemon too.
  FinishServing(&serving, 1, &result);
  build_s.insert(build_s.end(), probe.build_s.begin(), probe.build_s.end());

  if (!trace->enabled()) {
    result.Add("setup_s", setup_s, "s");
    result.Add("rss_mb", serving.rss_mb, "MiB");
    result.Add("build_s", Median(build_s), "s");
    result.Add("build_lb_s", Median(probe.build_lb_s), "s");
    result.Add("warm_start_ms", Median(probe.warm_ms), "ms");
    AddServeMetrics(serving, &result);
    return result;
  }
  AddBuildLayers(*trace, sample_busy, &result);
  AddServeLayers(serving, &result);
  ReplayLayers(config, *served.instance.graph, served.snapshots[0], refs.full,
               config.seconds * kReplayShare, trace, &result);
  CodecLayer(refs.served, mode, trace, &result);
  result.Add("trace.overhead_pct", TraceOverheadPct(serving), "%");
  return result;
}

}  // namespace

// ---- build -----------------------------------------------------------------

Result RunBuild(const Config& config, Trace* trace) {
  Result result;
  const std::string snapshot = config.workdir + "/pool.bin";
  // The LB pool's two refresh files, written once in the first cycle,
  // before the daemon starts, and never again.
  const std::vector<std::string> lb_snapshots = {
      config.workdir + "/lb-a.bin", config.workdir + "/lb-b.bin"};
  std::vector<double> setup_s, build_s[2], build_lb_s[2], warm_ms, rss_mb;
  std::vector<double> sample_busy;
  PoolCounts full_counts, lb_counts;
  References full_refs, lb_refs;
  Instance inst;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Serving> serving;
  const int64_t segment = SegmentNs(config, kBuildShape);
  // One round: a build cycle, then one serving segment. A cycle is the
  // set-up (graph and seeds) from scratch, a full build, an LB build, then
  // a batch of snapshot round trips of the full pool. Set-up is a fraction
  // of a second, so repeating it in every cycle spreads its samples over
  // the run's host noise instead of one burst. The traced run alternates
  // untraced and traced rounds so tracing overhead is measured within the
  // run.
  RunRounds(config.seconds, [&](int cycle) {
    const int traced = trace->enabled() && cycle % 2 == 1 ? 1 : 0;
    Trace off(false);
    Trace* t = traced ? trace : &off;
    {
      const int64_t start = NowNs();
      const ScopedSpan root(trace, "setup");
      inst = MakeInstance(config, "build", trace, root.id());
      setup_s.push_back(SecondsSince(start));
    }
    // The peak of the cycle's builds and snapshot round trips, measured
    // from a trimmed heap as in a fresh process; the median over cycles
    // keeps allocator luck out of rss_mb.
    ResetPeakRss();

    int64_t start = NowNs();
    std::unique_ptr<BoostSession> full =
        BuildFull(inst, config.threads, traced, t, -1, &sample_busy);
    build_s[traced].push_back(SecondsSince(start));
    ++result.attempted;

    start = NowNs();
    std::unique_ptr<BoostSession> lb = BuildLb(inst, traced, t);
    build_lb_s[traced].push_back(SecondsSince(start));
    ++result.attempted;

    if (cycle == 0) {
      full_counts = CountsOf(*full);
      lb_counts = CountsOf(*lb);
      full_refs = SolveReferences(*full, SolveMode::kFull, config);
      lb_refs = SolveReferences(*lb, SolveMode::kAuto, config);
      for (const auto& [k, ref] : full_refs) {
        const std::string v = SandwichViolation(ref);
        if (!v.empty()) {
          result.Violation("full k=" + std::to_string(k) + ": " + v);
        }
      }
      CheckPrefixMonotone(lb_refs, &result);
      CountPool(full_counts, trace);
      for (const std::string& path : lb_snapshots) {
        if (!Save(*lb, path, &off, -1, &result)) Fail("cannot save " + path);
      }
      if (!SameFileBytes(lb_snapshots[0], lb_snapshots[1])) {
        result.Violation("the two refresh snapshots are not byte-identical");
      }
    }
    if (!(CountsOf(*full) == full_counts) || !(CountsOf(*lb) == lb_counts)) {
      result.Violation("pool counts differ between builds");
    }
    CheckAllAnswers(*full, SolveMode::kFull, full_refs, "built full pool",
                    &result);
    CheckAllAnswers(*lb, SolveMode::kAuto, lb_refs, "built LB pool", &result);
    lb.reset();

    // Snapshot round trips. The mapped session of one round is destroyed
    // before the next round re-saves the same path: re-saving a file that
    // a live mapping serves from truncates the pages under it.
    constexpr int kSnapshotRounds = 20;
    for (int round = 0; round < kSnapshotRounds; ++round) {
      if (!Save(*full, snapshot, t, -1, &result)) continue;
      const double ms = WarmStarts(*inst.graph, snapshot, SolveMode::kFull,
                                   full_refs, /*check=*/round == 0, t, &result);
      if (ms >= 0 && !traced) warm_ms.push_back(ms);
    }
    rss_mb.push_back(PeakRssMb("self"));
    full.reset();

    if (cycle == 0) {
      // kboostd loads the graph file and the LB pool the first cycle saved
      // (owned: the mmap path serves full pools only) and answers kAuto
      // queries. Its graph file is rewritten by later cycles with the same
      // bytes; the daemon read it once, at start.
      {
        auto loaded = kboost::LoadPoolSnapshot(*inst.graph, lb_snapshots[0]);
        ++result.attempted;
        if (!loaded.ok()) Fail(loaded.status().ToString());
        loaded.value()->Prepare();
        CheckAllAnswers(*loaded.value(), SolveMode::kAuto, lb_refs,
                        "loaded LB snapshot", &result);
      }
      daemon = std::make_unique<Daemon>(
          config.kboostd,
          std::vector<std::string>{
              "--graph=" + inst.graph_path,
              std::string("--pool=") + kPoolName + "=" + lb_snapshots[0]});
      serving = std::make_unique<Serving>(daemon.get(), SolveMode::kAuto,
                                          &lb_refs, lb_snapshots);
    }
    ServeSegment(config, serving.get(), segment, trace, &result);
  });
  FinishServing(serving.get(), 0, &result);

  if (!trace->enabled()) {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("rss_mb", Median(rss_mb), "MiB");
    result.Add("build_s", Median(build_s[0]), "s");
    result.Add("build_lb_s", Median(build_lb_s[0]), "s");
    result.Add("warm_start_ms", Median(warm_ms), "ms");
    AddServeMetrics(*serving, &result);
    return result;
  }
  AddBuildLayers(*trace, sample_busy, &result);
  AddServeLayers(*serving, &result);
  ReplayLayers(config, *inst.graph, snapshot, full_refs,
               config.seconds * kReplayShare, trace, &result);
  CodecLayer(lb_refs, SolveMode::kAuto, trace, &result);
  result.Add("trace.overhead_pct",
             (Median(build_s[1]) / Median(build_s[0]) - 1.0) * 100.0, "%");
  return result;
}

// ---- sandwich and wire-lb --------------------------------------------------

Result RunSandwich(const Config& config, Trace* trace) {
  return RunQueries(config, /*mmap=*/false, SolveMode::kFull, trace);
}

Result RunWireLb(const Config& config, Trace* trace) {
  return RunQueries(config, /*mmap=*/true, SolveMode::kLbOnly, trace);
}

}  // namespace perfbench
