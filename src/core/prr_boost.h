#ifndef KBOOST_CORE_PRR_BOOST_H_
#define KBOOST_CORE_PRR_BOOST_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/core/prr_collection.h"
#include "src/core/prr_sampler.h"
#include "src/core/solve_context.h"
#include "src/graph/graph.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace kboost {

/// Tunables for PRR-Boost / PRR-Boost-LB (the paper uses ε = 0.5, ℓ = 1).
struct BoostOptions {
  size_t k = 100;       ///< boost-set budget
  double epsilon = 0.5; ///< sampling slack ε
  double ell = 1.0;     ///< success probability 1 - n^-ℓ
  uint64_t seed = 42;
  int num_threads = DefaultThreadCount();
  /// Number of independent pool shards S. Samples are assigned round-robin
  /// by global sample index, so selections and estimates are bit-identical
  /// for every S (and every thread count) — S only decides how wide
  /// sampling, refresh rebuilds, snapshot I/O and the per-pick re-evaluation
  /// scan can go. Defaults to the hardware worker count so sampling
  /// parallelism is available out of the box.
  int num_shards = DefaultThreadCount();
  /// Hard cap on the PRR-graph pool size θ (0 = no cap). When the IMM
  /// schedule asks for more, sampling stops at the cap and
  /// BoostResult::samples_capped is set; the (1-1/e-ε) guarantee then no
  /// longer formally holds, but selection quality degrades gracefully.
  /// Useful when OPT is tiny relative to n (θ = λ*/OPT explodes).
  size_t max_samples = 0;

  /// The one place option validation lives: k ≥ 1, ε ∈ (0,1), ℓ > 0,
  /// num_threads ∈ [1, ThreadPool::kMaxWorkers], num_shards ∈
  /// [1, PrrCollection::kMaxShards]. Fallible entry points
  /// (BoostSession::Create, set_num_threads, the CLI's --threads/--shards)
  /// all defer here; the trusting constructors KB_CHECK the same predicate.
  Status Validate() const;
};

/// What a query wants answered from a prepared pool.
enum class SolveMode {
  /// The pool's native pipeline: sandwich (full pools) or LB (LB pools).
  kAuto = 0,
  /// Force the full sandwich answer; invalid against an LB-only pool.
  kFull,
  /// Answer from the cached μ̂ greedy order only — O(k) per query on any
  /// pool, including full ones (useful for cheap/approximate traffic).
  kLbOnly,
};

/// A single budget query against a prepared pool — the request-level knobs
/// of the serving API.
struct SolveSpec {
  size_t k = 0;  ///< budget; must be in [1, pool budget]
  SolveMode mode = SolveMode::kAuto;
  /// Worker cap requested for this query: 0 = the pool's configured count;
  /// otherwise must be in [1, ThreadPool::kMaxWorkers]. Validated only —
  /// every answer is a slice of tables Prepare() built, so no query-time
  /// phase runs on workers.
  int num_threads = 0;
  /// Optional cooperative cancellation, polled when the solve starts. When
  /// it reads true the solve reports Status::Cancelled instead of
  /// answering. The flag must outlive the call.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional absolute deadline in SteadyNowNanos() time (0 = none), polled
  /// at the same points as `cancel`; a passed deadline reports
  /// Status::DeadlineExceeded. Absolute (not a duration) so queue wait and
  /// solve time draw down the same budget when a service sets it at
  /// admission.
  int64_t deadline_ns = 0;
};

/// Everything Algorithm 2 produces, plus the statistics the paper reports.
struct BoostResult {
  /// B_sa — the sandwich pick (PRR-Boost) or B_µ (PRR-Boost-LB).
  std::vector<NodeId> best_set;
  /// Δ̂(best_set) in full mode; μ̂(B_µ) in LB mode (Δ̂ needs stored graphs).
  double best_estimate = 0.0;

  std::vector<NodeId> lb_set;      ///< B_µ from NodeSelectionLB
  double lb_mu_hat = 0.0;          ///< μ̂(B_µ)
  double lb_delta_hat = 0.0;       ///< Δ̂(B_µ) (full mode only)
  std::vector<NodeId> delta_set;   ///< B_Δ from NodeSelection (full mode)
  double delta_delta_hat = 0.0;    ///< Δ̂(B_Δ) (full mode only)

  // Pool provenance. `pool_budget` is the budget the IMM schedule sampled
  // the pool at; a BoostSession answering SolveForBudget(k) for k <
  // pool_budget reuses that pool, so the (1-1/e-ε) constants formally
  // correspond to pool_budget (selection quality for the smaller budget is
  // the paper's budget-reuse heuristic). `pool_reused` is set when the call
  // answered from an existing pool without sampling.
  size_t pool_budget = 0;
  bool pool_reused = false;

  // Sampling statistics (Tables 2/3, Figs. 6/11).
  size_t num_samples = 0;    ///< θ
  bool samples_capped = false;  ///< hit BoostOptions::max_samples
  size_t num_boostable = 0;
  size_t num_activated = 0;
  size_t num_hopeless = 0;
  double avg_uncompressed_edges = 0.0;
  double avg_compressed_edges = 0.0;
  double compression_ratio = 0.0;
  size_t stored_graph_bytes = 0;
  size_t edges_examined = 0;
  double sampling_seconds = 0.0;
  double selection_seconds = 0.0;
};

/// A full pool's sandwich answers for every budget k ≤ the pool budget,
/// built once by PrrBoostEngine::Prepare (and persisted in snapshots). Both
/// of Algorithm 2's candidate orders are nested in k — the μ̂ greedy because
/// μ̂ is submodular, the Δ̂ greedy because k is only its loop bound — so an
/// answer is a prefix of each order plus two table reads:
///   B_Δ(k) = order[0..k),      Δ̂(B_Δ(k)) = n·prefix_activated[k-1]/θ
///   B_µ(k) = LB order[0..k),   Δ̂(B_µ(k)) = n·lb_prefix_activated[k-1]/θ
/// (prefixes clamp to the orders' lengths). Counts, not doubles, are stored,
/// and Δ̂ is evaluated by the same expression a from-scratch
/// SelectGreedyDelta(k) / EstimateDelta computes, so answers are
/// bit-identical to the per-query computation they replace.
struct DeltaTable {
  /// NodeSelection's Δ̂ greedy order at the pool budget, PRR-occurrence fill
  /// included.
  std::vector<NodeId> order;
  /// Samples activated by order[0..j]; fill entries repeat the count after
  /// the last greedy pick.
  std::vector<uint64_t> prefix_activated;
  /// Samples activated by the first j+1 nodes of the cached LB order, for
  /// every j below the pool budget; entries past the LB order's length
  /// (it stops early once μ̂ saturates) repeat its last count and are never
  /// read.
  std::vector<uint64_t> lb_prefix_activated;
};

/// Shared machinery behind PRR-Boost and PRR-Boost-LB. Exposed so the
/// experiment harness can reuse the sampled pool (e.g. to evaluate the
/// sandwich ratio μ(B)/Δ_S(B) on perturbed boost sets, Fig. 7/9/12).
class PrrBoostEngine {
 public:
  /// `lb_only` selects the PRR-Boost-LB pipeline: distance-1 sampling and
  /// no stored PRR-graphs.
  PrrBoostEngine(const DirectedGraph& graph, std::vector<NodeId> seeds,
                 const BoostOptions& options, bool lb_only);

  /// Runs SamplingLB (IMM schedule over μ̂), then the node-selection steps,
  /// and returns the assembled result. Idempotent: the pool is sampled once.
  /// Equivalent to SolveForBudget(options.k).
  BoostResult Run();

  /// Samples the pool at options.k via the IMM schedule. Idempotent; called
  /// lazily by SolveForBudget/Run, or eagerly (BoostSession::Prepare).
  void EnsureSampled();

  /// Makes the engine ready for concurrent const Solve() calls: samples the
  /// pool (if needed), builds every lazily-constructed read-only index,
  /// caches the LB greedy order and, on a full pool, builds the DeltaTable
  /// (one Δ̂ greedy at the pool budget plus one incremental pass over the LB
  /// order). Idempotent; a table adopted from a snapshot is not rebuilt.
  /// After Prepare() the engine's query surface is strictly read-only,
  /// which is the thread-safety contract Solve() relies on.
  void Prepare();
  /// Whether Prepare() has run (a snapshot-adopted pool still needs it).
  bool serving_ready() const { return serving_ready_; }

  /// Answers the k-boosting problem for any budget k ≤ options.k on the
  /// already-sampled pool — selection only, no resampling. Every answer is
  /// a slice of the cached LB order and (full mode) the DeltaTable, both
  /// built on first use. The returned result carries
  /// pool_budget/pool_reused provenance. Serial convenience path: samples
  /// lazily and KB_CHECKs the budget — NOT safe to call concurrently.
  BoostResult SolveForBudget(size_t k);

  /// The concurrent serving path: answers `spec` against the prepared pool
  /// in O(k) without touching any engine-owned mutable state, so any number
  /// of threads may call Solve() simultaneously on one prepared engine,
  /// with results bit-identical to the serial SolveForBudget loop.
  /// `context` is accepted for API stability and unused: the answer tables
  /// leave no query-time scratch. Fails with FailedPrecondition before
  /// Prepare(), InvalidArgument for an out-of-range budget/thread count or
  /// a full-mode request against an LB pool, and Cancelled or
  /// DeadlineExceeded when spec.cancel / spec.deadline_ns trips at the
  /// solve's start (polled on entry and again after the kSolveStart fault
  /// site, so a stall injected there cannot hide a cancel or deadline).
  StatusOr<BoostResult> Solve(const SolveSpec& spec,
                              SolveContext* context = nullptr) const;

  /// The sampled pool (valid after Run()).
  const PrrCollection& collection() const { return *collection_; }
  /// Δ̂ on the pool for any boost set (full mode only).
  double EstimateDelta(const std::vector<NodeId>& boost_set) const;
  /// μ̂ on the pool for any boost set.
  double EstimateMu(const std::vector<NodeId>& boost_set) const;

  const DirectedGraph& graph() const { return graph_; }
  const std::vector<NodeId>& seeds() const { return seeds_; }
  const BoostOptions& options() const { return options_; }
  /// Overrides the worker count for subsequent selection and estimator
  /// calls (the CLI's --threads). Sampling keeps the count the engine was
  /// built with — pools are bit-identical for every thread count anyway.
  /// Validated by BoostOptions::Validate (InvalidArgument when out of
  /// range). Not safe to call while Solve() requests are in flight.
  Status set_num_threads(int num_threads);
  bool lb_only() const { return lb_only_; }
  bool sampled() const { return sampled_; }
  bool samples_capped() const { return samples_capped_; }
  /// Aggregate sampling statistics of the pool (valid once sampled).
  const PrrSamplerStats& stats() const { return stats_; }

  /// Pool-snapshot restore (src/io/pool_io): adopts an already-filled pool
  /// and marks sampling done, so every SolveForBudget answers from it.
  /// The engine must not have sampled yet.
  void AdoptPool(std::unique_ptr<PrrCollection> collection,
                 const PrrSamplerStats& stats, bool samples_capped);
  /// Pool-snapshot restore of a full pool's DeltaTable, after AdoptPool and
  /// before Prepare (which then does not rebuild it). Validates the table
  /// against the pool without any selection work: InvalidArgument for an
  /// id ≥ n, a seed, a duplicate, length mismatches (an order longer than
  /// the pool budget, LB counts not exactly the pool budget long),
  /// decreasing counts or counts above the boostable total.
  Status AdoptDeltaTable(DeltaTable table);
  /// The full pool's answer table (valid once Prepare() ran; empty on LB
  /// pools).
  const DeltaTable& delta_table() const { return delta_table_; }

 private:
  /// Caches the NodeSelectionLB greedy order at the pool budget (every
  /// smaller budget's LB answer is a prefix of it) and, on a full pool,
  /// builds the DeltaTable unless one was built or adopted already.
  /// Requires a sampled pool.
  void BuildAnswerTables();

  /// The one answer core both solve paths share: prefix slices of the LB
  /// order and (full answers) the DeltaTable. Requires a sampled pool with
  /// built answer tables; reads them const. `lb_answer` selects the
  /// LB-slice answer (LB pools, or SolveMode::kLbOnly on a full pool).
  /// Timing/provenance fields are left for the caller.
  BoostResult SolvePrepared(size_t k, bool lb_answer) const;

  const DirectedGraph& graph_;
  std::vector<NodeId> seeds_;
  BoostOptions options_;
  bool lb_only_;
  std::vector<uint8_t> excluded_;  // seeds cannot be boosted
  std::unique_ptr<PrrCollection> collection_;
  std::unique_ptr<PrrSampler> sampler_;
  bool sampled_ = false;
  bool samples_capped_ = false;
  bool serving_ready_ = false;
  PrrSamplerStats stats_;
  bool lb_order_ready_ = false;
  PrrCollection::LbResult lb_order_;  // greedy order at options_.k
  bool delta_table_ready_ = false;
  DeltaTable delta_table_;  // full pools only
};

/// PRR-Boost (Algorithm 2): sandwich approximation over {B_µ, B_Δ}.
/// Returns a (1 − 1/e − ε)·µ(B*)/Δ_S(B*) approximation w.p. ≥ 1 − n^-ℓ.
BoostResult PrrBoost(const DirectedGraph& graph,
                     const std::vector<NodeId>& seeds,
                     const BoostOptions& options);

/// PRR-Boost-LB (Sec. V-C): lower-bound-only variant; same guarantee,
/// faster sampling, much smaller memory footprint.
BoostResult PrrBoostLb(const DirectedGraph& graph,
                       const std::vector<NodeId>& seeds,
                       const BoostOptions& options);

}  // namespace kboost

#endif  // KBOOST_CORE_PRR_BOOST_H_
