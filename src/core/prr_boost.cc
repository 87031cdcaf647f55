#include "src/core/prr_boost.h"

#include <algorithm>
#include <cmath>

#include "src/im/imm.h"
#include "src/sim/boost_model.h"
#include "src/util/fault.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace kboost {

Status BoostOptions::Validate() const {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
    return Status::InvalidArgument("epsilon must be in (0, 1), got " +
                                   std::to_string(epsilon));
  }
  if (!(ell > 0.0)) {
    return Status::InvalidArgument("ell must be > 0, got " +
                                   std::to_string(ell));
  }
  if (num_threads < 1 || num_threads > ThreadPool::kMaxWorkers) {
    return Status::InvalidArgument(
        "num_threads (--threads) must be in [1, " +
        std::to_string(ThreadPool::kMaxWorkers) + "], got " +
        std::to_string(num_threads));
  }
  if (num_shards < 1 || num_shards > PrrCollection::kMaxShards) {
    return Status::InvalidArgument(
        "num_shards (--shards) must be in [1, " +
        std::to_string(PrrCollection::kMaxShards) + "], got " +
        std::to_string(num_shards));
  }
  return Status::Ok();
}

PrrBoostEngine::PrrBoostEngine(const DirectedGraph& graph,
                               std::vector<NodeId> seeds,
                               const BoostOptions& options, bool lb_only)
    : graph_(graph),
      seeds_(std::move(seeds)),
      options_(options),
      lb_only_(lb_only) {
  KB_CHECK(graph_.num_nodes() >= 2);
  KB_CHECK(options_.Validate().ok()) << options_.Validate().ToString();
  KB_CHECK(!seeds_.empty()) << "the k-boosting problem requires seeds";
  excluded_ = MakeNodeBitmap(graph_.num_nodes(), seeds_);
  collection_ = std::make_unique<PrrCollection>(graph_.num_nodes(),
                                                options_.num_shards);
  sampler_ = std::make_unique<PrrSampler>(graph_, seeds_, options_.k,
                                          lb_only_, options_.seed,
                                          options_.num_threads);
}

void PrrBoostEngine::EnsureSampled() {
  if (sampled_) return;
  const size_t n = graph_.num_nodes();
  // Algorithm 2 line 1: ℓ' = ℓ(1 + log3 / log n) so that the three failure
  // events (sampling, LB selection, sandwich comparison) union-bound.
  ImmBounds bounds;
  bounds.epsilon = options_.epsilon;
  bounds.ell = options_.ell *
               (1.0 + std::log(3.0) / std::log(static_cast<double>(n)));
  bounds.n = n;
  bounds.k = options_.k;

  ImmScheduleCallbacks callbacks;
  callbacks.ensure_samples = [&](size_t target) {
    if (options_.max_samples > 0 && target > options_.max_samples) {
      target = options_.max_samples;
      samples_capped_ = true;
    }
    return sampler_->EnsureSamples(*collection_, target);
  };
  callbacks.select_coverage = [&]() {
    return collection_->coverage()
        .SelectGreedy(options_.k, &excluded_)
        .coverage_fraction;
  };
  RunImmSchedule(bounds, callbacks);
  stats_ = sampler_->stats();
  sampled_ = true;
}

void PrrBoostEngine::AdoptPool(std::unique_ptr<PrrCollection> collection,
                               const PrrSamplerStats& stats,
                               bool samples_capped) {
  KB_CHECK(!sampled_) << "cannot adopt a pool after sampling";
  KB_CHECK(collection != nullptr &&
           collection->num_graph_nodes() == graph_.num_nodes());
  collection_ = std::move(collection);
  stats_ = stats;
  samples_capped_ = samples_capped;
  sampled_ = true;
}

void PrrBoostEngine::BuildAnswerTables() {
  if (!lb_order_ready_) {
    // NodeSelectionLB at the full pool budget: maximize μ̂ by greedy
    // max-coverage over critical sets. Computed once; nested budgets slice.
    lb_order_ = collection_->SelectGreedyLowerBound(options_.k, excluded_);
    lb_order_ready_ = true;
  }
  if (lb_only_ || delta_table_ready_) return;
  // NodeSelection once at the pool budget: every smaller budget's B_Δ is a
  // prefix of this order. The per-pick fan-out is a few graphs per pick on
  // sampled pools, too little to amortize a worker hand-off, so the table
  // runs serially (any thread count gives the same bits).
  constexpr int kTableThreads = 1;
  PrrCollection::DeltaResult greedy = collection_->SelectGreedyDelta(
      options_.k, excluded_, kTableThreads);
  delta_table_.order = std::move(greedy.nodes);
  delta_table_.prefix_activated = std::move(greedy.prefix_activated);
  // Δ̂ of every LB prefix in one incremental pass (Alg. 2 line 5 compares
  // Δ̂(B_µ) with Δ̂(B_Δ) at each budget), padded to the pool budget so a
  // restored table's length is checkable without recomputing the LB order.
  std::vector<uint64_t>& lb_counts = delta_table_.lb_prefix_activated;
  lb_counts =
      collection_->PrefixActivated(lb_order_.nodes, excluded_, kTableThreads);
  lb_counts.resize(options_.k, lb_counts.empty() ? 0 : lb_counts.back());
  delta_table_ready_ = true;
}

Status PrrBoostEngine::AdoptDeltaTable(DeltaTable table) {
  KB_CHECK(sampled_ && !lb_only_ && !serving_ready_ && !delta_table_ready_)
      << "a DeltaTable is adopted into a restored full pool before Prepare";
  const size_t n = graph_.num_nodes();
  const uint64_t boostable = collection_->num_boostable();
  if (table.order.size() > options_.k ||
      table.prefix_activated.size() != table.order.size()) {
    return Status::InvalidArgument(
        "answer table order and prefix counts disagree with the pool "
        "budget");
  }
  if (table.lb_prefix_activated.size() != options_.k) {
    return Status::InvalidArgument(
        "answer table holds " +
        std::to_string(table.lb_prefix_activated.size()) +
        " LB prefix counts for a pool budget of " +
        std::to_string(options_.k));
  }
  std::vector<uint8_t> seen(n, 0);
  for (const NodeId v : table.order) {
    if (v >= n) {
      return Status::InvalidArgument("answer table node " + std::to_string(v) +
                                     " out of range");
    }
    if (excluded_[v]) {
      return Status::InvalidArgument("answer table boosts seed " +
                                     std::to_string(v));
    }
    if (seen[v]) {
      return Status::InvalidArgument("answer table repeats node " +
                                     std::to_string(v));
    }
    seen[v] = 1;
  }
  const auto counts_valid = [boostable](const std::vector<uint64_t>& counts) {
    uint64_t prev = 0;
    for (const uint64_t c : counts) {
      if (c < prev || c > boostable) return false;
      prev = c;
    }
    return true;
  };
  if (!counts_valid(table.prefix_activated) ||
      !counts_valid(table.lb_prefix_activated)) {
    return Status::InvalidArgument(
        "answer table prefix counts decrease or exceed the boostable "
        "samples");
  }
  delta_table_ = std::move(table);
  delta_table_ready_ = true;
  return Status::Ok();
}

BoostResult PrrBoostEngine::Run() { return SolveForBudget(options_.k); }

void PrrBoostEngine::Prepare() {
  if (serving_ready_) return;
  EnsureSampled();
  // Concurrent const Solve() calls must never take a lazy-build path: warm
  // every inverted index (per-shard builds fan out over the workers) and
  // build the answer tables now, while this thread still has the engine
  // exclusively.
  collection_->WarmIndexes(options_.num_threads);
  BuildAnswerTables();
  serving_ready_ = true;
}

BoostResult PrrBoostEngine::SolvePrepared(size_t k, bool lb_answer) const {
  KB_DCHECK(sampled_ && lb_order_ready_ && (lb_only_ || delta_table_ready_));
  BoostResult result;
  result.pool_budget = options_.k;

  const size_t take = std::min(k, lb_order_.nodes.size());
  result.lb_set.assign(lb_order_.nodes.begin(), lb_order_.nodes.begin() + take);
  result.lb_mu_hat = take > 0 ? lb_order_.prefix_mu_hat[take - 1] : 0.0;

  if (lb_answer) {
    result.best_set = result.lb_set;
    result.best_estimate = result.lb_mu_hat;
  } else {
    // NodeSelection's B_Δ and both Δ̂ values, read from the table: Δ̂ of the
    // empty set is Δ̂ of zero activated samples.
    const DeltaTable& table = delta_table_;
    const size_t take_delta = std::min(k, table.order.size());
    result.delta_set.assign(table.order.begin(),
                            table.order.begin() + take_delta);
    result.delta_delta_hat = collection_->DeltaHat(
        take_delta > 0 ? table.prefix_activated[take_delta - 1] : 0);
    result.lb_delta_hat = collection_->DeltaHat(
        take > 0 ? table.lb_prefix_activated[take - 1] : 0);
    // Sandwich pick: the better of B_µ and B_Δ under Δ̂ (Alg. 2 line 5).
    if (result.lb_delta_hat >= result.delta_delta_hat) {
      result.best_set = result.lb_set;
      result.best_estimate = result.lb_delta_hat;
    } else {
      result.best_set = result.delta_set;
      result.best_estimate = result.delta_delta_hat;
    }
  }

  // Statistics.
  result.num_samples = collection_->num_samples();
  result.samples_capped = samples_capped_;
  result.num_boostable = collection_->num_boostable();
  result.num_activated = collection_->num_activated();
  result.num_hopeless = collection_->num_hopeless();
  result.edges_examined = stats_.edges_examined;
  result.stored_graph_bytes = collection_->StoredGraphBytes();
  if (result.num_boostable > 0) {
    result.avg_uncompressed_edges =
        static_cast<double>(stats_.uncompressed_edges) /
        static_cast<double>(result.num_boostable);
    result.avg_compressed_edges =
        static_cast<double>(stats_.compressed_edges) /
        static_cast<double>(result.num_boostable);
    if (result.avg_compressed_edges > 0) {
      result.compression_ratio =
          result.avg_uncompressed_edges / result.avg_compressed_edges;
    }
  }
  return result;
}

BoostResult PrrBoostEngine::SolveForBudget(size_t k) {
  KB_CHECK(k >= 1 && k <= options_.k)
      << "budget " << k << " exceeds the pool's sampling budget "
      << options_.k;
  const bool had_pool = sampled_;
  WallTimer sampling_timer;
  EnsureSampled();
  const double sampling_seconds = sampling_timer.Seconds();

  WallTimer selection_timer;
  BuildAnswerTables();
  BoostResult result = SolvePrepared(k, lb_only_);
  result.sampling_seconds = sampling_seconds;
  result.pool_reused = had_pool;
  result.selection_seconds = selection_timer.Seconds();
  return result;
}

namespace {

/// The request's stop condition at one poll point, or Ok: the cancel flag
/// first, then the deadline.
Status PollStop(const SolveSpec& spec, const char* when) {
  if (spec.cancel != nullptr && spec.cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled(std::string("request cancelled ") + when);
  }
  if (spec.deadline_ns > 0 && SteadyNowNanos() >= spec.deadline_ns) {
    return Status::DeadlineExceeded(std::string("request deadline passed ") +
                                    when);
  }
  return Status::Ok();
}

}  // namespace

StatusOr<BoostResult> PrrBoostEngine::Solve(const SolveSpec& spec,
                                            SolveContext* /*context*/) const {
  if (!serving_ready_) {
    return Status::FailedPrecondition(
        "pool is not prepared for serving; call Prepare() first");
  }
  if (spec.k < 1 || spec.k > options_.k) {
    return Status::InvalidArgument(
        "budget " + std::to_string(spec.k) + " outside the pool's range [1, " +
        std::to_string(options_.k) + "]");
  }
  bool lb_answer = lb_only_;
  switch (spec.mode) {
    case SolveMode::kAuto:
      break;
    case SolveMode::kLbOnly:
      lb_answer = true;
      break;
    case SolveMode::kFull:
      if (lb_only_) {
        return Status::InvalidArgument(
            "full-mode request against an LB-only pool (Δ̂ needs stored "
            "PRR-graphs)");
      }
      break;
  }
  if (spec.num_threads != 0 &&
      (spec.num_threads < 1 || spec.num_threads > ThreadPool::kMaxWorkers)) {
    return Status::InvalidArgument(
        "request num_threads must be 0 (pool default) or in [1, " +
        std::to_string(ThreadPool::kMaxWorkers) + "], got " +
        std::to_string(spec.num_threads));
  }
  if (Status s = PollStop(spec, "before the solve started"); !s.ok()) return s;
  MaybeInjectFaultDelay(FaultSite::kSolveStart);
  // A cancel or deadline that landed during a stall at the fault site above
  // must not be answered through.
  if (Status s = PollStop(spec, "while the solve started"); !s.ok()) return s;

  WallTimer selection_timer;
  BoostResult result = SolvePrepared(spec.k, lb_answer);
  result.pool_reused = true;
  result.selection_seconds = selection_timer.Seconds();
  return result;
}

Status PrrBoostEngine::set_num_threads(int num_threads) {
  BoostOptions probe = options_;
  probe.num_threads = num_threads;
  if (Status s = probe.Validate(); !s.ok()) return s;
  options_.num_threads = num_threads;
  return Status::Ok();
}

double PrrBoostEngine::EstimateDelta(
    const std::vector<NodeId>& boost_set) const {
  KB_CHECK(!lb_only_) << "Δ̂ needs stored PRR-graphs (full mode)";
  return collection_->EstimateDelta(boost_set, options_.num_threads);
}

double PrrBoostEngine::EstimateMu(const std::vector<NodeId>& boost_set) const {
  return collection_->EstimateMu(boost_set);
}

BoostResult PrrBoost(const DirectedGraph& graph,
                     const std::vector<NodeId>& seeds,
                     const BoostOptions& options) {
  PrrBoostEngine engine(graph, seeds, options, /*lb_only=*/false);
  return engine.Run();
}

BoostResult PrrBoostLb(const DirectedGraph& graph,
                       const std::vector<NodeId>& seeds,
                       const BoostOptions& options) {
  PrrBoostEngine engine(graph, seeds, options, /*lb_only=*/true);
  return engine.Run();
}

}  // namespace kboost
