#ifndef KBOOST_CORE_SOLVE_CONTEXT_H_
#define KBOOST_CORE_SOLVE_CONTEXT_H_

#include "src/core/prr_store.h"

namespace kboost {

/// Per-caller scratch for Δ̂ selection work. A prepared pool answers every
/// query as a slice of tables Prepare() built, so Solve() accepts a context
/// for API stability and leaves it untouched. Callers that run
/// PrrCollection::SelectGreedyDelta themselves (the paper-figure benches,
/// replay harnesses) can pass `eval_state` to keep the incremental
/// evaluation engine's fwd/bwd/crit bitmap arenas (one PrrEvalState per pool
/// shard) warm across calls: one context per concurrent caller, reused
/// across sequential calls — the arenas are re-zeroed, not re-allocated,
/// while the shard generations are unchanged.
struct SolveContext {
  ShardedEvalState eval_state;
};

}  // namespace kboost

#endif  // KBOOST_CORE_SOLVE_CONTEXT_H_
