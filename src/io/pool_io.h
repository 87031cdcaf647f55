#ifndef KBOOST_IO_POOL_IO_H_
#define KBOOST_IO_POOL_IO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/core/boost_session.h"
#include "src/io/codec.h"
#include "src/util/status.h"

namespace kboost {

/// Binary snapshot save/load of a prepared BoostSession pool — the sampled
/// PRR-graph arena (full mode) or critical sets (LB mode), the sample
/// counters, the sampler statistics and the sampling metadata (seeds, budget,
/// ε, ℓ, rng seed), behind a versioned header. A reloaded session answers
/// SolveForBudget with bit-identical best sets and estimates, enabling warm
/// restarts and cross-process serving against one prepared index.
///
/// Format: each shard arena is written as eight flat uint32 sections behind
/// a page-aligned section directory, so a nop-coded snapshot is servable
/// directly from an mmap'd file (PoolLoadOptions::use_mmap / MmapPool) with
/// no per-process copy, and each section block may independently be
/// compressed by a pluggable codec (src/io/codec.h) for cold storage.
/// Nop-coded snapshots additionally carry one pool-level coverage section —
/// the critical sets pre-translated to global ids, shard-major — so the mmap
/// path binds the greedy-coverage node pool in place too and warm start does
/// no O(total_critical) re-gather. Every full-mode snapshot ends with the
/// answer table section: the pool's DeltaTable (the Δ̂ greedy order and the
/// prefix activation counts of both candidate orders, ~20 bytes per budget
/// unit), which both load paths validate and copy into the engine, so a
/// restored pool answers full queries as slices without re-running the Δ̂
/// greedy. The header carries format version 4; the retired versions 1–3
/// (3 had no answer table) are refused with a typed InvalidArgument.
///
/// Byte order: headers stamp an endianness marker and the loader rejects
/// snapshots written on a different-endianness host with a typed Status.
///
/// Publication: a save writes a temporary file next to the target, fsyncs
/// it and renames it over the target, so a reader (or a live mapping of the
/// old file) only ever sees a complete snapshot, and a failed save leaves
/// the target untouched.
///
/// Thread count precedence: the header records the writer's num_threads as
/// provenance only. The loader clamps it into [1, ThreadPool::kMaxWorkers]
/// before using it, and any registration with a BoostService overrides it
/// with the service's own Options::num_threads — service options win.

/// How to write a snapshot.
struct PoolSaveOptions {
  /// Codec applied to every arena section block (recorded per block in the
  /// directory). kNop keeps the file mmap-servable; kVarint shrinks it for
  /// cold storage at the cost of a decode-on-load into owned arenas.
  SnapshotCodec codec = SnapshotCodec::kNop;
};

/// What a save produced. num_samples is θ — every sampled PRR-graph,
/// boostable or not — so bytes_per_sample is comparable across modes.
struct PoolSaveResult {
  uint64_t file_bytes = 0;
  uint64_t num_samples = 0;
  double bytes_per_sample = 0.0;
};

/// How to load a snapshot.
struct PoolLoadOptions {
  /// Serve the arenas directly from an mmap of the file (nop-coded
  /// full-mode snapshots only — anything else is a typed FailedPrecondition).
  /// Warm start becomes ~O(validate directory) instead of O(bytes), and the
  /// page cache shares the arena across every process mapping it.
  bool use_mmap = false;
  /// Also run the O(total_edges) deep walk (edge endpoints and critical ids
  /// in range) over the mapped sections. Off by default: the structural
  /// checks memory safety needs always run, and a host mapping its own
  /// snapshot gains little from re-walking every edge at the cost of paging
  /// the whole file in — which would defeat the point of mmap. Owned loads
  /// (and every codec decode) always validate deeply regardless. Also
  /// cross-checks the pool-level coverage section against the arenas'
  /// critical sets.
  bool verify_mapped = false;
};

/// RAII read-only mmap of a snapshot file. External (mmap-backed) PrrStores
/// alias this memory, so the mapping must outlive every session serving from
/// it; the mmap loader enforces that by handing the returned shared_ptr to
/// BoostSession::RetainResource, which transitively pins it for as long as
/// any pool entry holds the session.
class SnapshotMapping {
 public:
  /// Maps with MAP_POPULATE (where available): the whole file is paged in
  /// by one syscall instead of one fault per touched 4 KiB.
  static StatusOr<std::shared_ptr<SnapshotMapping>> Open(
      const std::string& path);

  SnapshotMapping(const SnapshotMapping&) = delete;
  SnapshotMapping& operator=(const SnapshotMapping&) = delete;
  ~SnapshotMapping();

  const char* data() const { return static_cast<const char*>(addr_); }
  size_t size() const { return len_; }

 private:
  SnapshotMapping(void* addr, size_t len) : addr_(addr), len_(len) {}

  void* addr_ = nullptr;
  size_t len_ = 0;
};

/// Atomically publishes the session's pool at `path` (see Publication
/// above). The session must be serving_ready() — call Prepare() first.
StatusOr<PoolSaveResult> SavePoolSnapshot(const BoostSession& session,
                                          const std::string& path,
                                          const PoolSaveOptions& options = {});

/// Restores a session from a snapshot taken against a graph with the same
/// node count. Seeds and BoostOptions come from the snapshot; the returned
/// session is prepared() and never resamples. The header and seeds are read
/// through one open and the full-mode body through a mapping; if a save
/// renamed another snapshot over `path` between the two, the load fails
/// with a transient IoError rather than pairing mismatched halves.
StatusOr<std::unique_ptr<BoostSession>> LoadPoolSnapshot(
    const DirectedGraph& graph, const std::string& path,
    const PoolLoadOptions& options = {});

/// Zero-copy warm start: LoadPoolSnapshot with use_mmap = true.
StatusOr<std::unique_ptr<BoostSession>> MmapPool(const DirectedGraph& graph,
                                                 const std::string& path);

}  // namespace kboost

#endif  // KBOOST_IO_POOL_IO_H_
