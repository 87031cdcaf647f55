#include "src/io/pool_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/core/prr_collection.h"
#include "src/core/prr_sampler.h"
#include "src/im/coverage.h"
#include "src/util/fault.h"
#include "src/util/thread_pool.h"

namespace kboost {

namespace {

constexpr char kMagic[8] = {'K', 'B', 'P', 'R', 'R', 'P', 'O', 'L'};
/// The one snapshot format: a fixed header (a 128-byte prefix plus a 32-byte
/// extension: endianness marker, default codec, alignment, directory
/// offset), the seed list, then the body. The full-mode body is a section
/// directory over aligned flat uint32 blocks — eight per shard plus one
/// pool-level coverage section (the critical sets translated to global ids,
/// shard-major; present on nop-coded snapshots only), each independently
/// codec-coded — so a nop-coded snapshot is servable in place from an mmap,
/// coverage pool included — then the answer table section (the pool's
/// DeltaTable, always nop-coded). Versions 1 and 2 were stream formats and
/// version 3 had no answer table; all three are refused.
constexpr uint32_t kVersion = 4;
constexpr uint32_t kMinVersion = 4;

constexpr uint32_t kFlagLbOnly = 1u << 0;
constexpr uint32_t kFlagSamplesCapped = 1u << 1;

constexpr uint64_t kHeaderBytes = 160;  // 128-byte prefix + 32-byte extension
constexpr uint32_t kEndianMarker = 0x01020304u;
constexpr uint64_t kShardAlign = 4096;  // shard regions start page-aligned
constexpr uint64_t kBlockAlign = 64;    // section blocks cache-line-aligned
constexpr size_t kNumSections = 8;
/// Per-shard directory entry: u64 num_graphs + kNumSections section records
/// of {u64 offset, u64 stored_bytes, u64 raw_bytes, u32 codec, u32 reserved}.
constexpr uint64_t kDirEntryBytes = 8 + kNumSections * 32;
/// One more section record after the shard entries: the pool-level coverage
/// node pool. All-zero when absent (compressed snapshots derive it on load).
constexpr uint64_t kCoverageEntryBytes = 32;
/// The last directory record: the answer table section, laid out as u64
/// order length L, u64 LB length L_lb, u32 order[L], u64 prefix counts[L],
/// u64 LB prefix counts[L_lb] (read with memcpy; no alignment assumed).
constexpr uint64_t kTableEntryBytes = 32;
constexpr uint64_t kTableHeadBytes = 16;

/// Fixed-size snapshot header. Every field is written explicitly (no struct
/// dump), so the on-disk layout is independent of compiler padding.
struct Header {
  uint32_t version = kVersion;
  uint32_t flags = 0;
  uint64_t num_graph_nodes = 0;
  uint64_t pool_budget = 0;  // BoostOptions::k the schedule sampled at
  double epsilon = 0.0;
  double ell = 0.0;
  uint64_t rng_seed = 0;
  uint64_t max_samples = 0;
  uint32_t num_threads = 0;
  uint32_t num_shards = 1;
  uint64_t num_seeds = 0;
  uint64_t num_boostable = 0;
  uint64_t num_activated = 0;
  uint64_t num_hopeless = 0;
  uint64_t edges_examined = 0;
  uint64_t uncompressed_edges = 0;
  uint64_t compressed_edges = 0;
  // Extension, at bytes [128, 160). dir_offset is 0 on LB-only snapshots
  // (which store critical sets, not arenas, and have no directory).
  uint32_t endian_marker = kEndianMarker;
  uint32_t default_codec = 0;
  uint64_t section_align = kShardAlign;
  uint64_t dir_offset = 0;
  uint64_t reserved = 0;
};

/// One arena section block as recorded in the directory. `offset` is
/// absolute in the file; `raw_bytes` is the decoded length (4 × value
/// count); for SnapshotCodec::kNop, stored_bytes == raw_bytes and the block
/// IS the arena memory.
struct SectionEntry {
  uint64_t offset = 0;
  uint64_t stored_bytes = 0;
  uint64_t raw_bytes = 0;
  uint32_t codec = 0;
  uint32_t reserved = 0;
};

/// Section order within each shard's directory entry.
enum SectionIndex : size_t {
  kSecNumNodes = 0,
  kSecNumCritical = 1,
  kSecGlobalIds = 2,
  kSecOutOffsets = 3,
  kSecInOffsets = 4,
  kSecOutEdges = 5,
  kSecInEdges = 6,
  kSecCritical = 7,
};

struct ShardDir {
  uint64_t num_graphs = 0;
  SectionEntry sections[kNumSections];
};

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

uint64_t ReadU64At(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t ReadU32At(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Bytes left between the current position and the end of the stream. Used
/// to bound every count-driven allocation: a corrupt count larger than the
/// file itself is rejected before any resize happens.
uint64_t RemainingBytes(std::istream& in) {
  const std::streampos pos = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(pos);
  return static_cast<uint64_t>(end - pos);
}

uint64_t AlignUp(uint64_t value, uint64_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

void WriteZeros(std::ostream& out, uint64_t count) {
  static constexpr char kZeros[4096] = {};
  while (count > 0) {
    const uint64_t chunk = std::min<uint64_t>(count, sizeof(kZeros));
    out.write(kZeros, static_cast<std::streamsize>(chunk));
    count -= chunk;
  }
}

void WriteHeader(std::ostream& out, const Header& h) {
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, h.version);
  WritePod(out, h.flags);
  WritePod(out, h.num_graph_nodes);
  WritePod(out, h.pool_budget);
  WritePod(out, h.epsilon);
  WritePod(out, h.ell);
  WritePod(out, h.rng_seed);
  WritePod(out, h.max_samples);
  WritePod(out, h.num_threads);
  WritePod(out, h.num_shards);
  WritePod(out, h.num_seeds);
  WritePod(out, h.num_boostable);
  WritePod(out, h.num_activated);
  WritePod(out, h.num_hopeless);
  WritePod(out, h.edges_examined);
  WritePod(out, h.uncompressed_edges);
  WritePod(out, h.compressed_edges);
  WritePod(out, h.endian_marker);
  WritePod(out, h.default_codec);
  WritePod(out, h.section_align);
  WritePod(out, h.dir_offset);
  WritePod(out, h.reserved);
}

Status ReadHeader(std::istream& in, const std::string& path, Header* h) {
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a kboost pool snapshot: " + path);
  }
  if (!ReadPod(in, &h->version) || !ReadPod(in, &h->flags)) {
    return Status::IoError("truncated pool snapshot header: " + path);
  }
  // Version gates the field layout, so it must be checked before the
  // remaining fields are interpreted.
  if (h->version < kMinVersion || h->version > kVersion) {
    return Status::InvalidArgument(
        "unsupported pool snapshot version " + std::to_string(h->version) +
        " (this build reads versions " + std::to_string(kMinVersion) + ".." +
        std::to_string(kVersion) + ")");
  }
  if (!ReadPod(in, &h->num_graph_nodes) || !ReadPod(in, &h->pool_budget) ||
      !ReadPod(in, &h->epsilon) || !ReadPod(in, &h->ell) ||
      !ReadPod(in, &h->rng_seed) || !ReadPod(in, &h->max_samples) ||
      !ReadPod(in, &h->num_threads) || !ReadPod(in, &h->num_shards) ||
      !ReadPod(in, &h->num_seeds) || !ReadPod(in, &h->num_boostable) ||
      !ReadPod(in, &h->num_activated) || !ReadPod(in, &h->num_hopeless) ||
      !ReadPod(in, &h->edges_examined) ||
      !ReadPod(in, &h->uncompressed_edges) ||
      !ReadPod(in, &h->compressed_edges) ||
      !ReadPod(in, &h->endian_marker) || !ReadPod(in, &h->default_codec) ||
      !ReadPod(in, &h->section_align) || !ReadPod(in, &h->dir_offset) ||
      !ReadPod(in, &h->reserved)) {
    return Status::IoError("truncated pool snapshot header: " + path);
  }
  if (h->endian_marker != kEndianMarker) {
    return Status::InvalidArgument(
        "pool snapshot byte order does not match this host "
        "(endianness marker mismatch): " +
        path);
  }
  return Status::Ok();
}

/// Global ids must fit the serving graph before views reach evaluators: the
/// pool's inverted index is addressed by global id, so an oversized id would
/// index out of bounds. Local 0 is the super-seed slot, not a graph node.
Status CheckGlobalIds(const PrrStore& store, uint64_t num_graph_nodes) {
  // Flat prefix-sum walk over the arena's id pool — identical coverage to
  // iterating View(g) per graph (every slot from kRootLocal on), but without
  // materializing a view per graph; this runs on every snapshot load.
  const NodeId* ids = store.raw_global_ids().data();
  const size_t num_graphs = store.num_graphs();
  uint64_t begin = 0;
  for (size_t g = 0; g < num_graphs; ++g) {
    const uint32_t n = store.num_nodes(g);
    const NodeId* p = ids + begin + PrrGraph::kRootLocal;
    const NodeId* end = ids + begin + n;
    bool ok = true;
    for (; p < end; ++p) ok &= *p < num_graph_nodes;
    if (!ok) {
      for (p = ids + begin + PrrGraph::kRootLocal; *p < num_graph_nodes; ++p) {
      }
      return Status::OutOfRange("snapshot PRR-graph node out of range: " +
                                std::to_string(*p));
    }
    begin += n;
  }
  return Status::Ok();
}

/// Per-entry structural checks for one section block: 4-byte aligned, in
/// bounds, non-overlapping and in file order (`prev_end` advances); codec
/// known; nop blocks stored verbatim; value count bounded by stored bytes
/// (all codecs emit ≥ 1 byte per value, so a corrupt raw_bytes can never
/// drive a pathological allocation).
Status ValidateSectionEntry(const SectionEntry& e, const std::string& where,
                            uint64_t file_size, uint64_t* prev_end,
                            const std::string& path) {
  if (e.offset % sizeof(uint32_t) != 0) {
    return Status::InvalidArgument("misaligned " + where + ": " + path);
  }
  if (e.offset < *prev_end || e.offset > file_size ||
      e.stored_bytes > file_size - e.offset) {
    return Status::InvalidArgument(
        where + " overlaps another section or exceeds the snapshot: " + path);
  }
  if (e.raw_bytes % sizeof(uint32_t) != 0) {
    return Status::InvalidArgument(where + " has a non-uint32 raw length: " +
                                   path);
  }
  if (CodecById(e.codec) == nullptr) {
    return Status::InvalidArgument("unknown codec id " +
                                   std::to_string(e.codec) + " in " + where +
                                   ": " + path);
  }
  if (e.codec == static_cast<uint32_t>(SnapshotCodec::kNop) &&
      e.stored_bytes != e.raw_bytes) {
    return Status::InvalidArgument("nop-coded " + where +
                                   " has stored != raw bytes: " + path);
  }
  if (e.raw_bytes / sizeof(uint32_t) > e.stored_bytes) {
    return Status::InvalidArgument(
        where + " declares more values than its stored bytes encode: " + path);
  }
  *prev_end = e.offset + e.stored_bytes;
  return Status::Ok();
}

/// True for the all-zero entry the writer leaves when a snapshot carries no
/// pool-level coverage section (compressed snapshots; derived on load).
bool CoverageAbsent(const SectionEntry& e) {
  return e.offset == 0 && e.stored_bytes == 0 && e.raw_bytes == 0;
}

/// Structural validation of a section directory against the mapped file
/// length: every shard block, the pool-level coverage section (when
/// present, it must follow the shard regions and hold exactly as many
/// values as the shard critical sections combined), then the nop-coded
/// answer table section, which every full-mode snapshot carries.
Status ValidateDirectory(const std::vector<ShardDir>& dirs,
                         const SectionEntry& coverage,
                         const SectionEntry& table, uint64_t dir_end,
                         uint64_t file_size, const std::string& path) {
  uint64_t prev_end = dir_end;
  for (size_t s = 0; s < dirs.size(); ++s) {
    const ShardDir& dir = dirs[s];
    if (dir.num_graphs > file_size / sizeof(uint32_t)) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) +
          " declares more graphs than the snapshot could hold: " + path);
    }
    for (size_t i = 0; i < kNumSections; ++i) {
      const std::string where =
          "section " + std::to_string(i) + " of shard " + std::to_string(s);
      if (Status e = ValidateSectionEntry(dir.sections[i], where, file_size,
                                          &prev_end, path);
          !e.ok()) {
        return e;
      }
    }
    const uint64_t size_table_bytes = dir.num_graphs * sizeof(uint32_t);
    if (dir.sections[kSecNumNodes].raw_bytes != size_table_bytes ||
        dir.sections[kSecNumCritical].raw_bytes != size_table_bytes) {
      return Status::InvalidArgument(
          "size-table sections disagree with the graph count of shard " +
          std::to_string(s) + ": " + path);
    }
  }
  if (!CoverageAbsent(coverage)) {
    if (Status e = ValidateSectionEntry(coverage, "the coverage section",
                                        file_size, &prev_end, path);
        !e.ok()) {
      return e;
    }
    uint64_t critical_bytes = 0;
    for (const ShardDir& dir : dirs) {
      critical_bytes += dir.sections[kSecCritical].raw_bytes;
    }
    if (coverage.raw_bytes != critical_bytes) {
      return Status::InvalidArgument(
          "the coverage section disagrees with the shard critical pools: " +
          path);
    }
  }
  if (Status e = ValidateSectionEntry(table, "the answer table section",
                                      file_size, &prev_end, path);
      !e.ok()) {
    return e;
  }
  if (table.codec != static_cast<uint32_t>(SnapshotCodec::kNop) ||
      table.raw_bytes < kTableHeadBytes) {
    return Status::InvalidArgument("snapshot has no answer table section: " +
                                   path);
  }
  return Status::Ok();
}

/// Copies the answer table out of its (validated, in-bounds) section. The
/// two declared lengths must account for the section's bytes exactly; the
/// contents are validated against the pool by
/// PrrBoostEngine::AdoptDeltaTable.
Status ReadDeltaTable(const char* base, const SectionEntry& e,
                      const std::string& path, DeltaTable* table) {
  const char* p = base + e.offset;
  const uint64_t order_len = ReadU64At(p);
  const uint64_t lb_len = ReadU64At(p + 8);
  const uint64_t body = e.raw_bytes - kTableHeadBytes;
  constexpr uint64_t kOrderEntryBytes = sizeof(NodeId) + sizeof(uint64_t);
  if (order_len > body / kOrderEntryBytes ||
      lb_len != (body - order_len * kOrderEntryBytes) / sizeof(uint64_t) ||
      (body - order_len * kOrderEntryBytes) % sizeof(uint64_t) != 0) {
    return Status::InvalidArgument(
        "answer table lengths disagree with its section size: " + path);
  }
  p += kTableHeadBytes;
  const auto copy_out = [&p](auto* values, uint64_t count) {
    values->resize(count);
    const size_t bytes = count * sizeof((*values)[0]);
    if (bytes > 0) std::memcpy(values->data(), p, bytes);
    p += bytes;
  };
  copy_out(&table->order, order_len);
  copy_out(&table->prefix_activated, order_len);
  copy_out(&table->lb_prefix_activated, lb_len);
  return Status::Ok();
}

/// verify_mapped rigor for the coverage section: it must be exactly the
/// shard-major gather of every arena's critical locals through its global
/// ids — the pool the owned-restore path would rebuild.
Status CheckCoverageSection(const std::vector<PrrStore>& stores,
                            std::span<const uint32_t> section,
                            const std::string& path) {
  const uint32_t* want = section.data();
  for (const PrrStore& store : stores) {
    const NodeId* ids = store.raw_global_ids().data();
    const uint32_t* cursor = store.raw_critical().data();
    const size_t store_graphs = store.num_graphs();
    uint64_t node_begin = 0;
    for (size_t g = 0; g < store_graphs; ++g) {
      const NodeId* base = ids + node_begin;
      for (const uint32_t* end = cursor + store.critical_count(g);
           cursor != end; ++cursor) {
        if (*want++ != base[*cursor]) {
          return Status::InvalidArgument(
              "coverage section disagrees with the arena critical sets: " +
              path);
        }
      }
      node_begin += store.num_nodes(g);
    }
  }
  return Status::Ok();
}

/// LB body: the critical sets as one flat offsets/nodes pair
/// over the non-empty sample numbering.
void WriteLbBody(std::ostream& out, const PrrCollection& pool) {
  const CoverageSelector& coverage = pool.coverage();
  const uint64_t num_sets = coverage.num_nonempty_sets();
  WritePod(out, num_sets);
  uint64_t offset = 0;
  WritePod(out, offset);
  for (uint64_t i = 0; i < num_sets; ++i) {
    offset += coverage.SetNodes(i).size();
    WritePod(out, offset);
  }
  for (uint64_t i = 0; i < num_sets; ++i) {
    const std::span<const NodeId> nodes = coverage.SetNodes(i);
    out.write(reinterpret_cast<const char*>(nodes.data()),
              static_cast<std::streamsize>(nodes.size() * sizeof(NodeId)));
  }
}

/// Streams the snapshot of `session` (prepared) into `out`, coding every
/// arena section with `codec`. Returns the snapshot length in bytes; write
/// errors surface as the stream's state.
uint64_t WriteSnapshot(std::ostream& out, const BoostSession& session,
                       const Codec& codec) {
  const PrrBoostEngine& engine = session.engine();
  const PrrCollection& pool = engine.collection();
  const PrrSamplerStats& stats = engine.stats();

  Header h;
  h.flags = (session.lb_only() ? kFlagLbOnly : 0) |
            (engine.samples_capped() ? kFlagSamplesCapped : 0);
  h.num_graph_nodes = pool.num_graph_nodes();
  h.pool_budget = session.budget();
  h.epsilon = session.options().epsilon;
  h.ell = session.options().ell;
  h.rng_seed = session.options().seed;
  h.max_samples = session.options().max_samples;
  h.num_threads = static_cast<uint32_t>(session.options().num_threads);
  h.num_shards = static_cast<uint32_t>(pool.num_shards());
  h.num_seeds = session.seeds().size();
  h.num_boostable = pool.num_boostable();
  h.num_activated = pool.num_activated();
  h.num_hopeless = pool.num_hopeless();
  h.edges_examined = stats.edges_examined;
  h.uncompressed_edges = stats.uncompressed_edges;
  h.compressed_edges = stats.compressed_edges;
  h.default_codec = static_cast<uint32_t>(codec.id());
  const uint64_t seeds_bytes = h.num_seeds * sizeof(NodeId);
  h.dir_offset = session.lb_only() ? 0 : kHeaderBytes + seeds_bytes;
  WriteHeader(out, h);
  out.write(reinterpret_cast<const char*>(session.seeds().data()),
            static_cast<std::streamsize>(seeds_bytes));

  if (session.lb_only()) {
    WriteLbBody(out, pool);
    return static_cast<uint64_t>(out.tellp());
  }
  // Full-mode body: a zeroed directory placeholder, then each shard's eight
  // section blocks streamed straight from the arena (no serialize-to-
  // string staging — the nop path writes the arena spans verbatim; a
  // compressing codec stages one section at a time), then, for nop-coded
  // (mmap-servable) snapshots, the pool-level coverage section, then the
  // answer table, then the directory backpatched with the final offsets and
  // sizes.
  const size_t num_shards = pool.num_shards();
  const uint64_t dir_bytes =
      num_shards * kDirEntryBytes + kCoverageEntryBytes + kTableEntryBytes;
  WriteZeros(out, dir_bytes);
  uint64_t pos = h.dir_offset + dir_bytes;

  std::vector<ShardDir> dirs(num_shards);
  std::string encode_buf;
  for (size_t s = 0; s < num_shards; ++s) {
    const PrrStore& store = pool.shard_store(s);
    const size_t num_graphs = store.num_graphs();
    std::vector<uint32_t> num_nodes(num_graphs), num_critical(num_graphs);
    for (size_t g = 0; g < num_graphs; ++g) {
      num_nodes[g] = store.num_nodes(g);
      num_critical[g] = static_cast<uint32_t>(store.critical_count(g));
    }
    const std::span<const uint32_t> sections[kNumSections] = {
        num_nodes,
        num_critical,
        store.raw_global_ids(),
        store.raw_out_offsets(),
        store.raw_in_offsets(),
        store.raw_out_edges(),
        store.raw_in_edges(),
        store.raw_critical()};

    dirs[s].num_graphs = num_graphs;
    const uint64_t shard_begin = AlignUp(pos, kShardAlign);
    WriteZeros(out, shard_begin - pos);
    pos = shard_begin;
    for (size_t i = 0; i < kNumSections; ++i) {
      const uint64_t block_begin = AlignUp(pos, kBlockAlign);
      WriteZeros(out, block_begin - pos);
      pos = block_begin;
      SectionEntry& e = dirs[s].sections[i];
      e.offset = pos;
      e.raw_bytes = sections[i].size() * sizeof(uint32_t);
      e.codec = static_cast<uint32_t>(codec.id());
      if (codec.id() == SnapshotCodec::kNop) {
        if (!sections[i].empty()) {
          out.write(reinterpret_cast<const char*>(sections[i].data()),
                    static_cast<std::streamsize>(e.raw_bytes));
        }
        e.stored_bytes = e.raw_bytes;
      } else {
        encode_buf.clear();
        codec.Encode(sections[i], &encode_buf);
        out.write(encode_buf.data(),
                  static_cast<std::streamsize>(encode_buf.size()));
        e.stored_bytes = encode_buf.size();
      }
      pos += e.stored_bytes;
    }
  }

  // Pool-level coverage section: every graph's critical set translated to
  // global ids, shard-major in stored-graph order — exactly the node pool
  // RestoreFullPool would gather, written once so an mmap load can bind
  // the greedy-coverage selector in place. Skipped (all-zero entry) for
  // compressed snapshots, which decode into owned arenas and re-gather.
  SectionEntry coverage_entry;
  if (codec.id() == SnapshotCodec::kNop) {
    std::vector<uint32_t> coverage_pool;
    size_t total_critical = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      total_critical += pool.shard_store(s).raw_critical().size();
    }
    coverage_pool.reserve(total_critical);
    for (size_t s = 0; s < num_shards; ++s) {
      const PrrStore& store = pool.shard_store(s);
      const NodeId* ids = store.raw_global_ids().data();
      const uint32_t* cursor = store.raw_critical().data();
      const size_t store_graphs = store.num_graphs();
      uint64_t node_begin = 0;
      for (size_t g = 0; g < store_graphs; ++g) {
        const NodeId* node_base = ids + node_begin;
        for (const uint32_t* end = cursor + store.critical_count(g);
             cursor != end; ++cursor) {
          coverage_pool.push_back(node_base[*cursor]);
        }
        node_begin += store.num_nodes(g);
      }
    }
    const uint64_t block_begin = AlignUp(pos, kBlockAlign);
    WriteZeros(out, block_begin - pos);
    pos = block_begin;
    coverage_entry.offset = pos;
    coverage_entry.raw_bytes = coverage_pool.size() * sizeof(uint32_t);
    coverage_entry.stored_bytes = coverage_entry.raw_bytes;
    coverage_entry.codec = static_cast<uint32_t>(SnapshotCodec::kNop);
    if (!coverage_pool.empty()) {
      out.write(reinterpret_cast<const char*>(coverage_pool.data()),
                static_cast<std::streamsize>(coverage_entry.raw_bytes));
    }
    pos += coverage_entry.stored_bytes;
  }

  // The answer table, nop-coded on every snapshot: the warm start copies
  // it (a few KiB) instead of re-running the Δ̂ greedy.
  const DeltaTable& table = engine.delta_table();
  SectionEntry table_entry;
  {
    const uint64_t block_begin = AlignUp(pos, kBlockAlign);
    WriteZeros(out, block_begin - pos);
    pos = block_begin;
    const uint64_t order_len = table.order.size();
    const uint64_t lb_len = table.lb_prefix_activated.size();
    WritePod(out, order_len);
    WritePod(out, lb_len);
    const auto write_span = [&out](const auto& values) {
      out.write(reinterpret_cast<const char*>(values.data()),
                static_cast<std::streamsize>(values.size() *
                                             sizeof(values[0])));
    };
    write_span(table.order);
    write_span(table.prefix_activated);
    write_span(table.lb_prefix_activated);
    table_entry.offset = pos;
    table_entry.raw_bytes = kTableHeadBytes +
                            order_len * (sizeof(NodeId) + sizeof(uint64_t)) +
                            lb_len * sizeof(uint64_t);
    table_entry.stored_bytes = table_entry.raw_bytes;
    table_entry.codec = static_cast<uint32_t>(SnapshotCodec::kNop);
    pos += table_entry.stored_bytes;
  }

  out.seekp(static_cast<std::streamoff>(h.dir_offset));
  for (const ShardDir& dir : dirs) {
    WritePod(out, dir.num_graphs);
    for (const SectionEntry& e : dir.sections) {
      WritePod(out, e.offset);
      WritePod(out, e.stored_bytes);
      WritePod(out, e.raw_bytes);
      WritePod(out, e.codec);
      WritePod(out, e.reserved);
    }
  }
  for (const SectionEntry& e : {coverage_entry, table_entry}) {
    WritePod(out, e.offset);
    WritePod(out, e.stored_bytes);
    WritePod(out, e.raw_bytes);
    WritePod(out, e.codec);
    WritePod(out, e.reserved);
  }
  return pos;
}

/// Exclusively creates a fresh file beside `path` (same directory, so the
/// final rename(2) cannot cross filesystems) and returns its name and an fd
/// open on it. The 0666 mode is subject to the umask, as an ordinary
/// create would be.
Status CreateTempSibling(const std::string& path, std::string* tmp_path,
                         int* fd) {
  static std::atomic<uint64_t> counter{0};
  const std::string prefix =
      path + ".tmp." + std::to_string(::getpid()) + ".";
  for (int attempt = 0; attempt < 16; ++attempt) {
    *tmp_path = prefix;
    *tmp_path += std::to_string(counter.fetch_add(1));
    *fd = ::open(tmp_path->c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                 0666);
    if (*fd >= 0) return Status::Ok();
    if (errno != EEXIST) break;
  }
  return Status::IoError("cannot open for writing: " + path);
}

}  // namespace

SnapshotMapping::~SnapshotMapping() {
  if (addr_ != nullptr) ::munmap(addr_, len_);
}

StatusOr<std::shared_ptr<SnapshotMapping>> SnapshotMapping::Open(
    const std::string& path) {
  if (MaybeInjectFault(FaultSite::kSnapshotMmap)) {
    return Status::IoError("injected fault: mmap snapshot: " + path);
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open for mapping: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return Status::IoError("cannot stat for mapping: " + path);
  }
  const size_t len = static_cast<size_t>(st.st_size);
  int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
  // Prefault in one syscall instead of one minor fault per touched 4 KiB —
  // load-time validation walks most of the file anyway, and fault storms
  // were the dominant cost of warm-start-size mappings. Without it (non-
  // Linux) on-demand paging still works.
  flags |= MAP_POPULATE;
#endif
  void* addr = ::mmap(nullptr, len, PROT_READ, flags, fd, 0);
  ::close(fd);  // the mapping holds its own reference to the file
  if (addr == MAP_FAILED) {
    return Status::IoError("mmap failed: " + path);
  }
  return std::shared_ptr<SnapshotMapping>(new SnapshotMapping(addr, len));
}

StatusOr<PoolSaveResult> SavePoolSnapshot(const BoostSession& session,
                                          const std::string& path,
                                          const PoolSaveOptions& options) {
  if (!session.serving_ready()) {
    return Status::InvalidArgument(
        "session pool not prepared; call Prepare() before saving");
  }
  const Codec* codec = CodecById(static_cast<uint32_t>(options.codec));
  if (codec == nullptr) {
    return Status::InvalidArgument("unknown snapshot codec id " +
                                   std::to_string(static_cast<uint32_t>(
                                       options.codec)));
  }
  // Write a temporary sibling, make it durable, then rename it over `path`:
  // a mapping of the old file keeps its inode (and its bytes), a reader
  // never sees a partial snapshot, and any failure leaves `path` untouched.
  std::string tmp_path;
  int fd = -1;
  if (Status s = CreateTempSibling(path, &tmp_path, &fd); !s.ok()) return s;
  uint64_t file_bytes = 0;
  Status published = Status::Ok();
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (out) file_bytes = WriteSnapshot(out, session, *codec);
    out.close();
    if (!out) published = Status::IoError("write failed: " + path);
  }
  if (published.ok() && ::fsync(fd) != 0) {
    published = Status::IoError("fsync failed: " + path);
  }
  ::close(fd);
  if (published.ok() && ::rename(tmp_path.c_str(), path.c_str()) != 0) {
    published = Status::IoError("cannot publish snapshot: " + path);
  }
  if (!published.ok()) {
    ::unlink(tmp_path.c_str());
    return published;
  }

  const PrrCollection& pool = session.engine().collection();
  PoolSaveResult result;
  result.file_bytes = file_bytes;
  result.num_samples =
      pool.num_boostable() + pool.num_activated() + pool.num_hopeless();
  result.bytes_per_sample =
      result.num_samples > 0
          ? static_cast<double>(result.file_bytes) /
                static_cast<double>(result.num_samples)
          : 0.0;
  return result;
}

StatusOr<std::unique_ptr<BoostSession>> LoadPoolSnapshot(
    const DirectedGraph& graph, const std::string& path,
    const PoolLoadOptions& options) {
  if (MaybeInjectFault(FaultSite::kSnapshotOpen)) {
    return Status::IoError("injected fault: open snapshot: " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);

  Header h;
  Status header_status = ReadHeader(in, path, &h);
  if (!header_status.ok()) return header_status;
  if (h.num_graph_nodes != graph.num_nodes()) {
    return Status::InvalidArgument(
        "pool snapshot was taken against a graph with " +
        std::to_string(h.num_graph_nodes) + " nodes, not " +
        std::to_string(graph.num_nodes()));
  }
  if (h.pool_budget == 0 || h.num_seeds == 0 ||
      h.num_seeds > graph.num_nodes() || h.num_shards == 0 ||
      h.num_shards > static_cast<uint32_t>(PrrCollection::kMaxShards)) {
    return Status::InvalidArgument("corrupt pool snapshot header: " + path);
  }
  const bool lb_only = (h.flags & kFlagLbOnly) != 0;
  if (options.use_mmap && lb_only) {
    return Status::FailedPrecondition(
        "LB-only snapshot holds critical sets, not arena sections; the "
        "mmap path serves full-mode pools only: " +
        path);
  }

  if (MaybeInjectFault(FaultSite::kSnapshotRead)) {
    return Status::IoError("injected fault: snapshot body read: " + path);
  }
  std::vector<NodeId> seeds(h.num_seeds);
  in.read(reinterpret_cast<char*>(seeds.data()),
          static_cast<std::streamsize>(h.num_seeds * sizeof(NodeId)));
  if (!in || MaybeInjectFault(FaultSite::kSnapshotShortRead)) {
    return Status::IoError("truncated pool snapshot: " + path);
  }
  for (NodeId s : seeds) {
    if (s >= graph.num_nodes()) {
      return Status::OutOfRange("snapshot seed out of range: " +
                                std::to_string(s));
    }
  }

  // The writer's thread count is provenance, not a command: clamp it into
  // the valid range before it reaches BoostOptions (whose trusting
  // constructor would abort on garbage), and note that registering with a
  // BoostService overrides it with the service's Options::num_threads.
  const int load_threads = static_cast<int>(std::max<uint32_t>(
      1, std::min<uint32_t>(h.num_threads,
                            static_cast<uint32_t>(ThreadPool::kMaxWorkers))));
  // Restore-time parallelism is additionally capped by this host's cores:
  // the writer may have had more, and fanning tiny per-shard work (an mmap
  // attach is O(num_graphs) metadata, not O(bytes)) across more workers
  // than cores only buys wake/join overhead on the warm-start path.
  const int io_threads = std::max(
      1, std::min(load_threads,
                  static_cast<int>(std::thread::hardware_concurrency())));

  if (MaybeInjectFault(FaultSite::kAllocPressure)) {
    return Status::ResourceExhausted(
        "injected fault: allocation pressure restoring pool: " + path);
  }
  std::shared_ptr<SnapshotMapping> mapping;
  DeltaTable table;  // full mode: read after the section directory
  auto pool = std::make_unique<PrrCollection>(
      graph.num_nodes(), static_cast<int>(h.num_shards));
  if (lb_only) {
    uint64_t num_sets = 0;
    if (!ReadPod(in, &num_sets) || num_sets != h.num_boostable ||
        num_sets > RemainingBytes(in) / sizeof(uint64_t)) {
      return Status::InvalidArgument("corrupt LB pool snapshot: " + path);
    }
    std::vector<uint64_t> offsets(num_sets + 1);
    in.read(reinterpret_cast<char*>(offsets.data()),
            static_cast<std::streamsize>(offsets.size() * sizeof(uint64_t)));
    if (!in || offsets[0] != 0) {
      return Status::InvalidArgument("corrupt LB pool snapshot: " + path);
    }
    for (uint64_t i = 0; i < num_sets; ++i) {
      if (offsets[i] > offsets[i + 1]) {
        return Status::InvalidArgument("corrupt LB pool snapshot: " + path);
      }
    }
    if (offsets[num_sets] > RemainingBytes(in) / sizeof(NodeId)) {
      return Status::InvalidArgument("corrupt LB pool snapshot: " + path);
    }
    std::vector<NodeId> nodes(offsets[num_sets]);
    in.read(reinterpret_cast<char*>(nodes.data()),
            static_cast<std::streamsize>(nodes.size() * sizeof(NodeId)));
    if (!in) return Status::IoError("truncated pool snapshot: " + path);
    for (NodeId v : nodes) {
      if (v >= graph.num_nodes()) {
        return Status::OutOfRange("snapshot critical node out of range: " +
                                  std::to_string(v));
      }
    }
    for (uint64_t i = 0; i < num_sets; ++i) {
      pool->AddBoostableCriticalOnly(std::span<const NodeId>(
          nodes.data() + offsets[i], offsets[i + 1] - offsets[i]));
    }
    pool->AddNonBoostableCounts(h.num_activated, h.num_hopeless);
  } else {
    // Full-mode body: parse the section directory out of a file mapping
    // (the parse itself is O(num_shards)), then either bind external stores
    // over the mapped sections (use_mmap) or decode every block into owned
    // arenas.
    in.close();
    auto mapped = SnapshotMapping::Open(path);
    if (!mapped.ok()) return mapped.status();
    mapping = std::move(mapped).value();
    const char* base = mapping->data();
    const uint64_t file_size = mapping->size();

    // The header and seeds came through the first open; a save that renamed
    // another snapshot over `path` since then would pair them with a
    // different body (and answer table). Both opens must have seen the same
    // bytes; a mismatch is transient — a retry reads one file consistently.
    std::ostringstream parsed;
    WriteHeader(parsed, h);
    parsed.write(reinterpret_cast<const char*>(seeds.data()),
                 static_cast<std::streamsize>(seeds.size() * sizeof(NodeId)));
    const std::string prefix = std::move(parsed).str();
    if (file_size < prefix.size() ||
        std::memcmp(base, prefix.data(), prefix.size()) != 0) {
      return Status::IoError("snapshot was replaced while loading: " + path);
    }

    const uint64_t num_shards = h.num_shards;
    const uint64_t dir_bytes =
        num_shards * kDirEntryBytes + kCoverageEntryBytes + kTableEntryBytes;
    const uint64_t seeds_end = kHeaderBytes + h.num_seeds * sizeof(NodeId);
    if (h.dir_offset < seeds_end || h.dir_offset > file_size ||
        dir_bytes > file_size - h.dir_offset) {
      return Status::InvalidArgument("snapshot directory out of bounds: " +
                                     path);
    }
    const char* p = base + h.dir_offset;
    const auto read_entry = [&p] {
      SectionEntry e;
      e.offset = ReadU64At(p);
      e.stored_bytes = ReadU64At(p + 8);
      e.raw_bytes = ReadU64At(p + 16);
      e.codec = ReadU32At(p + 24);
      e.reserved = ReadU32At(p + 28);
      p += 32;
      return e;
    };
    std::vector<ShardDir> dirs(num_shards);
    for (uint64_t s = 0; s < num_shards; ++s) {
      dirs[s].num_graphs = ReadU64At(p);
      p += 8;
      for (SectionEntry& e : dirs[s].sections) e = read_entry();
    }
    const SectionEntry coverage = read_entry();
    const SectionEntry table_entry = read_entry();
    Status dir_status = ValidateDirectory(dirs, coverage, table_entry,
                                          h.dir_offset + dir_bytes,
                                          file_size, path);
    if (!dir_status.ok()) return dir_status;
    if (Status t = ReadDeltaTable(base, table_entry, path, &table); !t.ok()) {
      return t;
    }

    if (options.use_mmap) {
      for (uint64_t s = 0; s < num_shards; ++s) {
        for (size_t i = 0; i < kNumSections; ++i) {
          if (dirs[s].sections[i].codec !=
              static_cast<uint32_t>(SnapshotCodec::kNop)) {
            return Status::FailedPrecondition(
                "section " + std::to_string(i) + " of shard " +
                std::to_string(s) + " is " +
                CodecName(static_cast<SnapshotCodec>(
                    dirs[s].sections[i].codec)) +
                "-coded; the zero-copy mmap path serves only nop-coded "
                "snapshots — load without mmap, or re-save with the nop "
                "codec: " +
                path);
          }
        }
      }
      // Only compressed snapshots omit the coverage section (their shard
      // sections were refused above); a nop-coded file without one is
      // corrupt — the writer always emits it.
      if (CoverageAbsent(coverage) ||
          coverage.codec != static_cast<uint32_t>(SnapshotCodec::kNop)) {
        return Status::InvalidArgument(
            "snapshot has no mmap-servable coverage section: " + path);
      }
    }

    const auto section_u32 = [base](const SectionEntry& e) {
      return std::span<const uint32_t>(
          reinterpret_cast<const uint32_t*>(base + e.offset),
          e.raw_bytes / sizeof(uint32_t));
    };

    std::vector<PrrStore> stores(num_shards);
    std::vector<Status> shard_status(num_shards, Status::Ok());
    ParallelFor(
        num_shards, io_threads,
        [&](size_t s, int /*t*/) {
          const ShardDir& dir = dirs[s];
          const auto fail = [&](const Status& why) {
            shard_status[s] = Status::InvalidArgument(
                "corrupt PRR-graph arena in shard " + std::to_string(s) +
                " of snapshot " + path + ": " + why.ToString());
          };
          if (options.use_mmap) {
            PrrStore::ArenaSections sections;
            sections.num_nodes = section_u32(dir.sections[kSecNumNodes]);
            sections.num_critical =
                section_u32(dir.sections[kSecNumCritical]);
            sections.global_ids = section_u32(dir.sections[kSecGlobalIds]);
            sections.out_offsets = section_u32(dir.sections[kSecOutOffsets]);
            sections.in_offsets = section_u32(dir.sections[kSecInOffsets]);
            sections.out_edges = section_u32(dir.sections[kSecOutEdges]);
            sections.in_edges = section_u32(dir.sections[kSecInEdges]);
            sections.critical = section_u32(dir.sections[kSecCritical]);
            if (Status arena = stores[s].AttachExternal(
                    sections, options.verify_mapped);
                !arena.ok()) {
              fail(arena);
              return;
            }
          } else {
            std::vector<uint32_t> bufs[kNumSections];
            for (size_t i = 0; i < kNumSections; ++i) {
              const SectionEntry& e = dir.sections[i];
              bufs[i].resize(e.raw_bytes / sizeof(uint32_t));
              if (Status block =
                      CodecById(e.codec)->Decode(
                          std::span<const char>(base + e.offset,
                                                e.stored_bytes),
                          std::span<uint32_t>(bufs[i]));
                  !block.ok()) {
                fail(block);
                return;
              }
            }
            if (Status arena = stores[s].AdoptBuffers(
                    bufs[kSecNumNodes], bufs[kSecNumCritical],
                    std::move(bufs[kSecGlobalIds]),
                    std::move(bufs[kSecOutOffsets]),
                    std::move(bufs[kSecInOffsets]),
                    std::move(bufs[kSecOutEdges]),
                    std::move(bufs[kSecInEdges]),
                    std::move(bufs[kSecCritical]));
                !arena.ok()) {
              fail(arena);
              return;
            }
          }
          shard_status[s] = CheckGlobalIds(stores[s], graph.num_nodes());
        },
        /*chunk=*/1);
    for (const Status& s : shard_status) {
      if (!s.ok()) return s;
    }
    size_t total_graphs = 0;
    for (const PrrStore& store : stores) total_graphs += store.num_graphs();
    if (total_graphs != h.num_boostable) {
      return Status::InvalidArgument(
          "snapshot header declares " + std::to_string(h.num_boostable) +
          " boostable graphs but the shard arenas hold " +
          std::to_string(total_graphs));
    }
    if (options.use_mmap) {
      // Zero-copy restore: bind the greedy-coverage node pool straight to
      // the mapped coverage section instead of re-gathering it from the
      // arenas. Its ids index per-node arrays during selection, so they get
      // the same bounds pass the arena ids got (fused, one branch per
      // section on the happy path).
      const std::span<const uint32_t> coverage_nodes(
          reinterpret_cast<const uint32_t*>(base + coverage.offset),
          coverage.raw_bytes / sizeof(uint32_t));
      bool in_range = true;
      for (const uint32_t v : coverage_nodes) {
        in_range &= v < graph.num_nodes();
      }
      if (!in_range) {
        return Status::OutOfRange(
            "snapshot coverage node out of range: " + path);
      }
      if (options.verify_mapped) {
        if (Status cov = CheckCoverageSection(stores, coverage_nodes, path);
            !cov.ok()) {
          return cov;
        }
      }
      // The per-graph set sizes are the mapped num_critical sections
      // verbatim (the same bytes AttachExternal built each arena's meta
      // from), concatenated shard-major to match the coverage pool.
      std::vector<uint32_t> set_sizes;
      set_sizes.reserve(total_graphs);
      for (uint64_t s = 0; s < num_shards; ++s) {
        const std::span<const uint32_t> counts =
            section_u32(dirs[s].sections[kSecNumCritical]);
        set_sizes.insert(set_sizes.end(), counts.begin(), counts.end());
      }
      pool->RestoreFullPool(std::move(stores), set_sizes, coverage_nodes,
                            h.num_activated, h.num_hopeless);
    } else {
      pool->RestoreFullPool(std::move(stores), h.num_activated,
                            h.num_hopeless);
    }
  }

  BoostOptions boost_options;
  boost_options.k = h.pool_budget;
  boost_options.epsilon = h.epsilon;
  boost_options.ell = h.ell;
  boost_options.seed = h.rng_seed;
  boost_options.max_samples = h.max_samples;
  if (h.num_threads > 0) boost_options.num_threads = load_threads;
  boost_options.num_shards = static_cast<int>(h.num_shards);
  // These header-derived options feed the trusting BoostSession constructor,
  // which KB_CHECK-aborts on invalid values — a corrupt ε/ℓ/k/shard count
  // must surface as a typed rejection instead (NaN fails Validate's range
  // comparisons too, so a garbage double cannot sneak through).
  if (Status opt = boost_options.Validate(); !opt.ok()) {
    return Status::InvalidArgument(
        "snapshot header carries invalid sampling options (" +
        opt.ToString() + "): " + path);
  }

  PrrSamplerStats stats;
  stats.edges_examined = h.edges_examined;
  stats.uncompressed_edges = h.uncompressed_edges;
  stats.compressed_edges = h.compressed_edges;

  auto session = std::make_unique<BoostSession>(graph, std::move(seeds),
                                                boost_options, lb_only);
  session->engine().AdoptPool(std::move(pool), stats,
                              (h.flags & kFlagSamplesCapped) != 0);
  if (!lb_only) {
    if (Status t = session->engine().AdoptDeltaTable(std::move(table));
        !t.ok()) {
      return Status::InvalidArgument("corrupt answer table in snapshot " +
                                     path + ": " + t.message());
    }
  }
  if (options.use_mmap && mapping != nullptr) {
    session->RetainResource(std::move(mapping));
  }
  return session;
}

StatusOr<std::unique_ptr<BoostSession>> MmapPool(const DirectedGraph& graph,
                                                 const std::string& path) {
  PoolLoadOptions options;
  options.use_mmap = true;
  return LoadPoolSnapshot(graph, path, options);
}

}  // namespace kboost
