// Conformance of the precomputed sandwich answers (DeltaTable): every served
// full-mode answer must equal an independent from-scratch computation — a
// per-budget SelectGreedyDelta plus EstimateDelta of a per-budget LB greedy —
// field for field with doubles compared exactly, on several datasets and
// seeds. Also covers the sandwich invariant μ̂ ≤ Δ̂, the table's snapshot
// round trip (owned and mmap loads), shard/thread-count invariance, and the
// typed rejection of every corrupt table the loader must refuse.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/boost_session.h"
#include "src/expt/datasets.h"
#include "src/expt/seed_selection.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/io/pool_io.h"
#include "src/sim/boost_model.h"
#include "src/util/rng.h"

namespace kboost {
namespace {

constexpr size_t kBudget = 12;

BoostOptions MakeOptions(uint64_t seed, int num_shards = 2,
                         int num_threads = 2) {
  BoostOptions options;
  options.k = kBudget;
  options.epsilon = 0.5;
  options.seed = seed;
  options.num_threads = num_threads;
  options.num_shards = num_shards;
  options.max_samples = 20000;  // keeps flickr's tiny OPT from exploding θ
  return options;
}

/// The paper's Algorithm 2 at budget k, recomputed from scratch on the
/// session's pool: NodeSelectionLB and NodeSelection at exactly k, then the
/// sandwich pick under Δ̂ — no table, no prefix of a larger run.
BoostResult FromScratch(const BoostSession& session, size_t k) {
  const PrrCollection& pool = session.engine().collection();
  const std::vector<uint8_t> excluded =
      MakeNodeBitmap(pool.num_graph_nodes(), session.seeds());
  BoostResult r;
  const PrrCollection::LbResult lb = pool.SelectGreedyLowerBound(k, excluded);
  r.lb_set = lb.nodes;
  r.lb_mu_hat = lb.mu_hat;
  r.lb_delta_hat = pool.EstimateDelta(lb.nodes);
  const PrrCollection::DeltaResult delta =
      pool.SelectGreedyDelta(k, excluded, /*num_threads=*/1);
  r.delta_set = delta.nodes;
  r.delta_delta_hat = delta.delta_hat;
  const bool lb_wins = r.lb_delta_hat >= r.delta_delta_hat;
  r.best_set = lb_wins ? r.lb_set : r.delta_set;
  r.best_estimate = lb_wins ? r.lb_delta_hat : r.delta_delta_hat;
  return r;
}

void ExpectSameAnswer(const BoostResult& want, const BoostResult& got) {
  EXPECT_EQ(want.best_set, got.best_set);
  EXPECT_EQ(want.best_estimate, got.best_estimate);
  EXPECT_EQ(want.lb_set, got.lb_set);
  EXPECT_EQ(want.lb_mu_hat, got.lb_mu_hat);
  EXPECT_EQ(want.lb_delta_hat, got.lb_delta_hat);
  EXPECT_EQ(want.delta_set, got.delta_set);
  EXPECT_EQ(want.delta_delta_hat, got.delta_delta_hat);
}

void ExpectSameTable(const DeltaTable& a, const DeltaTable& b) {
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.prefix_activated, b.prefix_activated);
  EXPECT_EQ(a.lb_prefix_activated, b.lb_prefix_activated);
}

BoostResult Served(const BoostSession& session, size_t k, SolveMode mode) {
  SolveSpec spec;
  spec.k = k;
  spec.mode = mode;
  StatusOr<BoostResult> r = session.Solve(spec);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : BoostResult{};
}

/// Every budget's served kFull and kAuto answers against the from-scratch
/// reference, plus μ̂ ≤ Δ̂ on both candidate sets.
void ExpectConforms(const BoostSession& session) {
  const PrrCollection& pool = session.engine().collection();
  for (size_t k = 1; k <= session.budget(); ++k) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const BoostResult want = FromScratch(session, k);
    for (SolveMode mode : {SolveMode::kFull, SolveMode::kAuto}) {
      const BoostResult got = Served(session, k, mode);
      ExpectSameAnswer(want, got);
      EXPECT_LE(got.lb_mu_hat, got.lb_delta_hat);
      EXPECT_LE(pool.EstimateMu(got.delta_set), got.delta_delta_hat);
    }
  }
}

struct Instance {
  std::string dataset;
  uint64_t seed;
};

void PrintTo(const Instance& inst, std::ostream* os) {
  *os << inst.dataset << " seed " << inst.seed;
}

class AnswerTableConformanceTest : public ::testing::TestWithParam<Instance> {
};

TEST_P(AnswerTableConformanceTest, ServedAnswersEqualPerBudgetRecomputation) {
  const Instance& inst = GetParam();
  const Dataset data = MakeDataset(SpecByName(inst.dataset, 0.005));
  const std::vector<NodeId> seeds =
      SelectInfluentialSeeds(data.graph, 10, inst.seed, 2);
  BoostSession session(data.graph, seeds, MakeOptions(inst.seed));
  session.Prepare();
  ASSERT_GT(session.engine().collection().num_boostable(), 0u);
  ExpectConforms(session);
  // The serial sweep path reads the same tables.
  BoostSession serial(data.graph, seeds, MakeOptions(inst.seed));
  for (size_t k = 1; k <= kBudget; ++k) {
    ExpectSameAnswer(Served(session, k, SolveMode::kFull),
                     serial.SolveForBudget(k));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, AnswerTableConformanceTest,
    ::testing::Values(Instance{"digg", 1}, Instance{"digg", 2},
                      Instance{"flixster", 1}, Instance{"flixster", 3},
                      Instance{"twitter", 2}, Instance{"flickr", 1}),
    [](const ::testing::TestParamInfo<Instance>& info) {
      return info.param.dataset + "_seed" + std::to_string(info.param.seed);
    });

DirectedGraph MakeTestGraph(uint64_t seed = 7) {
  Rng rng(seed);
  GraphBuilder b = BuildErdosRenyi(80, 500, rng);
  b.AssignConstantProbability(0.12);
  b.SetBoostWithBeta(2.0);
  return std::move(b).Build();
}

TEST(AnswerTableTest, IdenticalAcrossShardAndThreadCounts) {
  const DirectedGraph g = MakeTestGraph(31);
  BoostSession reference(g, {0, 1, 2}, MakeOptions(5, 1, 1));
  reference.Prepare();
  ASSERT_FALSE(reference.engine().delta_table().order.empty());
  for (int shards : {1, 4}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      BoostSession session(g, {0, 1, 2}, MakeOptions(5, shards, threads));
      session.Prepare();
      ExpectSameTable(reference.engine().delta_table(),
                      session.engine().delta_table());
      for (size_t k = 1; k <= kBudget; ++k) {
        ExpectSameAnswer(Served(reference, k, SolveMode::kFull),
                         Served(session, k, SolveMode::kFull));
      }
    }
  }
  ExpectConforms(reference);
}

TEST(AnswerTableTest, OccurrenceFillAndShortOrdersConform) {
  // Tiny pools with a large budget: the Δ̂ greedy runs out of positive gains
  // and the occurrence-count fill takes over (or the fill is short too), and
  // the LB order is shorter than the budget — the table's clamped prefixes.
  struct Case {
    size_t max_samples;
    double p;
  };
  for (const Case c : {Case{100, 0.12}, Case{200, 0.05}}) {
    SCOPED_TRACE("max_samples=" + std::to_string(c.max_samples));
    Rng rng(43);
    GraphBuilder b = BuildErdosRenyi(80, 500, rng);
    b.AssignConstantProbability(c.p);
    b.SetBoostWithBeta(2.0);
    const DirectedGraph g = std::move(b).Build();
    BoostOptions options = MakeOptions(5);
    options.k = 40;
    options.max_samples = c.max_samples;
    BoostSession session(g, {0, 1}, options);
    session.Prepare();
    const DeltaTable& table = session.engine().delta_table();
    const std::vector<uint8_t> excluded = MakeNodeBitmap(g.num_nodes(), {0, 1});
    const size_t picks = session.engine()
                             .collection()
                             .SelectGreedyDelta(options.k, excluded)
                             .pick_gains.size();
    EXPECT_LT(picks, table.order.size());  // the fill is exercised
    EXPECT_LT(Served(session, options.k, SolveMode::kFull).lb_set.size(),
              options.k);  // so is the short LB order
    ExpectConforms(session);
  }
}

TEST(AnswerTableTest, LbPoolsCarryNoTable) {
  const DirectedGraph g = MakeTestGraph(33);
  BoostSession lb(g, {0, 1}, MakeOptions(5), /*lb_only=*/true);
  lb.Prepare();
  EXPECT_TRUE(lb.engine().delta_table().order.empty());
  EXPECT_TRUE(lb.engine().delta_table().lb_prefix_activated.empty());
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(AnswerTableTest, SurvivesOwnedAndMappedLoadsBitIdentically) {
  const DirectedGraph g = MakeTestGraph(35);
  BoostSession session(g, {0, 1}, MakeOptions(9, 3));
  session.Prepare();
  for (SnapshotCodec codec : {SnapshotCodec::kNop, SnapshotCodec::kVarint}) {
    SCOPED_TRACE(std::string("codec ") + CodecName(codec));
    const std::string path = TempPath("kboost_answer_table_rt.bin");
    PoolSaveOptions save;
    save.codec = codec;
    ASSERT_TRUE(SavePoolSnapshot(session, path, save).ok());
    std::vector<std::unique_ptr<BoostSession>> loaded;
    StatusOr<std::unique_ptr<BoostSession>> owned = LoadPoolSnapshot(g, path);
    ASSERT_TRUE(owned.ok()) << owned.status().ToString();
    loaded.push_back(std::move(owned).value());
    if (codec == SnapshotCodec::kNop) {
      StatusOr<std::unique_ptr<BoostSession>> mapped = MmapPool(g, path);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      loaded.push_back(std::move(mapped).value());
    }
    for (const std::unique_ptr<BoostSession>& restored : loaded) {
      // The table arrives with the load, before Prepare().
      ExpectSameTable(session.engine().delta_table(),
                      restored->engine().delta_table());
      restored->Prepare();
      ExpectSameTable(session.engine().delta_table(),
                      restored->engine().delta_table());
      for (size_t k = 1; k <= kBudget; ++k) {
        ExpectSameAnswer(Served(session, k, SolveMode::kAuto),
                         Served(*restored, k, SolveMode::kAuto));
      }
    }
    std::filesystem::remove(path);
  }
}

// ---- corrupt answer tables ------------------------------------------------

void PokeU32(std::string* bytes, size_t offset, uint32_t value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

void PokeU64(std::string* bytes, size_t offset, uint64_t value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

uint64_t PeekU64(const std::string& bytes, size_t offset) {
  uint64_t value;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

uint32_t PeekU32(const std::string& bytes, size_t offset) {
  uint32_t value;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

/// Snapshot layout landmarks: the 160-byte header, the seeds, then the
/// directory — per shard u64 num_graphs + 8 × 32-byte section entries, then
/// the 32-byte coverage entry, then the 32-byte answer table entry. The
/// table section is u64 L, u64 L_lb, u32 order[L], u64 prefix[L],
/// u64 lb_prefix[L_lb].
class CorruptTableTest : public ::testing::Test {
 protected:
  static constexpr int kShards = 2;

  void SetUp() override {
    path_ = TempPath("kboost_answer_table_corrupt.bin");
    BoostSession session(graph_, seeds_, MakeOptions(13, kShards));
    session.Prepare();
    boostable_ = session.engine().collection().num_boostable();
    ASSERT_TRUE(SavePoolSnapshot(session, path_).ok());
    bytes_ = ReadFileBytes(path_);
    entry_ = 160 + 4 * seeds_.size() + kShards * (8 + 8 * 32) + 32;
    table_ = PeekU64(bytes_, entry_);
    order_len_ = PeekU64(bytes_, table_);
    lb_len_ = PeekU64(bytes_, table_ + 8);
    ASSERT_GE(order_len_, 2u);
    ASSERT_GE(lb_len_, 1u);
    ASSERT_EQ(order_len_, session.engine().delta_table().order.size());
  }

  void TearDown() override { std::filesystem::remove(path_); }

  size_t OrderAt(size_t i) const { return table_ + 16 + 4 * i; }
  size_t PrefixAt(size_t i) const {
    return table_ + 16 + 4 * order_len_ + 8 * i;
  }

  void ExpectRejected(const std::string& needle) {
    WriteFileBytes(path_, bytes_);
    for (bool mmap : {false, true}) {
      SCOPED_TRACE(mmap ? "mmap load" : "owned load");
      PoolLoadOptions options;
      options.use_mmap = mmap;
      StatusOr<std::unique_ptr<BoostSession>> r =
          LoadPoolSnapshot(graph_, path_, options);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(r.status().message().find(needle), std::string::npos)
          << r.status().ToString();
    }
  }

  DirectedGraph graph_ = MakeTestGraph(41);
  const std::vector<NodeId> seeds_ = {0, 1};
  std::string path_;
  std::string bytes_;
  size_t boostable_ = 0;
  size_t entry_ = 0;
  size_t table_ = 0;
  uint64_t order_len_ = 0;
  uint64_t lb_len_ = 0;
};

TEST_F(CorruptTableTest, UntouchedSnapshotLoads) {
  WriteFileBytes(path_, bytes_);
  EXPECT_TRUE(LoadPoolSnapshot(graph_, path_).ok());
  EXPECT_TRUE(MmapPool(graph_, path_).ok());
}

TEST_F(CorruptTableTest, NodeIdOutOfRangeIsRejected) {
  PokeU32(&bytes_, OrderAt(0), graph_.num_nodes());
  ExpectRejected("out of range");
}

TEST_F(CorruptTableTest, SeedIdIsRejected) {
  PokeU32(&bytes_, OrderAt(0), seeds_[1]);
  ExpectRejected("boosts seed");
}

TEST_F(CorruptTableTest, DuplicateIdIsRejected) {
  PokeU32(&bytes_, OrderAt(1), PeekU32(bytes_, OrderAt(0)));
  ExpectRejected("repeats node");
}

TEST_F(CorruptTableTest, DecreasingPrefixCountsAreRejected) {
  // The first greedy pick activates at least one sample, so a zero at the
  // end is a decrease.
  ASSERT_GT(PeekU64(bytes_, PrefixAt(0)), 0u);
  PokeU64(&bytes_, PrefixAt(order_len_ - 1), 0);
  ExpectRejected("decrease or exceed");
}

TEST_F(CorruptTableTest, PrefixCountsAboveTheBoostableTotalAreRejected) {
  PokeU64(&bytes_, PrefixAt(order_len_ - 1), boostable_ + 1);
  ExpectRejected("decrease or exceed");
}

TEST_F(CorruptTableTest, LbPrefixCountsAboveTheBoostableTotalAreRejected) {
  PokeU64(&bytes_, PrefixAt(order_len_ + lb_len_ - 1), boostable_ + 1);
  ExpectRejected("decrease or exceed");
}

TEST_F(CorruptTableTest, LbCountLengthMismatchIsRejected) {
  // Drop the last LB count consistently (declared length and section size),
  // so only the comparison with the pool budget can catch it.
  PokeU64(&bytes_, table_ + 8, lb_len_ - 1);
  PokeU64(&bytes_, entry_ + 8, PeekU64(bytes_, entry_ + 8) - 8);
  PokeU64(&bytes_, entry_ + 16, PeekU64(bytes_, entry_ + 16) - 8);
  ExpectRejected("LB prefix counts for a pool budget of");
}

TEST_F(CorruptTableTest, LengthsDisagreeingWithTheSectionAreRejected) {
  PokeU64(&bytes_, table_, order_len_ + 1);
  ExpectRejected("lengths disagree");
}

TEST_F(CorruptTableTest, SectionOutOfBoundsIsRejected) {
  PokeU64(&bytes_, entry_, bytes_.size());
  ExpectRejected("exceeds the snapshot");
}

TEST_F(CorruptTableTest, MissingSectionIsRejected) {
  for (size_t i = 0; i < 32; i += 8) PokeU64(&bytes_, entry_ + i, 0);
  ExpectRejected("");
}

}  // namespace
}  // namespace kboost
