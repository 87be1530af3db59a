// Streaming graph updates (graph/mutation.h + the engine's mutation API):
//
//  1. Mutation semantics at the Graph level — RemoveEdge, upsert inserts,
//     delete-all-matches, validation, wire round-trip.
//  2. Fragment-level patches — MutateFragmentedGraph produces fragments
//     byte-identical to a from-scratch FragmentBuilder::Build over the
//     mutated graph, routing plan included: one hand-written batch, then a
//     seeded differential over 200 batches. The mutation decoders (the
//     batch codec and the kTagWkMutate / kTagWkMutMirror / kTagWkMutVals
//     frames at a real RemoteWorkerHost) reject every truncation and
//     never half-apply.
//  3. The local differential oracle — the MutationBatch overload of
//     RunIncremental matches a full run, and the enforced monotonicity
//     contract routes deletion batches through the full-run fallback.
//  4. The remote differential gate — SessionRun + ApplyMutations +
//     RunIncremental answers bit-identical to a from-scratch recompute
//     after EVERY batch, for {sssp, cc} x {inproc, socket, tcp} x
//     {coordinator-loaded, distributed-loaded}, with a deletion batch
//     that must trip the enforced fallback on every cell. Every entry
//     point's metrics are pinned along the way (rounds, messages, and
//     per-worker PEval/IncEval counts), and a RunIncremental for a query
//     other than the session's must fall back rather than answer the old
//     query.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "apps/cc.h"
#include "apps/register_apps.h"
#include "apps/sssp.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/mutation.h"
#include "gtest/gtest.h"
#include "partition/fragment.h"
#include "partition/partitioner.h"
#include "rt/checkpoint.h"
#include "rt/distributed_load.h"
#include "rt/remote_worker.h"
#include "rt/worker_protocol.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace grape {
namespace {

using testing::MakeFragments;

template <typename T>
bool BitEq(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

std::vector<uint8_t> FragmentBytes(const Fragment& frag) {
  Encoder enc;
  frag.EncodeTo(enc);
  return enc.TakeBuffer();
}

// --------------------------------------------------------- graph semantics

TEST(MutationTest, RemoveEdgeIsAddEdgesInverse) {
  GraphBuilder b(/*directed=*/false);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 1.0);
  b.AddEdge(2, 3, 1.0);
  // Undirected: either orientation names the edge.
  EXPECT_EQ(b.RemoveEdge(2, 1), 1u);
  EXPECT_EQ(b.RemoveEdge(2, 1), 0u);  // already gone
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 4u);  // two undirected edges, stored twice

  GraphBuilder d(/*directed=*/true);
  d.AddEdge(0, 1, 1.0);
  d.AddEdge(1, 0, 1.0);
  // Directed: orientation matters, the reverse arc survives.
  EXPECT_EQ(d.RemoveEdge(0, 1), 1u);
  auto gd = std::move(d).Build();
  ASSERT_TRUE(gd.ok());
  EXPECT_EQ(gd->num_edges(), 1u);
}

TEST(MutationTest, InsertIsUpsertAndDeleteRemovesAllMatches) {
  GraphBuilder b(/*directed=*/true);
  b.AddEdge(0, 1, 1.0, 7);
  b.AddEdge(1, 2, 2.0);
  auto g = std::move(b).Build(4);
  ASSERT_TRUE(g.ok());

  MutationBatch m;
  m.InsertEdge(0, 1, 5.0, 9);  // existing edge: weight+label replaced
  m.InsertEdge(2, 3, 0.5);     // genuinely new
  m.DeleteEdge(1, 2);
  ASSERT_OK_AND_ASSIGN(Graph updated, ApplyMutations(*g, m));

  EXPECT_EQ(updated.num_vertices(), 4u);
  std::vector<Edge> edges = updated.ToEdgeList();
  ASSERT_EQ(edges.size(), 2u);
  bool saw01 = false, saw23 = false;
  for (const Edge& e : edges) {
    if (e.src == 0 && e.dst == 1) {
      saw01 = true;
      EXPECT_DOUBLE_EQ(e.weight, 5.0);
      EXPECT_EQ(e.label, 9u);
    }
    if (e.src == 2 && e.dst == 3) saw23 = true;
  }
  EXPECT_TRUE(saw01);
  EXPECT_TRUE(saw23);
}

TEST(MutationTest, ValidateRejectsMalformedOps) {
  MutationBatch loop;
  loop.InsertEdge(2, 2, 1.0);
  EXPECT_TRUE(loop.Validate(10).IsInvalidArgument());

  MutationBatch range;
  range.DeleteEdge(0, 999);
  EXPECT_TRUE(range.Validate(10).IsInvalidArgument());

  // The vertex universe is fixed per epoch: endpoints must already exist.
  MutationBatch grow;
  grow.InsertEdge(0, 10, 1.0);
  EXPECT_TRUE(grow.Validate(10).IsInvalidArgument());
  EXPECT_TRUE(grow.Validate(11).ok());
}

TEST(MutationTest, BatchWireRoundTrip) {
  MutationBatch m;
  m.InsertEdge(1, 2, 3.5, 4);
  m.DeleteEdge(5, 6);
  m.InsertEdge(7, 8, 0.25);
  EXPECT_TRUE(m.has_deletions());
  EXPECT_EQ(m.TouchedVertices(),
            (std::vector<VertexId>{1, 2, 5, 6, 7, 8}));

  Encoder enc;
  m.EncodeTo(enc);
  Decoder dec(enc.buffer());
  MutationBatch back;
  ASSERT_OK(MutationBatch::DecodeFrom(dec, &back));
  ASSERT_EQ(back.size(), m.size());
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(back.ops[i].op, m.ops[i].op);
    EXPECT_EQ(back.ops[i].edge.src, m.ops[i].edge.src);
    EXPECT_EQ(back.ops[i].edge.dst, m.ops[i].edge.dst);
    EXPECT_DOUBLE_EQ(back.ops[i].edge.weight, m.ops[i].edge.weight);
    EXPECT_EQ(back.ops[i].edge.label, m.ops[i].edge.label);
  }
}

// -------------------------------------------------------- fragment patches

// The fragment patch must be indistinguishable — topology,
// labels, border flags, the complete routing plan — from partitioning the
// mutated graph from scratch with the same assignment.
TEST(MutationTest, MutatedFragmentsBitIdenticalToRebuild) {
  auto g = GenerateGridRoad(10, 10, 4242);
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg = MakeFragments(*g, "hash", 3);

  MutationBatch m;
  m.InsertEdge(4, 87, 0.5);
  m.InsertEdge(87, 4, 0.5);
  m.DeleteEdge(0, 1);  // an existing grid segment's forward arc
  ASSERT_OK(FragmentBuilder::MutateFragmentedGraph(&fg, m));

  ASSERT_OK_AND_ASSIGN(Graph updated, ApplyMutations(*g, m));
  FragmentedGraph ref = MakeFragments(updated, "hash", 3);
  ASSERT_EQ(fg.num_fragments(), ref.num_fragments());
  for (FragmentId i = 0; i < fg.num_fragments(); ++i) {
    EXPECT_EQ(FragmentBytes(fg.fragments[i]), FragmentBytes(ref.fragments[i]))
        << "fragment " << i;
  }
}

// ------------------------------------------- randomised patch differential

/// `g` without duplicate arcs (undirected: duplicate unordered pairs); the
/// first copy of each survives. Vertex labels, when `labelled`, are
/// v % 5 — non-zero for most vertices, so a wrong outer label shows.
Graph SimpleGraph(const Graph& g, bool labelled) {
  GraphBuilder b(g.is_directed());
  std::set<std::pair<VertexId, VertexId>> seen;
  for (const Edge& e : g.ToEdgeList()) {
    if (e.src == e.dst) continue;
    std::pair<VertexId, VertexId> key{e.src, e.dst};
    if (!g.is_directed() && e.dst < e.src) key = {e.dst, e.src};
    if (seen.insert(key).second) b.AddEdge(e);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (labelled) b.SetVertexLabel(v, v % 5);
  }
  b.AddVertex(g.num_vertices() - 1);
  return std::move(b).Build(g.num_vertices()).value();
}

Graph SmallRmat(bool directed, uint64_t seed) {
  RMatOptions o;
  o.scale = 7;
  o.edge_factor = 4;
  o.directed = directed;
  o.seed = seed;
  return GenerateRMat(o).value();
}

/// What a seeded batch exercised, summed over every fragment it was
/// applied to; the differential requires every kind at least once.
struct PatchCoverage {
  uint64_t inner_upserts = 0;   // upsert of an existing inner-inner arc
  uint64_t cut_upserts = 0;     // upsert of an existing cut arc
  uint64_t absent_deletes = 0;  // delete of an edge the graph lacks
  uint64_t no_inner_ops = 0;    // (fragment, op) with no inner endpoint
  uint64_t outers_added = 0;
  uint64_t outers_vanished = 0;
  uint64_t border_flips = 0;
  uint64_t mirror_changes = 0;  // mirror list changed, border unchanged
};

/// One seeded batch of 1-6 ops against `g`: upserts of existing edges,
/// inserts between random vertices, deletes of existing edges and deletes
/// of random (mostly absent) pairs.
MutationBatch RandomBatch(const Graph& g, Rng& rng) {
  const std::vector<Edge> edges = g.ToEdgeList();
  const VertexId n = g.num_vertices();
  MutationBatch m;
  const uint64_t ops = 1 + rng.NextBounded(6);
  for (uint64_t k = 0; k < ops; ++k) {
    const uint64_t kind = rng.NextBounded(100);
    const EdgeWeight w = static_cast<EdgeWeight>(1 + rng.NextBounded(9));
    const Label label = static_cast<Label>(rng.NextBounded(4));
    if (kind < 55 && !edges.empty()) {
      const Edge& e = edges[rng.NextBounded(edges.size())];
      if (kind < 30) {
        m.InsertEdge(e.src, e.dst, w, label);
      } else {
        m.DeleteEdge(e.src, e.dst);
      }
      continue;
    }
    const VertexId s = static_cast<VertexId>(rng.NextBounded(n));
    VertexId d = static_cast<VertexId>(rng.NextBounded(n - 1));
    if (d >= s) ++d;
    if (kind < 85) {
      m.InsertEdge(s, d, w, label);
    } else {
      m.DeleteEdge(s, d);
    }
  }
  return m;
}

/// Classifies `m`'s ops against `g` (before the batch) for fragments of
/// `owner`.
void CountOps(const Graph& g, const MutationBatch& m,
              const std::vector<FragmentId>& owner, FragmentId frags,
              PatchCoverage* cov) {
  auto present = [&](VertexId s, VertexId d) {
    for (const Neighbor& nb : g.OutNeighbors(s)) {
      if (nb.vertex == d) return true;
    }
    return false;
  };
  for (const EdgeMutation& op : m.ops) {
    const VertexId s = op.edge.src;
    const VertexId d = op.edge.dst;
    const bool exists = present(s, d);
    if (op.op == MutationOp::kInsertEdge && exists) {
      ++(owner[s] == owner[d] ? cov->inner_upserts : cov->cut_upserts);
    }
    if (op.op == MutationOp::kDeleteEdge && !exists) ++cov->absent_deletes;
    for (FragmentId f = 0; f < frags; ++f) {
      if (owner[s] != f && owner[d] != f) ++cov->no_inner_ops;
    }
  }
}

/// Outer-set and border/mirror changes between one fragment's versions.
void CountFragmentChanges(const Fragment& before, const Fragment& after,
                          PatchCoverage* cov) {
  for (LocalId v = after.num_inner(); v < after.num_local(); ++v) {
    if (!before.HasVertex(after.Gid(v))) ++cov->outers_added;
  }
  for (LocalId v = before.num_inner(); v < before.num_local(); ++v) {
    if (!after.HasVertex(before.Gid(v))) ++cov->outers_vanished;
  }
  for (LocalId v = 0; v < after.num_inner(); ++v) {
    auto a = before.MirrorFragments(v);
    auto b = after.MirrorFragments(v);
    if (before.IsBorder(v) != after.IsBorder(v)) {
      ++cov->border_flips;
    } else if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) {
      ++cov->mirror_changes;
    }
  }
}

std::vector<std::tuple<VertexId, EdgeWeight, Label>> RowMultiset(
    const Fragment& f, std::span<const FragNeighbor> row) {
  std::vector<std::tuple<VertexId, EdgeWeight, Label>> out;
  for (const FragNeighbor& nb : row) {
    out.emplace_back(f.Gid(nb.local), nb.weight, nb.label);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Multigraph form of the differential: every row of `got` equals the
/// rebuild's row as a multiset (the whole-graph oracle's unstable row sort
/// may order duplicate arcs differently), and the rest of the fragment —
/// vertex set, labels, border set, routing plan — agrees exactly.
void ExpectSameUpToDuplicateOrder(const Fragment& got, const Fragment& want) {
  ASSERT_EQ(got.gids(), want.gids());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  EXPECT_EQ(got.num_border(), want.num_border());
  for (LocalId v = 0; v < got.num_local(); ++v) {
    EXPECT_EQ(RowMultiset(got, got.OutNeighbors(v)),
              RowMultiset(want, want.OutNeighbors(v)))
        << "out-row of gid " << got.Gid(v);
    EXPECT_EQ(RowMultiset(got, got.InNeighbors(v)),
              RowMultiset(want, want.InNeighbors(v)))
        << "in-row of gid " << got.Gid(v);
    EXPECT_EQ(got.vertex_label(v), want.vertex_label(v));
    if (got.IsOuter(v)) {
      EXPECT_EQ(got.OuterOwner(v), want.OuterOwner(v));
      EXPECT_EQ(got.OuterOwnerLid(v), want.OuterOwnerLid(v));
      continue;
    }
    EXPECT_EQ(got.IsBorder(v), want.IsBorder(v));
    auto a = got.MirrorFragments(v);
    auto b = want.MirrorFragments(v);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    auto la = got.MirrorDstLids(v);
    auto lb = want.MirrorDstLids(v);
    EXPECT_TRUE(std::equal(la.begin(), la.end(), lb.begin(), lb.end()));
  }
}

enum class Oracle {
  kBytes,          // simple graph: byte-identical to the rebuild
  kOuterLabels,    // byte-identical once new outers' labels are zeroed
  kDuplicateArcs,  // multigraph: rows equal as multisets
};

/// Applies `batches` seeded batches to `g` through MutateFragmentedGraph
/// and checks the fragments against a from-scratch build of
/// ApplyMutations(g, m) with the same assignment after every batch.
void RunPatchDifferential(Graph g, Oracle oracle, uint64_t seed,
                          int batches, PatchCoverage* cov) {
  constexpr FragmentId kFrags = 3;
  auto partitioner = MakePartitioner("hash");
  ASSERT_TRUE(partitioner.ok());
  const std::vector<FragmentId> owner =
      (*partitioner)->Partition(g, kFrags).value();
  ASSERT_OK_AND_ASSIGN(FragmentedGraph fg,
                       FragmentBuilder::Build(g, owner, kFrags));
  // A twin world patched in lockstep: the patch is deterministic even
  // where the oracle's row order is not.
  ASSERT_OK_AND_ASSIGN(FragmentedGraph twin,
                       FragmentBuilder::Build(g, owner, kFrags));
  // Per fragment, the outers that (re)appeared through a batch: their
  // copies carry label 0 where a rebuild reads the owner's label.
  std::vector<std::set<VertexId>> born(kFrags);
  Rng rng(seed);
  for (int bi = 0; bi < batches; ++bi) {
    SCOPED_TRACE("batch " + std::to_string(bi));
    const MutationBatch m = RandomBatch(g, rng);
    CountOps(g, m, owner, kFrags, cov);
    ASSERT_OK_AND_ASSIGN(FragmentedGraph pre,
                         FragmentBuilder::Build(g, owner, kFrags));
    ASSERT_OK(FragmentBuilder::MutateFragmentedGraph(&fg, m));
    ASSERT_OK(FragmentBuilder::MutateFragmentedGraph(&twin, m));
    ASSERT_OK_AND_ASSIGN(g, ApplyMutations(g, m));
    ASSERT_OK_AND_ASSIGN(FragmentedGraph ref,
                         FragmentBuilder::Build(g, owner, kFrags));
    for (FragmentId i = 0; i < kFrags; ++i) {
      SCOPED_TRACE("fragment " + std::to_string(i));
      const Fragment& got = fg.fragments[i];
      CountFragmentChanges(pre.fragments[i], got, cov);
      EXPECT_EQ(FragmentBytes(got), FragmentBytes(twin.fragments[i]));
      if (oracle == Oracle::kDuplicateArcs) {
        ExpectSameUpToDuplicateOrder(got, ref.fragments[i]);
        continue;
      }
      for (LocalId v = got.num_inner(); v < got.num_local(); ++v) {
        if (!pre.fragments[i].HasVertex(got.Gid(v))) born[i].insert(got.Gid(v));
      }
      std::erase_if(born[i], [&](VertexId gid) { return !got.HasVertex(gid); });
      if (oracle == Oracle::kOuterLabels) {
        // Zero the rebuild's labels where the patch cannot know them, by
        // re-encoding it from a graph whose born outers read label 0.
        GraphBuilder b(g.is_directed());
        for (const Edge& e : g.ToEdgeList()) b.AddEdge(e);
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          b.SetVertexLabel(v, born[i].count(v) ? 0 : g.vertex_label(v));
        }
        ASSERT_OK_AND_ASSIGN(Graph relabelled,
                             std::move(b).Build(g.num_vertices()));
        ASSERT_OK_AND_ASSIGN(FragmentedGraph want,
                             FragmentBuilder::Build(relabelled, owner, kFrags));
        EXPECT_EQ(FragmentBytes(got), FragmentBytes(want.fragments[i]));
      } else {
        EXPECT_EQ(FragmentBytes(got), FragmentBytes(ref.fragments[i]));
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// 200 seeded batches over directed, undirected and vertex-labelled simple
// graphs, plus an RMAT multigraph: the in-place patch must agree with
// rebuilding the mutated graph from scratch after every batch.
TEST(MutationTest, RandomisedPatchMatchesRebuild) {
  PatchCoverage cov;
  {
    SCOPED_TRACE("directed grid");
    RunPatchDifferential(SimpleGraph(GenerateGridRoad(8, 8, 31).value(), false),
                         Oracle::kBytes, 1, 50, &cov);
  }
  {
    SCOPED_TRACE("undirected rmat");
    RunPatchDifferential(SimpleGraph(SmallRmat(false, 5), false),
                         Oracle::kBytes, 2, 50, &cov);
  }
  {
    SCOPED_TRACE("labelled rmat");
    RunPatchDifferential(SimpleGraph(SmallRmat(true, 6), true),
                         Oracle::kOuterLabels, 3, 50, &cov);
  }
  {
    SCOPED_TRACE("rmat multigraph");
    Graph multi = SmallRmat(true, 7);
    ASSERT_LT(SimpleGraph(multi, false).num_edges(), multi.num_edges())
        << "the multigraph case needs duplicate arcs";
    RunPatchDifferential(std::move(multi), Oracle::kDuplicateArcs, 4, 50,
                         &cov);
  }
  EXPECT_GT(cov.inner_upserts, 0u);
  EXPECT_GT(cov.cut_upserts, 0u);
  EXPECT_GT(cov.absent_deletes, 0u);
  EXPECT_GT(cov.no_inner_ops, 0u);
  EXPECT_GT(cov.outers_added, 0u);
  EXPECT_GT(cov.outers_vanished, 0u);
  EXPECT_GT(cov.border_flips, 0u);
  EXPECT_GT(cov.mirror_changes, 0u);
}

// ------------------------------------------------------ mutation decoders

/// A wire batch for a 12x12 grid: a cut-arc insert, a delete, an insert.
MutationBatch WireBatch() {
  MutationBatch m;
  m.InsertEdge(3, 140, 0.25, 2);
  m.DeleteEdge(0, 1);
  m.InsertEdge(60, 100, 0.125);
  return m;
}

std::vector<uint8_t> BatchBytes(const MutationBatch& m) {
  Encoder enc;
  m.EncodeTo(enc);
  return enc.TakeBuffer();
}

TEST(MutationDecoderTest, EveryTruncatedBatchIsRejected) {
  const std::vector<uint8_t> wire = BatchBytes(WireBatch());
  for (size_t len = 0; len < wire.size(); ++len) {
    Decoder dec(wire.data(), len);
    MutationBatch m;
    EXPECT_FALSE(MutationBatch::DecodeFrom(dec, &m).ok())
        << "batch truncated to " << len << "/" << wire.size() << " decoded";
  }
}

// The batch codec carries no checksum, so a flipped byte may decode to a
// different valid batch. What must hold: nothing crashes (the sanitizer
// job runs this), an out-of-range endpoint always fails Validate, and a
// batch Validate rejects never reaches the patch.
TEST(MutationDecoderTest, ByteFlippedBatchesAreValidatedNeverCrash) {
  Graph g = GenerateGridRoad(12, 12, 77).value();
  const VertexId n = g.num_vertices();
  FragmentedGraph fg = MakeFragments(g, "hash", 3);
  const std::vector<uint8_t> wire = BatchBytes(WireBatch());
  const std::vector<uint8_t> frag0 = FragmentBytes(fg.fragments[0]);
  int decoded = 0;
  for (size_t i = 0; i < wire.size(); ++i) {
    std::vector<uint8_t> corrupt = wire;
    corrupt[i] ^= 0xff;
    Decoder dec(corrupt);
    MutationBatch m;
    if (!MutationBatch::DecodeFrom(dec, &m).ok()) continue;
    ++decoded;
    bool out_of_range = false;
    for (const EdgeMutation& op : m.ops) {
      out_of_range |= op.edge.src >= n || op.edge.dst >= n;
    }
    const Status valid = m.Validate(n);
    if (out_of_range) {
      EXPECT_FALSE(valid.ok()) << "byte " << i;
    }
    if (!valid.ok()) {
      EXPECT_FALSE(FragmentBuilder::MutateFragmentedGraph(&fg, m).ok());
      EXPECT_EQ(FragmentBytes(fg.fragments[0]), frag0)
          << "byte " << i << ": a rejected batch changed the fragment";
      continue;
    }
    FragmentedGraph other = MakeFragments(g, "hash", 3);
    EXPECT_TRUE(FragmentBuilder::MutateFragmentedGraph(&other, m).ok())
        << "byte " << i;
  }
  EXPECT_GT(decoded, 0) << "no flip decoded: the valid-batch path went unrun";
}

/// Ranks 1 and 2 of a two-worker world as real RemoteWorkerHosts. Frames
/// they emit are collected instead of sent, so a test can hand a peer's
/// mutation frame to the other host intact, truncated or not at all.
class TwoHosts {
 public:
  struct Frame {
    uint32_t from = 0;
    uint32_t to = 0;
    uint32_t tag = 0;
    std::vector<uint8_t> payload;
  };

  TwoHosts() {
    RegisterBuiltinWorkerApps();
    for (uint32_t rank : {1u, 2u}) {
      hosts_.push_back(std::make_unique<RemoteWorkerHost>(
          rank, [this, rank](uint32_t to, uint32_t tag,
                             std::vector<uint8_t> payload) {
            emitted_.push_back(Frame{rank, to, tag, std::move(payload)});
            return Status::OK();
          }));
    }
  }

  /// Delivers one frame to `rank`; returns (and clears) what it emitted.
  std::vector<Frame> Deliver(uint32_t rank, uint32_t from, uint32_t tag,
                             std::vector<uint8_t> payload) {
    emitted_.clear();
    Status st = hosts_[rank - 1]->OnFrame(from, tag, std::move(payload));
    EXPECT_TRUE(st.ok()) << st;
    return std::move(emitted_);
  }

  /// Loads fragment fid at rank fid + 1 for SSSP and runs PEval.
  void Load(const Fragment& frag) {
    Encoder load;
    load.WriteString("sssp");
    load.WriteU8(0);
    EncodeValue(load, SsspQuery{0});
    frag.EncodeTo(load);
    const uint32_t rank = frag.fid() + 1;
    ASSERT_EQ(Reply(Deliver(rank, kCoordinatorRank, kTagWkLoad,
                            load.TakeBuffer())).tag,
              kTagWkAck);
    ASSERT_EQ(Reply(Deliver(rank, kCoordinatorRank, kTagWkRunPEval, {})).tag,
              kTagWkAck);
  }

  /// The frame among `frames` sent toward rank `to` with `tag`.
  static Frame To(const std::vector<Frame>& frames, uint32_t to,
                  uint32_t tag) {
    for (const Frame& f : frames) {
      if (f.to == to && f.tag == tag) return f;
    }
    ADD_FAILURE() << "no frame with tag " << tag << " toward rank " << to;
    return Frame{};
  }

  /// The last frame toward the coordinator among `frames` — the ack or
  /// error that closes a step (empty if none).
  static Frame Reply(const std::vector<Frame>& frames) {
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      if (it->to == kCoordinatorRank) return *it;
    }
    return Frame{};
  }

  /// The fragment `rank` holds resident, as its checkpoint base encodes it.
  std::vector<uint8_t> ResidentBytes(uint32_t rank) {
    WkCheckpointCommand cmd;
    cmd.round = ++round_;
    cmd.with_base = true;
    Encoder enc;
    cmd.EncodeTo(enc);
    Frame reply = Reply(
        Deliver(rank, kCoordinatorRank, kTagWkCheckpoint, enc.TakeBuffer()));
    EXPECT_EQ(reply.tag, kTagWkCheckpointAck);
    WkCheckpointAck ack;
    Decoder dec(reply.payload);
    EXPECT_TRUE(WkCheckpointAck::DecodeFrom(dec, &ack).ok());
    auto base = DecodeCheckpointBase(ack.base.data(), ack.base.size());
    EXPECT_TRUE(base.ok()) << base.status();
    return base.ok() ? base->fragment : std::vector<uint8_t>{};
  }

 private:
  std::vector<std::unique_ptr<RemoteWorkerHost>> hosts_;
  std::vector<Frame> emitted_;
  uint32_t round_ = 0;
};

// Every truncated kTagWkMutate, kTagWkMutMirror and kTagWkMutVals payload
// is answered with an error frame; a rejected kTagWkMutate leaves the
// resident fragment byte-identical; and after all of it a clean exchange
// still lands exactly the fragments a local patch produces.
TEST(MutationDecoderTest, TruncatedMutationFramesAreAnsweredWithErrors) {
  Graph g = GenerateGridRoad(12, 12, 77).value();
  FragmentedGraph fg = MakeFragments(g, "hash", 2);
  TwoHosts hosts;
  hosts.Load(fg.fragments[0]);
  hosts.Load(fg.fragments[1]);
  const std::vector<uint8_t> resident = hosts.ResidentBytes(2);
  ASSERT_EQ(resident, FragmentBytes(fg.fragments[1]));

  const std::vector<uint8_t> batch = BatchBytes(WireBatch());
  auto expect_error = [](const std::vector<TwoHosts::Frame>& frames,
                         const std::string& what) {
    EXPECT_EQ(TwoHosts::Reply(frames).tag, kTagWkError) << what;
  };
  for (size_t len = 0; len < batch.size(); ++len) {
    const std::string what = "mutate truncated to " + std::to_string(len);
    expect_error(hosts.Deliver(2, kCoordinatorRank, kTagWkMutate,
                               {batch.begin(), batch.begin() + len}),
                 what);
    ASSERT_EQ(hosts.ResidentBytes(2), resident) << what << ": half-applied";
  }

  // Rank 1's mirror frame to rank 2, and (once rank 1 read rank 2's) its
  // warm-value reply.
  auto from1 = hosts.Deliver(1, kCoordinatorRank, kTagWkMutate, batch);
  const TwoHosts::Frame mirror12 = TwoHosts::To(from1, 2, kTagWkMutMirror);
  auto from2 = hosts.Deliver(2, kCoordinatorRank, kTagWkMutate, batch);
  const TwoHosts::Frame mirror21 = TwoHosts::To(from2, 1, kTagWkMutMirror);
  const TwoHosts::Frame vals12 = TwoHosts::To(
      hosts.Deliver(1, 2, kTagWkMutMirror, mirror21.payload), 2,
      kTagWkMutVals);
  ASSERT_FALSE(vals12.payload.empty());

  for (const TwoHosts::Frame* frame : {&mirror12, &vals12}) {
    for (size_t len = 0; len < frame->payload.size(); ++len) {
      const std::string what = "tag " + std::to_string(frame->tag) +
                               " truncated to " + std::to_string(len);
      hosts.Deliver(2, kCoordinatorRank, kTagWkMutate, batch);
      expect_error(hosts.Deliver(2, 1, frame->tag,
                                 {frame->payload.begin(),
                                  frame->payload.begin() + len}),
                   what);
      ASSERT_EQ(hosts.ResidentBytes(2), resident) << what;
    }
  }

  // The clean exchange: rank 2 re-patches and takes rank 1's frames whole;
  // rank 1, still waiting on rank 2's warm values, finishes too.
  hosts.Deliver(2, kCoordinatorRank, kTagWkMutate, batch);
  const TwoHosts::Frame vals21 = TwoHosts::To(
      hosts.Deliver(2, 1, kTagWkMutMirror, mirror12.payload), 1,
      kTagWkMutVals);
  EXPECT_EQ(
      TwoHosts::Reply(hosts.Deliver(2, 1, kTagWkMutVals, vals12.payload)).tag,
      kTagWkMutateAck);
  EXPECT_EQ(
      TwoHosts::Reply(hosts.Deliver(1, 2, kTagWkMutVals, vals21.payload)).tag,
      kTagWkMutateAck);
  ASSERT_OK(FragmentBuilder::MutateFragmentedGraph(&fg, WireBatch()));
  EXPECT_EQ(hosts.ResidentBytes(1), FragmentBytes(fg.fragments[0]));
  EXPECT_EQ(hosts.ResidentBytes(2), FragmentBytes(fg.fragments[1]));
}

// ---------------------------------------------------- local oracle (batch)

TEST(MutationTest, LocalBatchOverloadMatchesFullRun) {
  auto g = GenerateGridRoad(20, 20, 909);
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg_old = MakeFragments(*g, "hash", 4);
  GrapeEngine<SsspApp> before(fg_old, SsspApp{});
  ASSERT_TRUE(before.Run(SsspQuery{0}).ok());

  MutationBatch m;
  m.InsertEdge(5, 390, 0.5);
  m.InsertEdge(390, 5, 0.5);
  ASSERT_OK_AND_ASSIGN(Graph updated, ApplyMutations(*g, m));
  FragmentedGraph fg_new = MakeFragments(updated, "hash", 4);

  GrapeEngine<SsspApp> after(fg_new, SsspApp{});
  auto inc = after.RunIncremental(SsspQuery{0}, before, m);
  ASSERT_TRUE(inc.ok()) << inc.status();
  EXPECT_FALSE(after.metrics().incremental_fallback);

  GrapeEngine<SsspApp> ref(fg_new, SsspApp{});
  auto full = ref.Run(SsspQuery{0});
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(BitEq(inc->dist, full->dist));
}

// A deletion under the min order cannot ride a warm start: the enforced
// contract must answer through the full-run fallback — and flag it —
// rather than return a silently stale (too-small) distance.
TEST(MutationTest, LocalDeletionBatchTakesEnforcedFallback) {
  auto g = GenerateGridRoad(15, 15, 911);
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg_old = MakeFragments(*g, "hash", 4);
  GrapeEngine<SsspApp> before(fg_old, SsspApp{});
  ASSERT_TRUE(before.Run(SsspQuery{0}).ok());

  MutationBatch m;
  m.DeleteEdge(0, 1);
  m.DeleteEdge(1, 0);
  ASSERT_OK_AND_ASSIGN(Graph updated, ApplyMutations(*g, m));
  FragmentedGraph fg_new = MakeFragments(updated, "hash", 4);

  GrapeEngine<SsspApp> after(fg_new, SsspApp{});
  auto inc = after.RunIncremental(SsspQuery{0}, before, m);
  ASSERT_TRUE(inc.ok()) << inc.status();
  EXPECT_TRUE(after.metrics().incremental_fallback)
      << "a deletion batch warm-started anyway";

  GrapeEngine<SsspApp> ref(fg_new, SsspApp{});
  auto full = ref.Run(SsspQuery{0});
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(BitEq(inc->dist, full->dist));
}

// ------------------------------------------------- remote differential gate

struct RemoteGateCase {
  std::string transport;
  std::string app;       // "sssp" | "cc"
  bool distributed;      // worker-built fragments vs coordinator-shipped
};

std::string CaseName(const ::testing::TestParamInfo<RemoteGateCase>& info) {
  return info.param.app + "_" + info.param.transport +
         (info.param.distributed ? "_distributed" : "_coordinator");
}

std::vector<RemoteGateCase> AllRemoteGateCases() {
  std::vector<RemoteGateCase> cases;
  for (const char* t : {"inproc", "socket", "tcp"}) {
    for (const char* a : {"sssp", "cc"}) {
      for (bool d : {false, true}) {
        cases.push_back(RemoteGateCase{t, a, d});
      }
    }
  }
  return cases;
}

/// The three-batch stream every cell replays: two stacked insert-only
/// batches (bounded deltas), then a deletion batch that must trip the
/// enforced fallback.
std::vector<MutationBatch> GateBatches() {
  std::vector<MutationBatch> batches(3);
  batches[0].InsertEdge(3, 140, 0.25);
  batches[0].InsertEdge(140, 3, 0.25);
  batches[1].InsertEdge(60, 100, 0.125);
  batches[1].InsertEdge(100, 60, 0.125);
  batches[2].DeleteEdge(3, 140);
  batches[2].DeleteEdge(140, 3);
  return batches;
}

/// The per-entry-point metrics contract: one RoundMetrics per superstep,
/// whose messages sum to the run's total, and one PEval/IncEval ack per
/// worker and superstep. A full run (Run, SessionRun, a fallback) opens
/// with PEval; the bounded delta opens with IncEval and neither loads nor
/// runs PEval.
void ExpectEntryPointMetrics(const EngineMetrics& m, uint32_t workers,
                             bool bounded_delta) {
  ASSERT_EQ(m.rounds.size(), m.supersteps);
  uint64_t round_messages = 0;
  for (const RoundMetrics& r : m.rounds) round_messages += r.messages;
  EXPECT_EQ(round_messages, m.messages);
  ASSERT_EQ(m.remote_peval_runs.size(), workers);
  ASSERT_EQ(m.remote_inceval_runs.size(), workers);
  uint64_t pevals = 0;
  uint64_t incevals = 0;
  for (uint32_t i = 0; i < workers; ++i) {
    pevals += m.remote_peval_runs[i];
    incevals += m.remote_inceval_runs[i];
  }
  if (bounded_delta) {
    EXPECT_EQ(pevals, 0u);
    EXPECT_EQ(incevals, uint64_t{workers} * m.supersteps);
    EXPECT_EQ(m.load_seconds, 0.0);
    EXPECT_EQ(m.peval_seconds, 0.0);
  } else {
    EXPECT_EQ(pevals, workers);
    EXPECT_EQ(incevals, uint64_t{workers} * (m.supersteps - 1));
  }
}

template <typename App, typename Query, typename GetVec>
void RunRemoteGate(const RemoteGateCase& c, const Query& query, GetVec get) {
  RegisterBuiltinWorkerApps();
  auto g0 = GenerateGridRoad(12, 12, 77);
  ASSERT_TRUE(g0.ok());
  Graph graph = std::move(*g0);

  auto world = MakeTransport(c.transport, 4);
  ASSERT_TRUE(world.ok()) << world.status();
  EngineOptions eo;
  eo.transport = world->get();
  eo.remote_app = c.app;

  std::optional<GrapeEngine<App>> engine;
  FragmentedGraph fg;
  DistributedGraphMeta meta;
  std::string path;
  if (c.distributed) {
    path = ::testing::TempDir() + "/grape_mut_" + c.app + "_" + c.transport +
           "_" + std::to_string(getpid()) + ".txt";
    ASSERT_OK(SaveEdgeListFile(graph, path));
    DistributedLoadOptions opt;
    opt.path = path;
    opt.format.directed = graph.is_directed();
    opt.format.has_weight = true;
    opt.format.has_label = true;
    ASSERT_OK_AND_ASSIGN(meta, DistributedLoad(world->get(), opt));
    eo.load_mode = "distributed";
    engine.emplace(meta, eo);
  } else {
    fg = MakeFragments(graph, "hash", 3);
    engine.emplace(fg, App{}, eo);
  }

  auto base = engine->SessionRun(query);
  ASSERT_TRUE(base.ok()) << base.status();
  {
    SCOPED_TRACE("SessionRun");
    ExpectEntryPointMetrics(engine->metrics(), 3, /*bounded_delta=*/false);
  }

  // Graph is move-only: regenerate the reference copy (same seed).
  auto current_r = GenerateGridRoad(12, 12, 77);
  ASSERT_TRUE(current_r.ok());
  Graph current = std::move(*current_r);
  const std::vector<MutationBatch> batches = GateBatches();
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const MutationBatch& m = batches[bi];
    if (!c.distributed) {
      // Coordinator placement keeps rank 0's fragments in lockstep, the
      // way the serving layer does, so a later cold load cannot roll the
      // endpoints back.
      ASSERT_OK(FragmentBuilder::MutateFragmentedGraph(&fg, m));
    }
    ASSERT_OK(engine->ApplyMutations(m).status());
    auto inc = engine->RunIncremental(query, m);
    ASSERT_TRUE(inc.ok()) << "batch " << bi << ": " << inc.status();
    EXPECT_EQ(engine->metrics().incremental_fallback, m.has_deletions())
        << "batch " << bi;
    {
      SCOPED_TRACE("RunIncremental batch " + std::to_string(bi));
      ExpectEntryPointMetrics(engine->metrics(), 3,
                              /*bounded_delta=*/!m.has_deletions());
    }

    // The differential gate: bit-identical to a from-scratch recompute
    // of the mutated graph.
    ASSERT_OK_AND_ASSIGN(current, ApplyMutations(current, m));
    FragmentedGraph ref_fg = MakeFragments(current, "hash", 3);
    GrapeEngine<App> ref(ref_fg, App{});
    auto full = ref.Run(query);
    ASSERT_TRUE(full.ok()) << full.status();
    EXPECT_TRUE(BitEq(get(*inc), get(*full))) << "batch " << bi;
  }

  // A batch Run retires the session and reloads the mutated fragments.
  FragmentedGraph ref_fg = MakeFragments(current, "hash", 3);
  GrapeEngine<App> ref(ref_fg, App{});
  auto full = ref.Run(query);
  ASSERT_TRUE(full.ok()) << full.status();
  auto run = engine->Run(query);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(BitEq(get(*run), get(*full)));
  {
    SCOPED_TRACE("Run");
    ExpectEntryPointMetrics(engine->metrics(), 3, /*bounded_delta=*/false);
  }
  engine->EndSession();
  if (!path.empty()) {
    ResidentFragmentStore::Global().Erase(meta.token);
    std::remove(path.c_str());
  }
}

class MutationRemoteGateTest
    : public ::testing::TestWithParam<RemoteGateCase> {};

TEST_P(MutationRemoteGateTest, IncrementalBitIdenticalToRecompute) {
  const RemoteGateCase& c = GetParam();
  if (c.app == "sssp") {
    RunRemoteGate<SsspApp>(c, SsspQuery{0},
                           [](const SsspOutput& o) { return o.dist; });
  } else {
    RunRemoteGate<CcApp>(c, CcQuery{},
                         [](const CcOutput& o) { return o.label; });
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, MutationRemoteGateTest,
                         ::testing::ValuesIn(AllRemoteGateCases()), CaseName);

// RunIncremental re-answers the session's last query, and the delta frame
// carries only the touched vertices. A different query must not ride that
// warm state: it takes the enforced fallback (a full SessionRun of the
// query asked, flagged), after which the same query is the session's and
// the next batch takes the bounded delta again.
class MutationQueryMismatchTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(MutationQueryMismatchTest, OtherQueryTakesFallback) {
  RegisterBuiltinWorkerApps();
  auto g0 = GenerateGridRoad(12, 12, 77);
  ASSERT_TRUE(g0.ok());
  FragmentedGraph fg = MakeFragments(*g0, "hash", 3);
  auto world = MakeTransport(GetParam(), 4);
  ASSERT_TRUE(world.ok()) << world.status();
  EngineOptions eo;
  eo.transport = world->get();
  eo.remote_app = "sssp";
  GrapeEngine<SsspApp> engine(fg, SsspApp{}, eo);
  ASSERT_TRUE(engine.SessionRun(SsspQuery{0}).ok());

  Graph current = std::move(*g0);
  const std::vector<MutationBatch> batches = GateBatches();
  for (size_t bi = 0; bi < 2; ++bi) {
    const MutationBatch& m = batches[bi];
    ASSERT_FALSE(m.has_deletions());
    ASSERT_OK(FragmentBuilder::MutateFragmentedGraph(&fg, m));
    ASSERT_OK(engine.ApplyMutations(m).status());
    auto inc = engine.RunIncremental(SsspQuery{77}, m);
    ASSERT_TRUE(inc.ok()) << "batch " << bi << ": " << inc.status();
    const bool mismatched = bi == 0;  // the session last answered source 0
    EXPECT_EQ(engine.metrics().incremental_fallback, mismatched)
        << "batch " << bi;
    {
      SCOPED_TRACE("batch " + std::to_string(bi));
      ExpectEntryPointMetrics(engine.metrics(), 3,
                              /*bounded_delta=*/!mismatched);
    }

    ASSERT_OK_AND_ASSIGN(current, ApplyMutations(current, m));
    FragmentedGraph ref_fg = MakeFragments(current, "hash", 3);
    GrapeEngine<SsspApp> ref(ref_fg, SsspApp{});
    auto full = ref.Run(SsspQuery{77});
    ASSERT_TRUE(full.ok()) << full.status();
    EXPECT_TRUE(BitEq(inc->dist, full->dist)) << "batch " << bi;
  }
  engine.EndSession();
}

INSTANTIATE_TEST_SUITE_P(
    Transports, MutationQueryMismatchTest,
    ::testing::Values("inproc", "socket"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// Guard-rail: the mutation API stays session-scoped — using it without a
// live session is an error, not a crash or a silent local mutation.
TEST(MutationTest, ApplyMutationsRequiresLiveSession) {
  RegisterBuiltinWorkerApps();
  auto g = GenerateGridRoad(6, 6, 5);
  ASSERT_TRUE(g.ok());
  FragmentedGraph fg = MakeFragments(*g, "hash", 3);
  auto world = MakeTransport("inproc", 4);
  ASSERT_TRUE(world.ok());
  EngineOptions eo;
  eo.transport = world->get();
  eo.remote_app = "sssp";
  GrapeEngine<SsspApp> engine(fg, SsspApp{}, eo);
  MutationBatch m;
  m.InsertEdge(0, 35, 1.0);
  EXPECT_TRUE(engine.ApplyMutations(m).status().IsFailedPrecondition());

  GrapeEngine<SsspApp> local(fg, SsspApp{});
  EXPECT_TRUE(local.ApplyMutations(m).status().IsInvalidArgument());
}

}  // namespace
}  // namespace grape
