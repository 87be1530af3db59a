#include "perfbench/common.h"

#include <algorithm>
#include <map>
#include <optional>
#include <type_traits>
#include <utility>

#include "apps/cc.h"
#include "apps/ms_bfs.h"
#include "apps/ms_sssp.h"
#include "apps/seq/seq_algorithms.h"
#include "partition/partitioner.h"
#include "partition/quality.h"
#include "util/logging.h"

namespace perfbench {

using grape::Graph;
using grape::MutationBatch;

std::unique_ptr<grape::Transport> MakeWorld(const std::string& backend,
                                            double* seconds) {
  std::unique_ptr<grape::Transport> world;
  *seconds = Timed("rt", "MakeTransport", [&] {
    auto made = grape::MakeTransport(backend, kWorkers + 1);
    GRAPE_CHECK(made.ok()) << made.status();
    world = std::move(made).value();
  });
  return world;
}

grape::EdgeListFormat EdgeFormat() {
  grape::EdgeListFormat format;
  format.directed = true;
  format.has_weight = true;
  format.has_label = true;
  return format;
}

void WriteRmatEdgeList(const grape::RMatOptions& options, const std::string& path,
                       const std::function<void(const Graph&)>& inspect) {
  Graph graph;
  Timed("graph", "GenerateRMat", [&] {
    auto g = grape::GenerateRMat(options);
    GRAPE_CHECK(g.ok()) << g.status();
    graph = std::move(g).value();
  });
  Timed("graph", "SaveEdgeListFile", [&] {
    grape::Status s = grape::SaveEdgeListFile(graph, path);
    GRAPE_CHECK(s.ok()) << s;
  });
  inspect(graph);
}

Graph LoadOracleGraph(const std::string& path) {
  Graph graph;
  Timed("graph", "LoadEdgeListFile", [&] {
    auto g = grape::LoadEdgeListFile(path, EdgeFormat());
    GRAPE_CHECK(g.ok()) << g.status();
    graph = std::move(g).value();
  });
  return graph;
}

void EmitGraph(const Graph& graph, Report* report) {
  report->Set("graph.vertices", graph.num_vertices(), "count");
  report->Set("graph.edges", static_cast<double>(graph.num_edges()), "count");
}

void EmitMemory(const grape::Transport& world, Report* report) {
  double sum = 0, max = 0;
  const std::vector<int64_t> pids = world.endpoint_process_ids();
  for (int64_t pid : pids) {
    const double mib = VmHwmMiB(pid);
    sum += mib;
    max = std::max(max, mib);
  }
  const std::string n = std::to_string(pids.size()) + " endpoints";
  report->Set("mem_mb", sum, "MiB", "sum of VmHWM over " + n);
  report->Set("rt.endpoint_rss_mb", max, "MiB", "max VmHWM over " + n);
}

void EmitPartitionQuality(const Graph& graph,
                          const std::vector<grape::FragmentId>* assignment,
                          Report* report) {
  std::vector<grape::FragmentId> hash;
  if (assignment == nullptr) {
    auto p = grape::MakePartitioner("hash");
    GRAPE_CHECK(p.ok()) << p.status();
    auto a = (*p)->Partition(graph, kWorkers);
    GRAPE_CHECK(a.ok()) << a.status();
    hash = std::move(a).value();
    assignment = &hash;
  }
  const grape::PartitionQuality q =
      grape::EvaluatePartition(graph, *assignment, kWorkers);
  report->Set("partition.cut_fraction", q.cut_fraction, "ratio",
              "base " + std::to_string(q.cut_edges) + "/" + std::to_string(q.total_edges));
  report->Set("partition.replication", static_cast<double>(q.replication), "count");
}

std::vector<VertexId> PickSources(const Graph& graph, uint64_t seed,
                                  size_t count) {
  grape::Rng rng(seed);
  std::vector<VertexId> out;
  std::vector<bool> taken(graph.num_vertices(), false);
  while (out.size() < count) {
    const auto v = static_cast<VertexId>(rng.NextBounded(graph.num_vertices()));
    if (taken[v] || graph.OutDegree(v) == 0) continue;
    taken[v] = true;
    out.push_back(v);
  }
  return out;
}

VertexId MutationStream::DrawDst(VertexId src) {
  if (grid_cols_ == 0) return static_cast<VertexId>(rng_.NextBounded(num_vertices_));
  const VertexId c = src % grid_cols_;
  switch (rng_.NextBounded(4)) {
    case 0: return c + 1 < grid_cols_ ? src + 1 : grape::kInvalidVertex;
    case 1: return c > 0 ? src - 1 : grape::kInvalidVertex;
    case 2: return src + grid_cols_ < num_vertices_ ? src + grid_cols_ : grape::kInvalidVertex;
    default: return src >= grid_cols_ ? src - grid_cols_ : grape::kInvalidVertex;
  }
}

MutationBatch MutationStream::Next() {
  MutationBatch batch;
  while (batch.size() < 16) {
    const auto src = static_cast<VertexId>(rng_.NextBounded(num_vertices_));
    const VertexId dst = DrawDst(src);
    if (dst == grape::kInvalidVertex || src == dst) continue;
    const auto w = static_cast<double>(rng_.NextInt(1, 10));
    batch.InsertEdge(src, dst, w);
    inserted_.push_back(batch.ops.back().edge);
  }
  if (produced_ % 8 == 7) {
    const grape::Edge& e = inserted_[rng_.NextBounded(inserted_.size() - 16)];
    batch.DeleteEdge(e.src, e.dst);
  }
  ++produced_;
  return batch;
}

void EmitPerQueryComm(std::initializer_list<const ClassMetrics*> classes,
                      Report* report) {
  uint64_t runs = 0, msgs = 0, bytes = 0;
  for (const ClassMetrics* c : classes) {
    for (const auto& m : c->runs_) {
      ++runs;
      msgs += m.messages;
      bytes += m.bytes;
    }
  }
  const std::string base = "over " + std::to_string(runs) + " engine queries";
  report->Set("rt.msgs_per_query", runs ? double(msgs) / runs : 0, "count", base);
  report->Set("rt.bytes_per_query", runs ? double(bytes) / runs : 0, "bytes", base);
}

uint64_t CountOps(const std::vector<MutationBatch>& batches) {
  uint64_t ops = 0;
  for (const MutationBatch& b : batches) ops += b.size();
  return ops;
}

void ClassMetrics::Emit(const std::string& cls, Report* report) const {
  if (runs_.empty()) return;
  auto median = [&](auto field) { return MedianOf(field); };
  const std::string p = "core." + cls + ".";
  const std::string n = "n=" + std::to_string(runs_.size());
  report->Set(p + "query_ms", median([](auto& m) { return m.total_seconds * 1e3; }), "ms", n);
  report->Set(p + "supersteps", median([](auto& m) { return double(m.supersteps); }), "count", n);
  report->Set(p + "superstep_ms", median([](auto& m) {
                return m.supersteps == 0 ? 0.0 : m.total_seconds * 1e3 / m.supersteps;
              }), "ms", n);
  report->Set(p + "peval_s", median([](auto& m) { return m.peval_seconds; }), "s", n);
  report->Set(p + "inceval_s", median([](auto& m) { return m.inceval_seconds; }), "s", n);
  report->Set(p + "coord_s", median([](auto& m) { return m.coordinator_seconds; }), "s", n);
  report->Set(p + "assemble_s", median([](auto& m) { return m.assemble_seconds; }), "s", n);
  // Sessions load once and then stay resident, so the load time is the
  // median over the runs that actually loaded.
  std::vector<double> loads;
  for (const auto& m : runs_) {
    if (m.load_seconds > 0) loads.push_back(m.load_seconds);
  }
  report->Set(p + "load_s", Median(loads), "s",
              "cold loads n=" + std::to_string(loads.size()));
}

namespace {

/// The oracle's digest of one answer on `graph`.
uint64_t OracleDigest(const Graph& graph, AnswerClass cls, VertexId source) {
  switch (cls) {
    case AnswerClass::kSssp:
      return DigestOf(grape::SeqDijkstra(graph, source));
    case AnswerClass::kBfs:
      return DigestOf(grape::SeqBfs(graph, source));
    case AnswerClass::kCc:
      return DigestOf(grape::SeqConnectedComponents(graph));
  }
  return 0;
}

}  // namespace

void CheckAnswers(const Graph& base, const std::vector<MutationBatch>& batches,
                   std::vector<AnswerRecord> records, Report* report) {
  ScopedSpan span("apps", "oracle.CheckAnswers");
  std::vector<bool> matched(records.size(), false);
  const Graph* current = &base;
  Graph owned;
  for (uint32_t v = 0; v <= batches.size(); ++v) {
    if (v > 0) {
      ScopedSpan apply("graph", "ApplyMutations");
      auto next = grape::ApplyMutations(*current, batches[v - 1]);
      GRAPE_CHECK(next.ok()) << next.status();
      owned = std::move(next).value();
      current = &owned;
    }
    std::map<std::pair<AnswerClass, VertexId>, uint64_t> memo;
    for (size_t i = 0; i < records.size(); ++i) {
      const AnswerRecord& r = records[i];
      if (matched[i] || v < r.lo || v > r.hi) continue;
      const auto key = std::make_pair(r.cls, r.cls == AnswerClass::kCc ? 0 : r.source);
      auto it = memo.find(key);
      if (it == memo.end()) {
        it = memo.emplace(key, OracleDigest(*current, r.cls, r.source)).first;
      }
      matched[i] = it->second == r.digest;
    }
  }
  static const char* kNames[] = {"sssp", "bfs", "cc"};
  for (size_t i = 0; i < records.size(); ++i) {
    if (matched[i]) continue;
    const AnswerRecord& r = records[i];
    report->CheckFailed(std::string(kNames[static_cast<int>(r.cls)]) +
                        " answer from source " + std::to_string(r.source) +
                        " matches the oracle at no graph version in [" +
                        std::to_string(r.lo) + ", " + std::to_string(r.hi) + "]");
  }
}

void CheckPageRank(const Graph& graph, const grape::PageRankQuery& query,
                   const std::vector<double>& rank, Report* report) {
  grape::PageRankConfig config;
  config.damping = query.damping;
  config.max_iterations = query.max_iterations;
  config.epsilon = query.epsilon;
  std::vector<double> expected;
  {
    ScopedSpan span("apps", "SeqPageRank");
    expected = grape::SeqPageRank(graph, config);
  }
  const double diff = MaxAbsDiff(rank, expected);
  if (!(diff <= 1e-6)) {
    report->CheckFailed("pagerank differs from SeqPageRank by " +
                        std::to_string(diff));
  }
}

namespace {

/// One engine call under a core span; a failed call counts as a failed
/// operation and yields nullopt.
template <typename Fn>
auto EngineCall(const char* name, Report* report, Fn&& fn)
    -> std::optional<std::remove_cvref_t<decltype(*fn())>> {
  report->Attempted();
  ScopedSpan span("core", name);
  auto out = fn();
  if (!out.ok()) {
    report->Failed(std::string(name) + ": " + out.status().ToString());
    return std::nullopt;
  }
  return std::move(out).value();
}

}  // namespace

double RunEngineDirect(const LoadedGraph& loaded, grape::Transport* world,
                       const std::vector<VertexId>& sources, size_t n,
                       Report* report, std::vector<AnswerRecord>* records,
                       std::vector<double>* pagerank) {
  ClassMetrics sssp, bfs, cc, pr;
  std::vector<double> sssp_ms;
  {
    auto engine = MakeEngine<grape::MsSsspApp>(loaded, world, "ms_sssp");
    for (size_t i = 0; i <= n; ++i) {
      const VertexId s = sources[i % sources.size()];
      const auto t0 = Clock::now();
      auto out = EngineCall("SessionRun.sssp", report, [&] {
        return engine->SessionRun(grape::MsSsspQuery{{s}});
      });
      if (!out) continue;
      if (i > 0) sssp_ms.push_back(SecondsSince(t0) * 1e3);  // i = 0 loads
      sssp.Add(engine->metrics());
      records->push_back({AnswerClass::kSssp, s, DigestOf(out->dist[0]), 0, 0});
    }
  }
  {
    auto engine = MakeEngine<grape::MsBfsApp>(loaded, world, "ms_bfs");
    for (size_t i = 0; i <= n / 2; ++i) {
      const VertexId s = sources[(i * 7 + 3) % sources.size()];
      auto out = EngineCall("SessionRun.bfs", report, [&] {
        return engine->SessionRun(grape::MsBfsQuery{{s}});
      });
      if (!out) continue;
      bfs.Add(engine->metrics());
      records->push_back({AnswerClass::kBfs, s, DigestOf(out->depth[0]), 0, 0});
    }
  }
  {
    auto engine = MakeEngine<grape::CcApp>(loaded, world, "cc");
    for (int i = 0; i < 3; ++i) {
      auto out = EngineCall("SessionRun.cc", report,
                            [&] { return engine->SessionRun(grape::CcQuery{}); });
      if (!out) continue;
      cc.Add(engine->metrics());
      records->push_back({AnswerClass::kCc, 0, DigestOf(out->label), 0, 0});
    }
  }
  {
    auto engine = MakeEngine<grape::PageRankApp>(loaded, world, "pagerank");
    for (int i = 0; i < 2; ++i) {
      auto out = EngineCall("SessionRun.pagerank", report, [&] {
        return engine->SessionRun(grape::PageRankQuery{});
      });
      if (!out) continue;
      pr.Add(engine->metrics());
      if (pagerank->empty()) {
        *pagerank = std::move(out->rank);
      } else if (DigestOf(out->rank) != DigestOf(*pagerank)) {
        report->CheckFailed("repeated PageRank session answers differ");
      }
    }
  }
  sssp.Emit("sssp", report);
  bfs.Emit("bfs", report);
  cc.Emit("cc", report);
  pr.Emit("pagerank", report);
  EmitPerQueryComm({&sssp, &bfs, &cc, &pr}, report);
  return Median(sssp_ms);
}

std::vector<Window> RunEngineMutations(
    const LoadedGraph& loaded, grape::Transport* world, MutationStream* stream,
    size_t count, Report* report,
    std::vector<MutationBatch>* batches, std::vector<AnswerRecord>* records) {
  std::vector<Window> timed;
  std::vector<double> apply_ms, incremental_ms;
  uint64_t fallbacks = 0;
  auto engine = MakeEngine<grape::CcApp>(loaded, world, "cc");
  const auto version0 = static_cast<uint32_t>(batches->size());
  auto first = EngineCall("SessionRun.cc", report,
                          [&] { return engine->SessionRun(grape::CcQuery{}); });
  if (first) {
    records->push_back({AnswerClass::kCc, 0, DigestOf(first->label), version0, version0});
  }
  while (first && timed.size() < count) {
    MutationBatch batch = stream->Next();
    batches->push_back(batch);
    const auto t0 = Clock::now();
    auto shapes = EngineCall("ApplyMutations", report,
                             [&] { return engine->ApplyMutations(batch); });
    if (!shapes) break;
    const auto t1 = Clock::now();
    auto out = EngineCall("RunIncremental.cc", report, [&] {
      return engine->RunIncremental(grape::CcQuery{}, batch);
    });
    if (!out) break;
    const auto t2 = Clock::now();
    apply_ms.push_back(MsBetween(t0, t1));
    incremental_ms.push_back(MsBetween(t1, t2));
    timed.push_back({ToSeconds(t0), ToSeconds(t2)});
    if (engine->metrics().incremental_fallback) ++fallbacks;
    const auto v = static_cast<uint32_t>(batches->size());
    records->push_back({AnswerClass::kCc, 0, DigestOf(out->label), v, v});
  }
  const std::string n = "n=" + std::to_string(timed.size());
  report->Set("core.apply_mutations_ms", Median(apply_ms), "ms", n);
  report->Set("core.run_incremental_ms", Median(incremental_ms), "ms", n);
  report->Set("core.incremental_fallbacks", static_cast<double>(fallbacks),
              "count", "of " + std::to_string(timed.size()) + " batches");
  return timed;
}

void EmitSelfTimes(Report* report) {
  for (const auto& [layer, seconds] :
       SelfSecondsByLayer(SpanRecorder::Global().spans())) {
    report->Set(layer + ".self_s", seconds, "s", "span self time");
  }
}

void EmitPerLayerDefaults(Report* report) {
  static const std::pair<const char*, const char*> kMetrics[] = {
      {"serve.start_s", "s"}, {"serve.lanes_per_wave", "lanes"},
      {"serve.fused_frac", "ratio"},
      {"serve.delta_refresh_frac", "ratio"},
      {"serve.deferred_transitions", "count"}, {"serve.overhead_ms", "ms"},
      {"serve.errors", "count"}, {"serve.rejected_frames", "count"},
      {"core.apply_mutations_ms", "ms"}, {"core.run_incremental_ms", "ms"},
      {"core.incremental_fallbacks", "count"},
      {"rt.world_up_s", "s"}, {"rt.load_s", "s"}, {"rt.load_shard_s", "s"},
      {"rt.load_build_s", "s"}, {"rt.msgs_per_query", "count"},
      {"rt.bytes_per_query", "bytes"}, {"rt.ckpts", "count"},
      {"rt.ckpt_bytes", "bytes"}, {"rt.ckpt_s", "s"},
      {"rt.endpoint_rss_mb", "MiB"},
      {"partition.partition_s", "s"}, {"partition.build_s", "s"},
      {"partition.cut_fraction", "ratio"}, {"partition.replication", "count"},
      {"graph.vertices", "count"}, {"graph.edges", "count"},
      {"graph.mutation_ops", "count"},
      {"loadgen.late_p50_ms", "ms"}, {"loadgen.late_max_ms", "ms"},
      {"loadgen.query_p99_ms", "ms"}, {"loadgen.samples", "count"},
      {"loadgen.trace_overhead_frac", "ratio"},
  };
  for (const auto& [name, unit] : kMetrics) report->Set(name, 0, unit, "not exercised");
  for (const char* cls : {"sssp", "bfs", "cc", "pagerank"}) {
    const std::string p = std::string("core.") + cls + ".";
    for (const char* s : {"query_ms", "superstep_ms"}) report->Set(p + s, 0, "ms", "not exercised");
    report->Set(p + "supersteps", 0, "count", "not exercised");
    for (const char* s : {"peval_s", "inceval_s", "coord_s", "assemble_s", "load_s"}) {
      report->Set(p + s, 0, "s", "not exercised");
    }
  }
  for (const char* layer : {"loadgen", "serve", "core", "rt", "partition", "graph", "apps"}) {
    report->Set(std::string(layer) + ".self_s", 0, "s", "no spans");
  }
}

}  // namespace perfbench
