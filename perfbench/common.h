#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Pieces shared by the three workloads: run configuration, timed and
// traced calls into the system's layers, the seeded mutation stream,
// per-class engine counters, and the answer oracle.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "apps/pagerank.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/mutation.h"
#include "perfbench/loadgen.h"
#include "perfbench/report.h"
#include "perfbench/trace.h"
#include "rt/transport.h"
#include "util/random.h"

namespace perfbench {

using grape::VertexId;

/// Every workload runs 3 workers, a 4-rank world.
inline constexpr grape::FragmentId kWorkers = 3;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for generated inputs (edge-list files).
  std::string data_dir;
};

/// Independent sub-seed for one consumer of the workload seed.
inline uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return grape::SplitMix64(seed * 0x9E3779B97F4A7C15ull + salt);
}

inline Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Runs fn() inside a span of `layer` and returns its wall time in seconds.
template <typename Fn>
double Timed(const char* layer, const char* name, Fn&& fn) {
  ScopedSpan span(layer, name);
  const auto t0 = Clock::now();
  fn();
  return SecondsSince(t0);
}

/// Brings up a fresh world of kWorkers + 1 ranks (rt.world_up_s).
std::unique_ptr<grape::Transport> MakeWorld(const std::string& backend,
                                            double* seconds);

/// How a world holds its graph: a coordinator-built FragmentedGraph that
/// engines ship on their first load, or fragments already resident in the
/// endpoints after DistributedLoad.
struct LoadedGraph {
  const grape::FragmentedGraph* fg = nullptr;
  const grape::DistributedGraphMeta* meta = nullptr;
};

/// A remote-compute engine for `remote_app` on `world`.
template <typename App>
std::unique_ptr<grape::GrapeEngine<App>> MakeEngine(
    const LoadedGraph& loaded, grape::Transport* world,
    const std::string& remote_app,
    grape::CheckpointPolicy checkpoint = {}) {
  grape::EngineOptions eo;
  eo.transport = world;
  eo.remote_app = remote_app;
  eo.checkpoint = checkpoint;
  if (loaded.fg != nullptr) {
    return std::make_unique<grape::GrapeEngine<App>>(*loaded.fg, App{}, eo);
  }
  return std::make_unique<grape::GrapeEngine<App>>(*loaded.meta, eo);
}

/// The edge-list format every workload writes and DistributedLoad reads.
grape::EdgeListFormat EdgeFormat();

/// Generates an RMAT graph, writes it to `path` as an edge list, and hands
/// it to inspect() before dropping it — before any endpoint is forked, so
/// no endpoint process inherits it.
void WriteRmatEdgeList(const grape::RMatOptions& options, const std::string& path,
                       const std::function<void(const grape::Graph&)>& inspect);

/// The oracle's graph: the edge list read back, exactly what the workers
/// assemble their fragments from.
grape::Graph LoadOracleGraph(const std::string& path);

/// graph.vertices / graph.edges.
void EmitGraph(const grape::Graph& graph, Report* report);

/// mem_mb (sum of endpoint VmHWM) and rt.endpoint_rss_mb (largest).
void EmitMemory(const grape::Transport& world, Report* report);

/// partition.cut_fraction / partition.replication of `assignment`, or of
/// DistributedLoad's "hash" ownership (the hash partitioner's) when null.
void EmitPartitionQuality(const grape::Graph& graph,
                          const std::vector<grape::FragmentId>* assignment,
                          Report* report);

/// `count` distinct vertices with out-degree > 0, drawn from the seed.
std::vector<VertexId> PickSources(const grape::Graph& graph, uint64_t seed,
                                  size_t count);

/// The writers' update stream. Batch k holds 16 edge inserts between
/// distinct random vertices, with integral weights in [1, 10] so every
/// shortest distance stays exact; every 8th batch also deletes one edge an
/// earlier batch inserted, which forces the engine's full-rerun fallback.
class MutationStream {
 public:
  MutationStream(uint64_t seed, VertexId num_vertices)
      : rng_(seed), num_vertices_(num_vertices) {}

  /// A stream for a GenerateGridRoad graph with `cols` columns: every
  /// insert re-weights an existing road segment (a traffic update), so the
  /// grid keeps its shape, and the reads their cost, however many batches
  /// a run sends.
  static MutationStream GridRoad(uint64_t seed, VertexId num_vertices, uint32_t cols) {
    MutationStream stream(seed, num_vertices);
    stream.grid_cols_ = cols;
    return stream;
  }

  grape::MutationBatch Next();

 private:
  /// An endpoint for an edge out of src: any other vertex, or on a grid a
  /// neighbour; kInvalidVertex when the draw falls off the grid.
  VertexId DrawDst(VertexId src);

  grape::Rng rng_;
  VertexId num_vertices_;
  uint32_t grid_cols_ = 0;
  uint64_t produced_ = 0;
  std::vector<grape::Edge> inserted_;
};

/// EngineMetrics of every run of one query class, reported as
/// core.<class>.* medians.
class ClassMetrics {
 public:
  void Add(const grape::EngineMetrics& m) { runs_.push_back(m); }
  size_t runs() const { return runs_.size(); }
  void Emit(const std::string& cls, Report* report) const;

  /// Median over the runs of field(EngineMetrics).
  template <typename Field>
  double MedianOf(Field field) const {
    std::vector<double> v;
    for (const auto& m : runs_) v.push_back(static_cast<double>(field(m)));
    return Median(std::move(v));
  }

 private:
  friend void EmitPerQueryComm(std::initializer_list<const ClassMetrics*>,
                               Report*);
  std::vector<grape::EngineMetrics> runs_;
};

/// rt.msgs_per_query / rt.bytes_per_query: exact EngineMetrics message and
/// byte counts summed over every run of `classes`, per run.
void EmitPerQueryComm(std::initializer_list<const ClassMetrics*> classes,
                      Report* report);

/// Edge operations across a batch sequence (graph.mutation_ops).
uint64_t CountOps(const std::vector<grape::MutationBatch>& batches);

/// Answer classes whose digests the oracle can check exactly.
enum class AnswerClass : uint8_t { kSssp, kBfs, kCc };

/// One answer seen during a timed phase: its digest, and the window of
/// graph versions it may reflect — [mutations acknowledged before the
/// request was sent, mutations sent before the answer arrived].
struct AnswerRecord {
  AnswerClass cls = AnswerClass::kSssp;
  VertexId source = 0;
  uint64_t digest = 0;
  uint32_t lo = 0;
  uint32_t hi = 0;
};

/// Checks every record against SeqDijkstra / SeqBfs / SeqConnectedComponents
/// on base ⊕ batches[0..v) for some v in its window. A record that matches
/// no version in its window is a wrong answer.
void CheckAnswers(const grape::Graph& base,
                  const std::vector<grape::MutationBatch>& batches,
                  std::vector<AnswerRecord> records, Report* report);

/// Checks a PageRank answer against SeqPageRank with the same parameters,
/// within the 1e-6 per vertex that the PageRank tests allow.
void CheckPageRank(const grape::Graph& graph, const grape::PageRankQuery& query,
                   const std::vector<double>& rank, Report* report);

/// Engine-direct phase: SessionRun of each query class straight on the
/// world, with no serve layer in between — `n` warm single-source SSSP and
/// BFS waves (the serve path's own apps), three CC runs and two PageRank
/// runs. Emits core.<class>.* and rt.msgs_per_query / rt.bytes_per_query,
/// logs every point answer for the oracle, stores one PageRank answer in
/// *pagerank, and returns the median warm SSSP latency in ms.
double RunEngineDirect(const LoadedGraph& loaded, grape::Transport* world,
                       const std::vector<VertexId>& sources, size_t n,
                       Report* report, std::vector<AnswerRecord>* records,
                       std::vector<double>* pagerank);

/// Engine mutation phase: a CC session, then ApplyMutations +
/// RunIncremental for each of `count` batches. Emits
/// core.apply_mutations_ms, core.run_incremental_ms and
/// core.incremental_fallbacks; appends every batch and each refreshed CC
/// answer (its window is the exact version); returns each batch's
/// interval, apply through re-answer.
std::vector<Window> RunEngineMutations(
    const LoadedGraph& loaded, grape::Transport* world, MutationStream* stream,
    size_t count, Report* report,
    std::vector<grape::MutationBatch>* batches,
    std::vector<AnswerRecord>* records);

/// Per-layer self time (<layer>.self_s) from the recorded spans.
void EmitSelfTimes(Report* report);

/// The per-layer metrics every workload reports, zero where the workload
/// does not exercise the layer. Workloads overwrite what they measure.
void EmitPerLayerDefaults(Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
