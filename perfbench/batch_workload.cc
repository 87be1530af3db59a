// batch_rmat: one-shot analytics on a fresh tcp world. DistributedLoad of
// an RMAT edge list, then a fixed suite of separate Runs repeated for most
// of the run, then incremental CC maintenance under mutation batches.

#include <algorithm>
#include <cstdio>
#include <optional>

#include "apps/bfs.h"
#include "apps/cc.h"
#include "apps/sssp.h"
#include "perfbench/workloads.h"
#include "rt/distributed_load.h"
#include "util/logging.h"

namespace perfbench {
namespace {

using grape::DistributedGraphMeta;
using grape::Graph;
using grape::Transport;

constexpr int kBatchSetups = 4;
constexpr uint32_t kBatchScale = 17;
constexpr uint32_t kBatchEdgeFactor = 16;
constexpr int kSuiteRuns = 5;
/// About 8 s at ~650 ms per batch on a 4-core machine; the quiet-window
/// median keeps 6 of them.
constexpr size_t kBatchMutations = 12;

/// The suite's queries: PageRank for a fixed 20 iterations, the same with
/// a checkpoint every 5 supersteps, CC, and SSSP / BFS from the two
/// largest hubs.
struct Suite {
  grape::PageRankQuery pagerank{0.85, 20, 0.0};
  VertexId sssp_source = 0;
  VertexId bfs_source = 0;
};

/// Per-class engine counters, run latencies and the answers' digests.
struct SuiteLog {
  ClassMetrics sssp, bfs, cc, pagerank, checkpointed;
  std::vector<TimedSample> run_ms;  // completion time, ms
  /// The SSSP Runs alone: a percentile over every Run would fall on the
  /// boundary between two query classes and flip with the sample count.
  std::vector<TimedSample> sssp_ms;
  std::vector<Window> suites;
  std::vector<AnswerRecord> records;
  std::vector<double> first_pagerank;
};

/// One Run of App on the resident graph, timed end to end (engine
/// construction included: a one-shot job builds its engine).
template <typename App>
std::optional<typename App::OutputType> RunOnce(
    const char* name, const DistributedGraphMeta& meta, Transport* world,
    const std::string& remote_app, const typename App::QueryType& query,
    ClassMetrics* metrics, SuiteLog* log, Report* report,
    grape::CheckpointPolicy checkpoint = {}) {
  report->Attempted();
  ScopedSpan span("core", name);
  const auto t0 = Clock::now();
  auto engine = MakeEngine<App>(LoadedGraph{nullptr, &meta}, world, remote_app,
                                checkpoint);
  auto out = engine->Run(query);
  if (!out.ok()) {
    report->Failed(std::string(name) + ": " + out.status().ToString());
    return std::nullopt;
  }
  const auto done = Clock::now();
  log->run_ms.push_back({ToSeconds(done), MsBetween(t0, done)});
  metrics->Add(engine->metrics());
  return std::move(out).value();
}

/// One pass of the suite, or (first_answers) one Run per query class.
void RunSuite(const Suite& suite, const DistributedGraphMeta& meta,
              Transport* world, bool first_answers, SuiteLog* log,
              Report* report) {
  auto check_pagerank = [&](std::vector<double>&& rank) {
    if (log->first_pagerank.empty()) {
      log->first_pagerank = std::move(rank);
    } else if (DigestOf(rank) != DigestOf(log->first_pagerank)) {
      report->CheckFailed("PageRank answers differ between identical runs");
    }
  };
  if (auto pr = RunOnce<grape::PageRankApp>("Run.pagerank", meta, world, "pagerank",
                                            suite.pagerank, &log->pagerank, log, report)) {
    check_pagerank(std::move(pr->rank));
  }
  if (!first_answers) {
    grape::CheckpointPolicy every5;
    every5.every_k = 5;
    if (auto pr = RunOnce<grape::PageRankApp>("Run.pagerank_ckpt", meta, world,
                                              "pagerank", suite.pagerank,
                                              &log->checkpointed, log, report, every5)) {
      check_pagerank(std::move(pr->rank));
    }
  }
  if (auto cc = RunOnce<grape::CcApp>("Run.cc", meta, world, "cc", grape::CcQuery{},
                                      &log->cc, log, report)) {
    log->records.push_back({AnswerClass::kCc, 0, DigestOf(cc->label), 0, 0});
  }
  if (auto d = RunOnce<grape::SsspApp>("Run.sssp", meta, world, "sssp",
                                       grape::SsspQuery{suite.sssp_source},
                                       &log->sssp, log, report)) {
    log->records.push_back({AnswerClass::kSssp, suite.sssp_source, DigestOf(d->dist), 0, 0});
    log->sssp_ms.push_back(log->run_ms.back());
  }
  if (auto b = RunOnce<grape::BfsApp>("Run.bfs", meta, world, "bfs",
                                      grape::BfsQuery{suite.bfs_source},
                                      &log->bfs, log, report)) {
    log->records.push_back({AnswerClass::kBfs, suite.bfs_source, DigestOf(b->depth), 0, 0});
  }
}

}  // namespace

void RunBatchRmat(const RunConfig& cfg, Report* report) {
  const std::string path =
      cfg.data_dir + "/batch_rmat-" + std::to_string(cfg.seed) + ".txt";
  Suite suite;
  grape::RMatOptions ro;
  ro.scale = kBatchScale;
  ro.edge_factor = kBatchEdgeFactor;
  // Ids stay in RMAT order, hubs lowest: CC's min-label propagation then
  // starts from the hubs, and its work no longer swings by about 20%
  // with the id shuffle a seed would otherwise draw.
  ro.permute = false;
  ro.seed = SubSeed(cfg.seed, 1);
  WriteRmatEdgeList(ro, path, [&](const Graph& g) {
    // The two largest hubs: fixed sources whose reach, and so whose cost,
    // does not swing with the seed the way a random source's does.
    std::vector<VertexId> by_degree(g.num_vertices());
    for (VertexId v = 0; v < by_degree.size(); ++v) by_degree[v] = v;
    std::partial_sort(by_degree.begin(), by_degree.begin() + 2, by_degree.end(),
                      [&](VertexId x, VertexId y) { return g.OutDegree(x) > g.OutDegree(y); });
    suite.sssp_source = by_degree[0];
    suite.bfs_source = by_degree[1];
  });

  // Set-up: from no world to the first answer of every query class.
  std::unique_ptr<Transport> world;
  DistributedGraphMeta meta;
  SuiteLog log;
  std::vector<Window> setups;
  std::vector<double> world_up_s, load_s, shard_s, build_s;
  for (int i = 0; i < kBatchSetups; ++i) {
    if (world) {
      ScopedSpan span("rt", "~Transport");
      world.reset();
    }
    const auto t0 = Clock::now();
    world_up_s.push_back(0);
    world = MakeWorld("tcp", &world_up_s.back());
    grape::DistributedLoadOptions dopt;
    dopt.path = path;
    dopt.format = EdgeFormat();
    load_s.push_back(Timed("rt", "DistributedLoad", [&] {
      auto m = grape::DistributedLoad(world.get(), dopt);
      GRAPE_CHECK(m.ok()) << m.status();
      meta = std::move(m).value();
    }));
    shard_s.push_back(meta.shard_seconds);
    build_s.push_back(meta.build_seconds);
    RunSuite(suite, meta, world.get(), /*first_answers=*/true, &log, report);
    setups.push_back({ToSeconds(t0), ToSeconds(Clock::now())});
  }
  log.run_ms.clear();  // set-up runs are not suite runs
  log.sssp_ms.clear();

  // The suite, repeated for three quarters of the run. Traced runs
  // alternate untraced and traced passes so the tracing overhead compares
  // like with like.
  std::vector<double> traced_s, untraced_s;
  const auto suite_deadline =
      Clock::now() + Seconds(0.75 * cfg.seconds);
  for (size_t rep = 0; rep < 2 || Clock::now() < suite_deadline; ++rep) {
    const bool traced = cfg.trace && rep % 2 == 1;
    if (cfg.trace) SpanRecorder::Global().set_enabled(traced);
    const auto t0 = Clock::now();
    RunSuite(suite, meta, world.get(), /*first_answers=*/false, &log, report);
    log.suites.push_back({ToSeconds(t0), ToSeconds(Clock::now())});
    (traced ? traced_s : untraced_s).push_back(SecondsSince(t0));
  }
  if (cfg.trace) {
    SpanRecorder::Global().set_enabled(true);
    report->Set("loadgen.trace_overhead_frac",
                Median(traced_s) / Median(untraced_s) - 1, "ratio",
                "traced/untraced median suite, n=" + std::to_string(traced_s.size()) +
                    "+" + std::to_string(untraced_s.size()));
  }

  // Incremental maintenance: a fixed number of mutation batches into the
  // resident graph, the last one carrying a deletion.
  std::vector<grape::MutationBatch> batches;
  MutationStream stream(SubSeed(cfg.seed, 3), meta.total_vertices);
  std::vector<Window> mutations =
      RunEngineMutations(LoadedGraph{nullptr, &meta}, world.get(), &stream,
                         kBatchMutations, report, &batches, &log.records);

  EmitMemory(*world, report);
  {
    ScopedSpan span("rt", "~Transport");
    world.reset();
  }

  // Each pass of the suite is one window of the quiet-window statistics.
  MeasureWindows(&log.suites);
  MeasureWindows(&setups);
  MeasureWindows(&mutations);
  std::vector<TimedSample> mutate_ms;
  for (const Window& w : mutations) mutate_ms.push_back({w.end_s, (w.end_s - w.begin_s) * 1e3});
  const std::string setup_n = "median of " + std::to_string(kBatchSetups);
  const std::string what = std::to_string(kSuiteRuns) + " Runs per suite";
  report->SetQuietMedian("setup_s", setups, "set-ups");
  report->SetRate("query_qps", log.run_ms, log.suites, what);
  report->SetLatency("query", log.sssp_ms, log.suites);
  report->SetLatency("mutate", mutate_ms, mutations);
  report->SetQuietMedian("suite_s", log.suites, "suites");
  report->Set("rt.world_up_s", Median(world_up_s), "s", setup_n);
  report->Set("rt.load_s", Median(load_s), "s", setup_n);
  report->Set("rt.load_shard_s", Median(shard_s), "s", setup_n);
  report->Set("rt.load_build_s", Median(build_s), "s", setup_n);
  log.sssp.Emit("sssp", report);
  log.bfs.Emit("bfs", report);
  log.cc.Emit("cc", report);
  log.pagerank.Emit("pagerank", report);
  const std::string ckpt_n = "median of " + std::to_string(log.checkpointed.runs());
  report->Set("rt.ckpts", log.checkpointed.MedianOf([](auto& m) { return m.checkpoints; }),
              "count", ckpt_n);
  report->Set("rt.ckpt_bytes",
              log.checkpointed.MedianOf([](auto& m) { return m.checkpoint_bytes; }),
              "bytes", ckpt_n);
  report->Set("rt.ckpt_s",
              log.checkpointed.MedianOf([](auto& m) { return m.checkpoint_seconds; }),
              "s", ckpt_n);
  EmitPerQueryComm({&log.sssp, &log.bfs, &log.cc, &log.pagerank, &log.checkpointed},
                   report);
  report->Set("graph.mutation_ops", static_cast<double>(CountOps(batches)), "count");

  const Graph graph = LoadOracleGraph(path);
  std::remove(path.c_str());
  EmitGraph(graph, report);
  EmitPartitionQuality(graph, nullptr, report);
  CheckPageRank(graph, suite.pagerank, log.first_pagerank, report);
  CheckAnswers(graph, batches, std::move(log.records), report);
}

}  // namespace perfbench
