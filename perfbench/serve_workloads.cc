// The serving workload, serve_road. It drives a ServeServer through
// ServeClient connections only; the traced run adds engine-direct phases
// on the same world so client latency splits into serve overhead and
// engine time.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include "graph/generators.h"
#include "partition/fragment.h"
#include "partition/partitioner.h"
#include "perfbench/workloads.h"
#include "serve/client.h"
#include "serve/serve.h"
#include "util/logging.h"

namespace perfbench {
namespace {

using grape::FragmentedGraph;
using grape::Graph;
using grape::MutationBatch;
using grape::ServeClient;
using grape::ServeOptions;
using grape::ServeServer;
using grape::ServeStats;
using grape::Transport;

constexpr int kServeSetups = 9;
constexpr int kConnections = 4;
constexpr uint32_t kRoadSide = 64;
/// Open-loop offered load on serve_road: about 30% of the closed-loop
/// capacity (~350/s on a 4-core machine). Fixed, so the offered load does
/// not follow the system's own speed, and low enough that queueing does
/// not amplify interference from other tenants of a shared machine.
constexpr double kRoadOpenRate = 100;
/// serve_road interleaves its phases in rounds of about this length: a
/// slice of closed loop, one of open loop, then one of writes (3:5:2), so
/// each phase meets the same mix of quiet and noisy seconds on a shared
/// machine, and each slice is one window of its phase's statistics.
constexpr double kRoadRoundSeconds = 2;
/// Single-client reads behind serve.overhead_ms and the engine-direct
/// phase (traced run only).
constexpr size_t kOverheadReads = 64;
constexpr size_t kEngineMutations = 16;

std::atomic<uint64_t> g_next_request{1};

/// A serving world: the transport and the server that borrows it.
struct ServeWorld {
  std::unique_ptr<Transport> world;
  std::unique_ptr<ServeServer> server;

  void StopServer() {
    if (!server) return;
    ScopedSpan span("serve", "ServeServer::Shutdown");
    server->Shutdown();
    server.reset();
  }
  void TearDown() {
    StopServer();
    if (!world) return;
    ScopedSpan span("rt", "~Transport");
    world.reset();
  }
};

/// Graph versions as the clients see them: mutations sent and mutations
/// acknowledged. A read sent after `acked` batches were acknowledged and
/// answered before `sent` batches were sent reflects a version in
/// [acked, sent].
struct Versions {
  std::atomic<uint32_t> sent{0};
  std::atomic<uint32_t> acked{0};
};

/// One connection's share of a phase.
struct ClientLog {
  std::vector<TimedSample> latency;  // ms, point / read queries
  std::vector<TimedSample> write;    // ms, mutation batches
  std::vector<double> late_ms;
  std::vector<AnswerRecord> records;
  std::vector<std::string> errors;
  std::vector<std::string> wrong;
  uint64_t attempted = 0;

  void Absorb(ClientLog&& o) {
    auto append = [](auto& dst, auto& src) {
      dst.insert(dst.end(), std::make_move_iterator(src.begin()),
                 std::make_move_iterator(src.end()));
    };
    append(latency, o.latency);
    append(write, o.write);
    append(late_ms, o.late_ms);
    append(records, o.records);
    append(errors, o.errors);
    append(wrong, o.wrong);
    attempted += o.attempted;
  }

  /// Moves operation counts, failures and the answer log into the run.
  void MoveInto(Report* report, std::vector<AnswerRecord>* all) {
    report->Attempted(attempted);
    for (const std::string& e : errors) report->Failed(e);
    for (const std::string& w : wrong) report->CheckFailed(w);
    all->insert(all->end(), records.begin(), records.end());
  }
};

/// Appends the milliseconds since t0, stamped with the time now.
void Stamp(std::vector<TimedSample>* samples, Clock::time_point t0) {
  const auto now = Clock::now();
  samples->push_back({ToSeconds(now), MsBetween(t0, now)});
}

/// One read through the serve client: the digest of its answer.
grape::Result<uint64_t> ServeRead(ServeClient& client, AnswerClass cls,
                                  VertexId source) {
  switch (cls) {
    case AnswerClass::kSssp: {
      ScopedSpan span("serve", "ServeClient::Sssp");
      auto r = client.Sssp(source);
      if (!r.ok()) return r.status();
      return DigestOf(*r);
    }
    case AnswerClass::kBfs: {
      ScopedSpan span("serve", "ServeClient::Bfs");
      auto r = client.Bfs(source);
      if (!r.ok()) return r.status();
      return DigestOf(*r);
    }
    case AnswerClass::kCc: {
      ScopedSpan span("serve", "ServeClient::ComponentLabels");
      auto r = client.ComponentLabels();
      if (!r.ok()) return r.status();
      return DigestOf(*r);
    }
  }
  return grape::Status::Internal("unknown answer class");
}

/// A read logged for the oracle with its version window. Returns false
/// (and logs the error) when the server answered with an error.
bool LoggedRead(ServeClient& client, AnswerClass cls, VertexId source,
                const Versions& versions, ClientLog* log) {
  RequestScope request(g_next_request.fetch_add(1));
  ScopedSpan span("loadgen", "request");
  const uint32_t lo = versions.acked.load();
  ++log->attempted;
  auto digest = ServeRead(client, cls, source);
  const uint32_t hi = versions.sent.load();
  if (!digest.ok()) {
    log->errors.push_back("read: " + digest.status().ToString());
    return false;
  }
  log->records.push_back({cls, source, *digest, lo, hi});
  return true;
}

/// One mutation batch through the serve client. Versions must rise by
/// exactly one per batch.
bool LoggedWrite(ServeClient& client, const MutationBatch& batch,
                 uint64_t* version, Versions* versions, ClientLog* log) {
  RequestScope request(g_next_request.fetch_add(1));
  ScopedSpan span("loadgen", "write");
  ++log->attempted;
  versions->sent.fetch_add(1);
  grape::Result<uint64_t> next = grape::Status::Internal("unsent");
  {
    ScopedSpan call("serve", "ServeClient::Mutate");
    next = client.Mutate(batch);
  }
  if (!next.ok()) {
    log->errors.push_back("mutate: " + next.status().ToString());
    return false;
  }
  if (*next != *version + 1) {
    log->wrong.push_back("mutate returned version " + std::to_string(*next) +
                         " after " + std::to_string(*version));
  }
  *version = *next;
  versions->acked.fetch_add(1);
  return true;
}

/// `n` connections to the server, kept open across a workload's slices.
/// A connection that fails counts as a failed operation.
std::vector<ServeClient> ConnectAll(uint16_t port, int n, Report* report) {
  std::vector<ServeClient> clients;
  for (int c = 0; c < n; ++c) {
    auto client = ServeClient::Connect(port);
    if (!client.ok()) {
      report->Attempted();
      report->Failed("connect: " + client.status().ToString());
      continue;
    }
    clients.push_back(std::move(client).value());
  }
  return clients;
}

/// Runs body(index, client, log) on one thread per open connection and
/// merges their logs into *all.
template <typename Body>
void OnClients(std::vector<ServeClient>& clients, ClientLog* all, Body body) {
  std::vector<ClientLog> logs(clients.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] { body(static_cast<int>(c), clients[c], &logs[c]); });
  }
  for (auto& t : threads) t.join();
  for (auto& log : logs) all->Absorb(std::move(log));
}

/// Runs body(index, client, log) on `n` fresh connections, one thread
/// each, and returns their merged log.
template <typename Body>
ClientLog RunClients(uint16_t port, int n, Report* report, Body body) {
  std::vector<ServeClient> clients = ConnectAll(port, n, report);
  ClientLog all;
  OnClients(clients, &all, body);
  return all;
}

/// Set-up from no world to the first answer of every class the workload
/// reads, kServeSetups times; the last world stays up for the run.
void SetUpServe(const std::string& backend,
                const std::function<ServeOptions(Transport*)>& options,
                const std::vector<std::pair<AnswerClass, VertexId>>& first,
                ServeWorld* sw, Report* report,
                std::vector<AnswerRecord>* records) {
  std::vector<Window> setups;
  std::vector<double> world_up_s, start_s;
  for (int i = 0; i < kServeSetups; ++i) {
    sw->TearDown();
    const auto t0 = Clock::now();
    world_up_s.push_back(0);
    sw->world = MakeWorld(backend, &world_up_s.back());
    sw->server = std::make_unique<ServeServer>(options(sw->world.get()));
    start_s.push_back(Timed("serve", "ServeServer::Start", [&] {
      grape::Status s = sw->server->Start();
      GRAPE_CHECK(s.ok()) << s;
    }));
    Versions none;
    ClientLog log;
    auto client = ServeClient::Connect(sw->server->port());
    GRAPE_CHECK(client.ok()) << client.status();
    for (const auto& [cls, source] : first) {
      LoggedRead(*client, cls, source, none, &log);
    }
    setups.push_back({ToSeconds(t0), ToSeconds(Clock::now())});
    log.MoveInto(report, records);
  }
  MeasureWindows(&setups);
  report->SetQuietMedian("setup_s", setups, "set-ups");
  const std::string n = "median of " + std::to_string(kServeSetups);
  report->Set("rt.world_up_s", Median(world_up_s), "s", n);
  report->Set("serve.start_s", Median(start_s), "s", n);
}

/// Traced runs only: alternates untraced and traced single-client reads,
/// so loadgen.trace_overhead_frac compares like with like.
void ProbeTraceOverhead(uint16_t port, const std::vector<VertexId>& sources,
                        Report* report, std::vector<AnswerRecord>* records) {
  std::vector<double> on, off;
  Versions none;
  ClientLog log = RunClients(port, 1, report, [&](int, ServeClient& client, ClientLog* l) {
    for (size_t i = 0; i < 200; ++i) {
      const bool traced = i % 2 == 1;
      SpanRecorder::Global().set_enabled(traced);
      const auto t0 = Clock::now();
      LoggedRead(client, AnswerClass::kSssp, sources[(i / 2) % sources.size()],
                 none, l);
      (traced ? on : off).push_back(SecondsSince(t0));
    }
    SpanRecorder::Global().set_enabled(true);
  });
  log.MoveInto(report, records);
  report->Set("loadgen.trace_overhead_frac", Median(on) / Median(off) - 1,
              "ratio", "traced/untraced median read, n=" +
                           std::to_string(on.size()) + "+" +
                           std::to_string(off.size()));
}

/// Single-client reads with the batching window closed: the serve-path
/// latency that serve.overhead_ms compares with engine-direct runs.
double SingleClientServeMs(ServeServer* server,
                           const std::vector<VertexId>& sources, Report* report,
                           std::vector<AnswerRecord>* records) {
  Versions none;
  ClientLog log = RunClients(server->port(), 1, report, [&](int, ServeClient& client, ClientLog* l) {
    for (size_t i = 0; i <= kOverheadReads; ++i) {
      const auto t0 = Clock::now();
      if (LoggedRead(client, AnswerClass::kSssp, sources[i % sources.size()],
                     none, l) && i > 0) {
        Stamp(&l->latency, t0);
      }
    }
  });
  std::vector<double> ms;
  for (const TimedSample& t : log.latency) ms.push_back(t.value);
  const double p50 = Median(ms);
  log.MoveInto(report, records);
  return p50;
}

/// Serve counters over the timed phases: how well admission fused, and how
/// often mutations took the bounded delta.
void EmitServeStats(const ServeStats& a, const ServeStats& b,
                    Report* report) {
  const uint64_t queries = b.queries - a.queries;
  const uint64_t mutations = b.mutations - a.mutations;
  const uint64_t hits = b.cache_hits - a.cache_hits;
  const uint64_t waves = b.waves - a.waves;
  const uint64_t computed = queries - mutations - hits;
  report->Set("serve.lanes_per_wave",
              waves == 0 ? 0.0 : static_cast<double>(computed) / waves, "lanes",
              "base " + std::to_string(computed) + "/" + std::to_string(waves));
  report->SetRatio("serve.fused_frac", {b.fused_queries - a.fused_queries,
                                        queries - mutations});
  report->SetRatio("serve.delta_refresh_frac",
                   {b.delta_refreshes - a.delta_refreshes, mutations});
  report->Set("serve.deferred_transitions",
              static_cast<double>(b.deferred_transitions), "count");
  report->Set("serve.errors", static_cast<double>(b.errors), "count");
  report->Set("serve.rejected_frames", static_cast<double>(b.rejected_frames),
              "count");
}

/// query_p50_ms / query_p90_ms over a phase, plus the ungated p99 with
/// the sample count behind it.
void EmitQueryLatency(const std::vector<TimedSample>& samples,
                      const std::vector<Window>& windows, Report* report) {
  report->SetLatency("query", samples, windows);
  std::vector<double> ms;
  for (const TimedSample& t : samples) ms.push_back(t.value);
  const size_t n = ms.size();
  char tail[64];
  std::snprintf(tail, sizeof(tail), "%zu beyond; p%g is the highest with 10",
                SamplesBeyond(n, 99), ReportablePercentile(n));
  report->Set("loadgen.query_p99_ms", Percentile(ms, 99), "ms",
              "n=" + std::to_string(n) + ", " + tail);
  report->Set("loadgen.samples", static_cast<double>(n), "count");
}

/// How late the open-loop generator sent its requests.
void EmitLateness(const std::vector<double>& late_ms, const std::string& who,
                  Report* report) {
  report->Set("loadgen.late_p50_ms", Median(late_ms), "ms", who);
  report->Set("loadgen.late_max_ms", Percentile(late_ms, 100), "ms", who);
}

/// Reads after the last write, checked against the final graph version.
void FinalReads(uint16_t port, const std::vector<VertexId>& sources,
                const Versions& versions, Report* report,
                std::vector<AnswerRecord>* records) {
  ClientLog log = RunClients(port, 1, report, [&](int, ServeClient& client, ClientLog* l) {
    for (size_t i = 0; i < 4 && i < sources.size(); ++i) {
      LoggedRead(client, AnswerClass::kSssp, sources[i], versions, l);
    }
    LoggedRead(client, AnswerClass::kBfs, sources[0], versions, l);
  });
  log.MoveInto(report, records);
}

}  // namespace

void RunServeRoad(const RunConfig& cfg, Report* report) {
  Graph graph;
  Timed("graph", "GenerateGridRoad", [&] {
    auto g = grape::GenerateGridRoad(kRoadSide, kRoadSide, SubSeed(cfg.seed, 1));
    GRAPE_CHECK(g.ok()) << g.status();
    graph = std::move(g).value();
  });
  EmitGraph(graph, report);
  const std::vector<VertexId> sources = PickSources(graph, SubSeed(cfg.seed, 2), 256);

  std::vector<double> partition_s, build_s;
  std::vector<grape::FragmentId> assignment;
  auto partition_and_build = [&]() -> FragmentedGraph {
    partition_s.push_back(Timed("partition", "Partition.metis", [&] {
      auto p = grape::MakePartitioner("metis");
      GRAPE_CHECK(p.ok()) << p.status();
      auto a = (*p)->Partition(graph, kWorkers);
      GRAPE_CHECK(a.ok()) << a.status();
      assignment = std::move(a).value();
    }));
    FragmentedGraph fg;
    build_s.push_back(Timed("partition", "FragmentBuilder::Build", [&] {
      auto built = grape::FragmentBuilder::Build(graph, assignment, kWorkers);
      GRAPE_CHECK(built.ok()) << built.status();
      fg = std::move(built).value();
    }));
    return fg;
  };
  auto options = [&](Transport* world, int window_ms) {
    ServeOptions o;
    o.transport = world;
    o.num_fragments = kWorkers;
    o.batch_window_ms = window_ms;
    o.load_coordinator = [&]() -> grape::Result<FragmentedGraph> {
      return partition_and_build();
    };
    return o;
  };

  std::vector<AnswerRecord> records;
  ServeWorld sw;
  SetUpServe("socket", [&](Transport* w) { return options(w, 2); },
             {{AnswerClass::kSssp, sources[0]}, {AnswerClass::kBfs, sources[1]}},
             &sw, report, &records);
  const uint16_t port = sw.server->port();
  if (cfg.trace) ProbeTraceOverhead(port, sources, report, &records);

  // Rounds of a closed-loop slice (capacity), an open-loop slice
  // (latency) and a single-writer slice (mutation latency).
  Versions versions;
  std::vector<ServeClient> readers = ConnectAll(port, kConnections, report);
  std::vector<ServeClient> writer = ConnectAll(port, 1, report);
  auto pick = [&](grape::Rng& rng) {
    const AnswerClass cls =
        rng.NextDouble() < 0.75 ? AnswerClass::kSssp : AnswerClass::kBfs;
    return std::make_pair(cls, sources[rng.NextBounded(sources.size())]);
  };
  std::vector<grape::Rng> closed_rng;
  for (int c = 0; c < kConnections; ++c) closed_rng.emplace_back(SubSeed(cfg.seed, 10 + c));
  grape::Rng mix_rng(SubSeed(cfg.seed, 31));
  std::vector<MutationBatch> batches;
  MutationStream stream =
      MutationStream::GridRoad(SubSeed(cfg.seed, 3), graph.num_vertices(), kRoadSide);
  uint64_t version = sw.server->epoch() << 32;
  ClientLog closed, open, writes;
  std::vector<Window> closed_w, open_w, write_w;
  const int rounds = std::max(1, static_cast<int>(std::lround(cfg.seconds / kRoadRoundSeconds)));
  const double round_s = cfg.seconds / rounds;
  const ServeStats before = sw.server->stats();
  for (int r = 0; r < rounds; ++r) {
    const auto closed_start = Clock::now();
    const auto closed_end = closed_start + Seconds(0.3 * round_s);
    OnClients(readers, &closed, [&](int c, ServeClient& client, ClientLog* log) {
      while (Clock::now() < closed_end) {
        const auto [cls, source] = pick(closed_rng[c]);
        const auto t0 = Clock::now();
        if (LoggedRead(client, cls, source, versions, log)) Stamp(&log->latency, t0);
      }
    });
    closed_w.push_back({ToSeconds(closed_start), ToSeconds(Clock::now())});

    // One seeded Poisson schedule per slice, shared by every connection;
    // the request mix is drawn per schedule slot, so the offered load is
    // the seed's alone.
    const auto due = PoissonSchedule(SubSeed(cfg.seed, 1000 + r), kRoadOpenRate,
                                     0.5 * round_s);
    std::vector<std::pair<AnswerClass, VertexId>> mix;
    for (size_t i = 0; i < due.size(); ++i) mix.push_back(pick(mix_rng));
    std::atomic<size_t> next_due{0};
    const auto open_start = Clock::now() + std::chrono::milliseconds(5);
    OnClients(readers, &open, [&](int, ServeClient& client, ClientLog* log) {
      for (const OpenLoopSample& s : RunOpenLoop(open_start, due, &next_due, [&](size_t i) {
             LoggedRead(client, mix[i].first, mix[i].second, versions, log);
           })) {
        log->latency.push_back({s.done_s, s.latency_ms});
        log->late_ms.push_back(s.late_ms);
      }
    });
    open_w.push_back({ToSeconds(open_start), ToSeconds(Clock::now())});

    const auto write_start = Clock::now();
    const auto write_end = write_start + Seconds(0.2 * round_s);
    OnClients(writer, &writes, [&](int, ServeClient& client, ClientLog* log) {
      while (Clock::now() < write_end) {
        batches.push_back(stream.Next());
        const auto t0 = Clock::now();
        if (!LoggedWrite(client, batches.back(), &version, &versions, log)) break;
        Stamp(&log->write, t0);
      }
    });
    write_w.push_back({ToSeconds(write_start), ToSeconds(Clock::now())});
  }
  const ServeStats after = sw.server->stats();
  readers.clear();
  writer.clear();
  FinalReads(port, sources, versions, report, &records);
  EmitMemory(*sw.world, report);

  MeasureWindows(&closed_w);
  MeasureWindows(&open_w);
  MeasureWindows(&write_w);
  report->SetRate("query_qps", closed.latency, closed_w,
                  "closed loop, " + std::to_string(kConnections) + " connections");
  EmitQueryLatency(open.latency, open_w, report);
  EmitLateness(open.late_ms, "open loop", report);
  report->SetLatency("mutate", writes.write, write_w);
  EmitServeStats(before, after, report);
  report->Set("graph.mutation_ops", static_cast<double>(CountOps(batches)), "count");
  closed.MoveInto(report, &records);
  open.MoveInto(report, &records);
  writes.MoveInto(report, &records);

  std::vector<MutationBatch> engine_batches;
  std::vector<AnswerRecord> engine_records;
  std::vector<double> pagerank;
  if (cfg.trace) {
    sw.StopServer();
    double serve_ms = 0;
    {
      ServeServer single(options(sw.world.get(), 0));
      grape::Status s = single.Start();
      GRAPE_CHECK(s.ok()) << s;
      serve_ms = SingleClientServeMs(&single, sources, report, &records);
    }
    const FragmentedGraph fg = partition_and_build();
    const double engine_ms = RunEngineDirect(LoadedGraph{&fg, nullptr}, sw.world.get(),
                                             sources, kOverheadReads, report,
                                             &records, &pagerank);
    report->Set("serve.overhead_ms", serve_ms - engine_ms, "ms",
                "single-client serve p50 " + std::to_string(serve_ms) +
                    " - engine-direct p50 " + std::to_string(engine_ms));
    MutationStream engine_stream =
        MutationStream::GridRoad(SubSeed(cfg.seed, 4), graph.num_vertices(), kRoadSide);
    RunEngineMutations(LoadedGraph{&fg, nullptr}, sw.world.get(), &engine_stream,
                       kEngineMutations, report, &engine_batches, &engine_records);
  }
  sw.TearDown();
  report->Set("partition.partition_s", Median(partition_s), "s",
              "n=" + std::to_string(partition_s.size()));
  report->Set("partition.build_s", Median(build_s), "s",
              "n=" + std::to_string(build_s.size()));
  EmitPartitionQuality(graph, &assignment, report);
  report->Set("rt.load_s", report->Get("core.sssp.load_s"), "s",
              "fragment ship on the first session load");

  CheckAnswers(graph, batches, std::move(records), report);
  if (cfg.trace) {
    CheckAnswers(graph, engine_batches, std::move(engine_records), report);
    CheckPageRank(graph, grape::PageRankQuery{}, pagerank, report);
  }
}

}  // namespace perfbench
