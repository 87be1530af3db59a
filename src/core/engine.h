#ifndef GRAPE_CORE_ENGINE_H_
#define GRAPE_CORE_ENGINE_H_

#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/codec.h"
#include "core/pie.h"
#include "graph/mutation.h"
#include "core/worker_core.h"
#include "rt/checkpoint.h"
#include "rt/comm_world.h"
#include "rt/distributed_load.h"
#include "rt/liveness.h"
#include "rt/remote_worker.h"
#include "rt/transport.h"
#include "rt/worker_protocol.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace grape {

/// Fault-tolerance policy for remote compute. Off by default (every_k ==
/// 0), in which case the engine behaves — and counts — exactly as it did
/// without this subsystem: no control frames beyond the existing protocol,
/// no pings, no retries. When enabled, the remote superstep loop
/// checkpoints every k supersteps, monitors worker liveness (leases +
/// pid probes, rt/liveness.h), and on an Unavailable failure rebuilds the
/// world in place (Transport::Recover) and resumes from the last completed
/// checkpoint — bit-identically, because each worker image carries the
/// exact buffered message frontier alongside its state.
struct CheckpointPolicy {
  /// Checkpoint every k supersteps; 0 disables checkpointing AND recovery.
  uint32_t every_k = 0;
  /// Empty: worker checkpoints — the base (fragment) once per run, a round
  /// image per barrier — ship inline to rank 0's memory (lost if rank 0
  /// dies — out of scope, see README). Non-empty: each worker persists
  /// them under this directory via CheckpointStore's tmp+rename files,
  /// and restores read them back locally.
  std::string dir;
  /// Give up after this many world rebuilds within one Run.
  uint32_t max_recoveries = 3;
  /// Quiet time before the coordinator pings a worker (rt/liveness.h).
  /// Keep well above a superstep's compute time; pings only fire while an
  /// await loop is idle, so a busy worker is never flooded.
  uint32_t lease_ms = 1000;

  bool enabled() const { return every_k > 0; }
};

/// Engine configuration (the demo's "play panel" knobs).
struct EngineOptions {
  /// Worker threads; 0 means one per fragment.
  uint32_t num_threads = 0;
  /// Intra-fragment frontier parallelism (opt-in): when > 1, apps
  /// implementing the FrontierParallelApp concept run their
  /// ParallelPEval/ParallelIncEval with this many lanes, and WorkerCore
  /// stages its flush in parallel. 0 and 1 keep the historical sequential
  /// path byte-for-byte. Results, message payloads, CommStats, and
  /// superstep counts are bit-identical to sequential at every value —
  /// frozen by tests/parallel_compute_test.cc. Plumbed to remote worker
  /// hosts through the kTagWkLoad/kTagWkRestore frames, so placement does
  /// not change the contract. Apps without the parallel methods silently
  /// run sequentially.
  uint32_t compute_threads = 0;
  /// Hard stop against non-terminating (non-monotonic, mis-specified) apps.
  uint32_t max_supersteps = 1000000;
  /// When false, every round re-evaluates from *all* inner vertices instead
  /// of only the message-affected ones — the "no IncEval" ablation used by
  /// bench_inceval_bounded to demonstrate boundedness (Sec. 2.2(2)).
  bool incremental = true;
  /// Track the partial order of monotonic aggregators and count violations
  /// (the Assurance Theorem's side condition).
  bool check_monotonicity = false;
  bool verbose = false;
  /// Message-passing substrate. When null the engine owns a private
  /// in-process CommWorld (the historical behaviour); otherwise it runs
  /// over the supplied backend — a SocketTransport from
  /// MakeTransport("socket", n+1), a TcpTransport from
  /// MakeTransport("tcp", n+1) (auto-spawned loopback endpoints), or a
  /// multi-machine tcp world from rt/cluster.h's MakeClusterTransport —
  /// which must be sized num_fragments()+1 and outlive the engine. Not
  /// owned. The engine is substrate-agnostic: it only ever Sends, Flushes
  /// between supersteps, and drains mailboxes, so any backend passing
  /// tests/transport_conformance_test.cc slots in with bit-identical
  /// results (tests/message_path_golden_test.cc).
  Transport* transport = nullptr;
  /// Remote compute: when non-empty, PEval/IncEval/GetPartial do NOT run
  /// inline in this (rank-0) process. Each fragment is serialized and
  /// shipped to its rank's worker host — the endpoint process on
  /// socket/tcp backends, an in-process worker thread on inproc — which
  /// executes the phases against its own store and ships back messages,
  /// per-phase counters, and a final remote partial (rt/worker_protocol.h).
  /// The value names the PIE program in WorkerAppRegistry ("sssp", ...);
  /// endpoint processes must have registered it before the transport
  /// forked them (apps/register_apps.h RegisterBuiltinWorkerApps).
  /// Results, CommStats, and superstep counts are bit-identical to local
  /// compute — frozen by tests/message_path_golden_test.cc.
  std::string remote_app;
  /// Per-phase budget for remote workers to answer before the engine
  /// gives up with Unavailable (a dead endpoint usually surfaces faster
  /// through the transport's health tracking).
  int remote_timeout_ms = 120000;
  /// How the graph reached the workers — drivers resolve their --load
  /// flag here. "coordinator": rank 0 loaded and partitioned the whole
  /// graph and constructs the engine from a FragmentedGraph (the
  /// historical path). "distributed": the graph was built in place by
  /// rt/distributed_load.h — each worker assembled its own fragment from
  /// its shard of the input — and the engine is constructed from the
  /// DistributedGraphMeta, never holding a fragment; requires remote_app
  /// and an endpoint-backed transport sharing the build's world.
  std::string load_mode = "coordinator";
  /// Query sessions (SessionRun) on a coordinator-loaded engine only:
  /// when non-zero, the session's first load ships each fragment together
  /// with this token and the worker deposits it in its process-local
  /// ResidentFragmentStore (kWkLoadStashResident) before loading from the
  /// deposited copy. Other engines — grape_serve's other query classes —
  /// can then attach to the very same resident fragments by constructing
  /// from a DistributedGraphMeta carrying this token, without the graph
  /// ever being serialized again. Ignored by Run() and by
  /// distributed-load engines (whose fragments are already resident).
  uint64_t resident_stash_token = 0;
  /// Superstep checkpointing + automatic recovery (remote compute only;
  /// drivers resolve --ckpt-every / --ckpt-dir here).
  CheckpointPolicy checkpoint;
  /// Observability/test hook: invoked after each remote superstep's round
  /// is recorded (and after its checkpoint, when one was due) with the
  /// completed superstep count. Fault-injection tests use it to kill
  /// endpoints at exact barriers.
  std::function<void(uint32_t)> on_superstep;
};

/// Per-superstep observability (drives the Fig. 3(4)-style analytics).
struct RoundMetrics {
  uint32_t round = 0;
  double seconds = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  /// Update parameters whose values changed in this round's messages.
  uint64_t updated_params = 0;
  double global = 0;
};

struct EngineMetrics {
  uint32_t supersteps = 0;
  /// Remote runs only: time from the first kTagWkLoad frame until every
  /// worker acked its load — fragment ship (coordinator-loaded) or
  /// resident-token attach (distributed-loaded). Zero on local compute,
  /// where fragments are resident from engine construction.
  double load_seconds = 0;
  double peval_seconds = 0;
  double inceval_seconds = 0;
  double coordinator_seconds = 0;
  double assemble_seconds = 0;
  double total_seconds = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t monotonicity_violations = 0;
  /// Set when RunIncremental's enforced monotonicity contract rejected the
  /// warm start (non-monotonic aggregator, or a batch with deletions under
  /// a min-style order) and the answer came from a full re-run instead.
  /// The answer is always correct; this records that it was not bounded.
  bool incremental_fallback = false;
  std::vector<RoundMetrics> rounds;

  /// Remote-compute observability (empty after a local-compute run): the
  /// OS process id each worker's phases executed in, and how many
  /// PEval/IncEval invocations each worker acknowledged. The pids are the
  /// proof of placement — on socket/tcp backends they are endpoint
  /// processes, not the engine's pid (asserted by tests/cluster_test.cc).
  std::vector<uint64_t> remote_worker_pids;
  std::vector<uint32_t> remote_peval_runs;
  std::vector<uint32_t> remote_inceval_runs;

  /// Fault tolerance (all zero when CheckpointPolicy is off): completed
  /// checkpoint barriers, total encoded image bytes, wall time spent at
  /// those barriers, and world rebuilds this run survived.
  uint32_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
  double checkpoint_seconds = 0;
  uint32_t recoveries = 0;

  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "supersteps=%u total=%.3fs (peval=%.3fs inceval=%.3fs "
                  "coord=%.3fs assemble=%.3fs) msgs=%llu bytes=%llu",
                  supersteps, total_seconds, peval_seconds, inceval_seconds,
                  coordinator_seconds, assemble_seconds,
                  static_cast<unsigned long long>(messages),
                  static_cast<unsigned long long>(bytes));
    std::string out = buf;
    // Appended only when fault tolerance did something, so policy-off
    // output is byte-identical to what it always was.
    if (checkpoints > 0 || recoveries > 0) {
      std::snprintf(buf, sizeof(buf),
                    " ckpts=%u ckpt_bytes=%llu ckpt=%.3fs recoveries=%u",
                    checkpoints,
                    static_cast<unsigned long long>(checkpoint_bytes),
                    checkpoint_seconds, recoveries);
      out += buf;
    }
    return out;
  }
};

/// GRAPE's parallel engine (Sec. 2.2): a coordinator P0 plus n workers
/// executing the PIE fixed point under BSP. Workers run the *sequential*
/// PEval / IncEval of the plugged-in program on whole fragments; the engine
/// extracts changed update parameters, serializes them, routes them through
/// the coordinator (which resolves conflicts with the app's aggregate
/// function), and terminates when no parameter changes anywhere.
///
/// Two execution modes share the coordinator (RouteInbox, RecordRound),
/// and within each mode every entry point — Run, SessionRun,
/// RunIncremental — shares one superstep loop; only the seeding of the
/// first superstep differs:
///
///  * local compute (default): each worker is a WorkerCore driven inline
///    by this process's thread pool — the historical single-process mode
///    (RunLocalFixpoint: PEval, or a warm-started IncEval).
///  * remote compute (EngineOptions::remote_app): each worker is the same
///    WorkerCore, but executing inside its rank's worker host — the
///    endpoint OS process on socket/tcp, an in-process thread on inproc —
///    driven through the control frames of rt/worker_protocol.h. The
///    engine keeps only the coordinator role: route, aggregate, decide
///    termination, assemble (RunRemoteFixpoint: a cold load, a warm
///    query re-seed, an incremental start, or a checkpoint restore).
template <PIEProgram App>
class GrapeEngine {
 public:
  using Query = typename App::QueryType;
  using Value = typename App::ValueType;
  using Agg = typename App::AggregatorType;
  using Partial = typename App::PartialType;
  using Output = typename App::OutputType;

  GrapeEngine(const FragmentedGraph& fg, App prototype,
              EngineOptions options = {})
      : fg_(&fg),
        n_frags_(fg.num_fragments()),
        options_(options),
        owned_world_(options.transport ? nullptr
                                       : std::make_unique<CommWorld>(
                                             fg.num_fragments() + 1)),
        world_(options.transport ? options.transport : owned_world_.get()),
        pool_(options.num_threads == 0
                  ? fg.num_fragments() *
                        std::max<uint32_t>(1, options.compute_threads)
                  : options.num_threads) {
    const FragmentId n = n_frags_;
    GRAPE_CHECK(world_->size() == n + 1)
        << "transport sized " << world_->size() << " for " << n
        << " fragments (need num_fragments()+1 ranks)";
    cores_.reserve(n);
    for (FragmentId i = 0; i < n; ++i) {
      cores_.emplace_back(fg_->fragments[i], prototype);
      if (options_.compute_threads > 1) {
        cores_.back().EnableParallel(&pool_, options_.compute_threads);
      }
    }
    phase_status_.assign(n, Status::OK());
    pending_sends_.resize(n);

    coord_batches_.resize(n);
    for (FragmentId i = 0; i < n; ++i) {
      coord_batches_[i].slot_round.assign(fg_->fragments[i].num_local(), 0);
      coord_batches_[i].slot_pos.resize(fg_->fragments[i].num_local());
    }
  }

  /// Distributed-load engine: the graph was built in place by
  /// DistributedLoad on the same `options.transport` world; this engine
  /// holds only `meta` — fragment shapes and the build token — and runs
  /// the pure coordinator role. Every query executes remotely
  /// (options.remote_app must name the app); the load frame ships the
  /// build token instead of a serialized fragment, and each worker
  /// attaches to the fragment resident in its own process. Rank 0 never
  /// constructs, decodes, or serializes a fragment on this path.
  GrapeEngine(const DistributedGraphMeta& meta, EngineOptions options)
      : fg_(nullptr),
        n_frags_(meta.num_fragments),
        resident_token_(meta.token),
        options_(options),
        owned_world_(nullptr),
        world_(options.transport),
        pool_(options.num_threads == 0 ? meta.num_fragments
                                       : options.num_threads) {
    const FragmentId n = n_frags_;
    GRAPE_CHECK(world_ != nullptr)
        << "a distributed-load engine reuses the build's transport";
    GRAPE_CHECK(world_->size() == n + 1)
        << "transport sized " << world_->size() << " for " << n
        << " fragments (need num_fragments()+1 ranks)";
    GRAPE_CHECK(!options_.remote_app.empty())
        << "distributed-load engines execute remotely; set remote_app";
    GRAPE_CHECK(meta.shapes.size() == n)
        << "distributed meta carries " << meta.shapes.size()
        << " fragment shapes for " << n << " fragments";
    phase_status_.assign(n, Status::OK());
    pending_sends_.resize(n);
    coord_batches_.resize(n);
    for (FragmentId i = 0; i < n; ++i) {
      coord_batches_[i].slot_round.assign(meta.shapes[i].num_local, 0);
      coord_batches_[i].slot_pos.resize(meta.shapes[i].num_local);
    }
  }

  GrapeEngine(const GrapeEngine&) = delete;
  GrapeEngine& operator=(const GrapeEngine&) = delete;

  /// Runs the full PEval → IncEval* → Assemble pipeline for one query.
  Result<Output> Run(const Query& query) {
    // A live session's resident hosts would race this run for the same
    // mailboxes; retire them first. No-op unless SessionRun was used.
    EndSession();
    if (!options_.remote_app.empty()) {
      if constexpr (RemoteCompatibleApp<App>) {
        return RunRemote(query);
      } else {
        return Status::InvalidArgument(
            "remote compute requires wire-codable Query/Partial/Value "
            "types; this app must run locally");
      }
    }
    if (fg_ == nullptr) {
      return Status::InvalidArgument(
          "a distributed-load engine has no local fragments; local compute "
          "is impossible (set remote_app)");
    }
    return RunLocalFixpoint(query, nullptr, {});
  }

  /// Incremental evaluation across *graph updates* (Sec. 2.1: IncEval
  /// computes Q(G ⊕ M) from Q(G)): re-answers `query` on THIS engine's
  /// (already updated) fragmented graph, warm-started from the converged
  /// parameters of `previous` — an engine that ran the same query on the
  /// pre-update graph. `touched` lists the global endpoints of the update M
  /// (e.g. inserted edges' endpoints); only they seed IncEval, so the work
  /// is proportional to the affected region, not |G|.
  ///
  /// Soundness: for monotonic apps this supports change that moves
  /// parameters down the partial order (e.g. edge insertions for SSSP/CC).
  /// Updates that could move values against the order (deletions under min)
  /// require a dedicated IncEval; the MutationBatch overloads below enforce
  /// that contract and fall back to a full run.
  ///
  /// Placement follows the engine: remote engines run the delta inside
  /// their endpoint processes against the state already resident there
  /// (the live session's last answer takes the role of `previous`, whose
  /// in-process stores are never read — so a `query` other than the
  /// session's last one is answered by SessionRun(query) with
  /// metrics().incremental_fallback set); local engines warm-start from
  /// `previous`'s stores — the differential oracle the remote path is
  /// tested against.
  Result<Output> RunIncremental(const Query& query,
                                const GrapeEngine& previous,
                                const std::vector<VertexId>& touched) {
    if (!options_.remote_app.empty()) {
      if constexpr (RemoteCompatibleApp<App>) {
        (void)previous;  // the endpoints hold the warm state, not `previous`
        return SessionDelta(query, touched, /*monotone_change=*/true);
      } else {
        return Status::InvalidArgument(
            "remote incremental evaluation requires wire-codable "
            "Query/Partial/Value types");
      }
    }
    // Local-oracle preconditions: the warm start below reads `previous`'s
    // in-process stores, so previous must have computed locally, and both
    // engines need coordinator-held fragments.
    if (!previous.metrics_.remote_worker_pids.empty()) {
      return Status::InvalidArgument(
          "previous engine ran with remote compute: its converged stores "
          "live in the worker hosts — answer over the live session instead "
          "(SessionRun, ApplyMutations, then RunIncremental(query, batch))");
    }
    if (fg_ == nullptr || previous.fg_ == nullptr) {
      return Status::InvalidArgument(
          "the local oracle path needs coordinator-loaded graphs on both "
          "engines; distributed-load engines answer incrementally over "
          "their live session (RunIncremental(query, batch))");
    }
    return RunLocalFixpoint(query, &previous, touched);
  }

  /// Streams one edge-mutation batch into the live session: every endpoint
  /// patches its fragment around the batch (graph/mutation.h semantics —
  /// upsert inserts, delete-all-matches deletions), re-resolves its
  /// routing plan peer-to-peer, and adopts warm parameter values for its
  /// new outer set from the owners, so the converged answer state
  /// survives the topology change. Returns each fragment's new shape.
  /// This engine's routing slots are refreshed here; any OTHER engine
  /// attached to the same resident fragments must be handed the shapes via
  /// RefreshShapes(). Coordinator-loaded engines: the caller owns keeping
  /// its FragmentedGraph consistent (FragmentBuilder::MutateFragmentedGraph)
  /// — the workers patch their own resident state, never fg_.
  Result<std::vector<WkBuildAck>> ApplyMutations(const MutationBatch& batch) {
    if constexpr (RemoteCompatibleApp<App>) {
      if (options_.remote_app.empty()) {
        return Status::InvalidArgument(
            "ApplyMutations streams updates into remote workers; local "
            "engines mutate their graph directly "
            "(FragmentBuilder::MutateFragmentedGraph)");
      }
      if (!session_live_) {
        return Status::FailedPrecondition(
            "ApplyMutations requires a live session (SessionRun first): "
            "the batch applies to the state resident in the endpoints");
      }
      Result<std::vector<WkBuildAck>> shapes = ApplyMutationsImpl(batch);
      // A half-applied mutation leaves the endpoints inconsistent with
      // each other; the session is unusable and must cold-start.
      if (!shapes.ok()) EndSession();
      return shapes;
    } else {
      return Status::InvalidArgument(
          "query sessions require wire-codable Query/Partial/Value types");
    }
  }

  /// Q(G ⊕ M) over a live session — the streaming-serving product path.
  /// `batch` must already have been applied with ApplyMutations(); this
  /// re-answers the session's LAST query, warm-starting IncEval inside the
  /// endpoints from the converged state resident there, seeded with the
  /// batch's touched vertices.
  ///
  /// Enforced contract (the Assurance Theorem's side condition): a
  /// min-style warm start is only sound for change that moves values down
  /// the order, applied to the query the state converged on. Non-monotonic
  /// aggregators, any batch containing deletions, and a `query` whose
  /// encoding differs from the session's last query take a full
  /// SessionRun(query) instead (reported via
  /// metrics().incremental_fallback) — never a silently stale or
  /// wrong-query answer.
  Result<Output> RunIncremental(const Query& query,
                                const MutationBatch& batch) {
    if constexpr (RemoteCompatibleApp<App>) {
      if (options_.remote_app.empty()) {
        return Status::InvalidArgument(
            "the session overload answers over remote workers; local "
            "engines pass (query, previous, batch)");
      }
      return SessionDelta(query, batch.TouchedVertices(),
                          Agg::kMonotonic && !batch.has_deletions());
    } else {
      return Status::InvalidArgument(
          "query sessions require wire-codable Query/Partial/Value types");
    }
  }

  /// Local twin of the session overload (the differential oracle): same
  /// enforcement, then the touched-vertex warm start above. `previous` ran
  /// `query` on the pre-update graph; THIS engine holds G ⊕ M.
  Result<Output> RunIncremental(const Query& query,
                                const GrapeEngine& previous,
                                const MutationBatch& batch) {
    if (!Agg::kMonotonic || batch.has_deletions()) {
      Result<Output> out = Run(query);
      metrics_.incremental_fallback = true;
      return out;
    }
    return RunIncremental(query, previous, batch.TouchedVertices());
  }

  /// Re-sizes the coordinator's routing slots to new fragment shapes (a
  /// mutation changes per-fragment num_local). The engine that applied the
  /// batch refreshes itself inside ApplyMutations; serving keeps several
  /// engines attached to the same resident fragments and refreshes the
  /// others through this. Safe only between runs — slots carry no
  /// cross-run state (RouteInbox's round counter advances past every
  /// stale slot_round on its first use).
  void RefreshShapes(const std::vector<WkBuildAck>& shapes) {
    GRAPE_CHECK(shapes.size() == coord_batches_.size());
    for (FragmentId i = 0; i < n_frags_; ++i) {
      coord_batches_[i].slot_round.assign(shapes[i].num_local, 0);
      coord_batches_[i].slot_pos.assign(shapes[i].num_local, 0);
      coord_batches_[i].round = 0;
      coord_batches_[i].lids.clear();
      coord_batches_[i].values.clear();
    }
  }

  /// Query-session entry point (the serving layer's hot path): like
  /// Run(), but the remote workers stay loaded between calls. The first
  /// SessionRun performs the full load (shipping fragments or attaching to
  /// resident ones); every later call re-seeds the already-resident
  /// workers with just the next query over kTagWkQuery — no app name, no
  /// fragment bytes — then runs the identical PEval → IncEval* → Assemble
  /// superstep loop. Answers are bit-identical to Run(): the per-query
  /// state (parameter store, update sets, message expectations) is rebuilt
  /// from scratch on both paths; only the fragment survives between
  /// queries. The session remembers the query it last answered: a
  /// RunIncremental for any other query falls back to SessionRun. Sessions
  /// reject CheckpointPolicy (a session's unit of retry is the query — the
  /// caller just re-runs it; on failure the session is torn down and the
  /// next call cold-starts with a full load). Only one
  /// engine's session may be live on a shared transport at a time; call
  /// EndSession() before running another engine over the same world.
  Result<Output> SessionRun(const Query& query) {
    if constexpr (RemoteCompatibleApp<App>) {
      if (options_.remote_app.empty()) {
        return Status::InvalidArgument(
            "query sessions execute remotely; set remote_app");
      }
      if (options_.checkpoint.enabled()) {
        return Status::InvalidArgument(
            "query sessions do not support checkpoint/recovery; the retry "
            "unit is the query itself");
      }
      Result<Output> out = RunRemoteFixpoint(
          query, session_live_ ? RemoteSeed::kQuery : RemoteSeed::kLoad,
          /*session=*/true);
      // Any failure invalidates the session wholesale: workers may be
      // mid-phase with frames in flight. The next call reloads from
      // scratch (and the stale-drain swallows whatever this run left).
      if (!out.ok()) EndSession();
      return out;
    } else {
      return Status::InvalidArgument(
          "query sessions require wire-codable Query/Partial/Value types");
    }
  }

  /// Retires a live session: best-effort shutdown frames to the resident
  /// workers, then the in-thread hosts (inproc) are joined. Idempotent;
  /// also runs on destruction and before any Run() on this engine.
  void EndSession() {
    if (session_live_) {
      for (FragmentId i = 0; i < n_frags_; ++i) {
        (void)world_->Send(kCoordinatorRank, RankOf(i), kTagWkShutdown, {});
      }
    }
    session_workers_.reset();
    session_live_ = false;
    session_query_.clear();
  }

  ~GrapeEngine() { EndSession(); }

  const EngineMetrics& metrics() const { return metrics_; }

  /// Post-run parameter access (tests assert on converged stores). Only
  /// meaningful after local compute: remote workers keep their stores in
  /// their own processes.
  const ParamStore<Value>& params(FragmentId i) const {
    return cores_[i].store();
  }

  FragmentId num_workers() const { return n_frags_; }

 private:
  /// Rank of worker i in the comm world (rank 0 is the coordinator).
  static uint32_t RankOf(FragmentId i) { return i + 1; }

  Status CheckPhase() {
    for (Status& s : phase_status_) {
      if (!s.ok()) {
        Status out = s;
        s = Status::OK();
        return out;
      }
    }
    return Status::OK();
  }

  void RecordRound(double seconds, uint64_t updated_params) {
    // Running totals, not a re-sum of all prior rounds (which made this
    // O(rounds^2) over a long fixed point). Remote compute adds the
    // ack-reported worker flush traffic, which never passes through a
    // rank-0 Send on multi-process backends.
    // base_* splice a pre-recovery world's totals in front of the rebuilt
    // transport's counters (zero until the first recovery), so replayed
    // rounds re-count identically to the fault-free run.
    CommStats cs = world_->stats();
    RoundMetrics rm;
    rm.round = metrics_.supersteps;
    rm.seconds = seconds;
    rm.messages =
        base_messages_ + cs.messages + extra_messages_ - recorded_messages_;
    rm.bytes = base_bytes_ + cs.bytes + extra_bytes_ - recorded_bytes_;
    recorded_messages_ = base_messages_ + cs.messages + extra_messages_;
    recorded_bytes_ = base_bytes_ + cs.bytes + extra_bytes_;
    rm.updated_params = updated_params;
    metrics_.rounds.push_back(rm);
  }

  void FinishMetrics(const WallTimer& total_timer) {
    CommStats cs = world_->stats();
    metrics_.messages = base_messages_ + cs.messages + extra_messages_;
    metrics_.bytes = base_bytes_ + cs.bytes + extra_bytes_;
    uint64_t mono = 0;
    if (metrics_.remote_worker_pids.empty()) {
      for (const auto& core : cores_) mono += core.monotonicity_violations();
    } else {
      for (uint64_t v : remote_mono_) mono += v;
    }
    metrics_.monotonicity_violations = mono;
    metrics_.total_seconds = total_timer.ElapsedSeconds();
  }

  uint64_t TotalDirty() const {
    uint64_t total = 0;
    for (const auto& core : cores_) total += core.flush_dirty();
    return total;
  }

  uint64_t TotalUpdated() const {
    uint64_t total = 0;
    for (const auto& core : cores_) total += core.updated().size();
    return total;
  }

  /// Ships every staged buffer (runs between parallel phases); returns the
  /// number of directly-sent updates (coordinator-bound updates are counted
  /// when routed). A failed Send surfaces as a Status like every other
  /// engine phase rather than aborting the process. The trailing Flush is
  /// the BSP delivery barrier: on asynchronous backends (socket) it blocks
  /// until every frame is visible at its destination, so the next phase
  /// observes exactly what an in-process mailbox would.
  Result<uint64_t> DispatchSends() {
    uint64_t direct = 0;
    for (FragmentId i = 0; i < n_frags_; ++i) {
      for (WorkerSend& p : pending_sends_[i]) {
        direct += p.direct_updates;
        GRAPE_RETURN_NOT_OK(world_->Send(RankOf(i), p.dst_rank,
                                         kTagParamUpdate,
                                         std::move(p.payload)));
      }
      pending_sends_[i].clear();
    }
    GRAPE_RETURN_NOT_OK(world_->Flush());
    return direct;
  }

  /// Coordinator step: collects all pending parameter updates, resolves
  /// conflicts per (destination, vertex) with the app's aggregate function,
  /// and forwards one consolidated buffer to each destination worker.
  /// Returns the number of routed updates (0 signals the fixed point).
  Result<uint64_t> CoordinatorRoute() {
    std::vector<RtMessage> inbox = world_->DrainAll(kCoordinatorRank);
    if (inbox.empty()) return uint64_t{0};
    uint64_t routed = 0;
    GRAPE_ASSIGN_OR_RETURN(
        routed, RouteInbox(std::move(inbox), kTagParamUpdate, nullptr));
    // Delivery barrier: consolidated batches must reach the workers before
    // the ApplyMessages phase starts polling its mailboxes.
    GRAPE_RETURN_NOT_OK(world_->Flush());
    return routed;
  }

  /// The mode-independent coordinator: aggregates an inbox of owner-bound
  /// record batches and sends one consolidated buffer per destination
  /// worker under `send_tag` (kTagParamUpdate locally, kTagWkApply for
  /// remote workers — the one worker-protocol frame CommStats counts,
  /// because this Send exists identically in both modes). When
  /// `apply_counts` is non-null it receives the number of batches sent to
  /// each fragment — the remote round's per-worker delivery expectation.
  Result<uint64_t> RouteInbox(std::vector<RtMessage> inbox, uint32_t send_tag,
                              std::vector<uint32_t>* apply_counts) {
    if (apply_counts != nullptr) {
      apply_counts->assign(n_frags_, 0);
    }
    if (inbox.empty()) return uint64_t{0};
    // Mailbox order is FIFO per sender; sort by sender for a deterministic
    // merge independent of thread scheduling.
    std::stable_sort(inbox.begin(), inbox.end(),
                     [](const RtMessage& a, const RtMessage& b) {
                       return a.from < b.from;
                     });

    // Dense aggregation: one persistent slot array per destination,
    // indexed by dst_lid. Round tags take the place of clearing — a slot
    // holding an older round number is vacant this round — so the O(|F_i|)
    // arrays are never re-initialized. First-seen append order plus the
    // sender sort above reproduces the seed path's merge order exactly.
    ++coord_round_;
    coord_touched_.clear();
    for (RtMessage& msg : inbox) {
      Decoder dec(msg.payload);
      uint32_t dst = 0;
      GRAPE_RETURN_NOT_OK(dec.ReadU32(&dst));
      if (dst >= coord_batches_.size()) {
        return Status::Corruption("routed batch for unknown fragment " +
                                  std::to_string(dst));
      }
      GRAPE_RETURN_NOT_OK(
          DecodeRecordBlock(dec, &route_lids_, &route_values_));
      CoordBatch& batch = coord_batches_[dst];
      if (batch.round != coord_round_) {
        batch.round = coord_round_;
        batch.lids.clear();
        batch.values.clear();
        coord_touched_.push_back(dst);
      }
      for (size_t k = 0; k < route_lids_.size(); ++k) {
        const LocalId lid = route_lids_[k];
        if (lid >= batch.slot_round.size()) {
          return Status::Corruption("routed update addresses lid " +
                                    std::to_string(lid) +
                                    " outside fragment " +
                                    std::to_string(dst));
        }
        if (batch.slot_round[lid] != coord_round_) {
          batch.slot_round[lid] = coord_round_;
          batch.slot_pos[lid] = static_cast<uint32_t>(batch.lids.size());
          batch.lids.push_back(lid);
          batch.values.push_back(std::move(route_values_[k]));
        } else {
          Agg::Aggregate(batch.values[batch.slot_pos[lid]],
                         route_values_[k]);
        }
      }
      world_->buffer_pool().Release(std::move(msg.payload));
    }

    std::sort(coord_touched_.begin(), coord_touched_.end());

    uint64_t routed = 0;
    for (FragmentId dst : coord_touched_) {
      CoordBatch& batch = coord_batches_[dst];
      Encoder enc(world_->buffer_pool().Acquire());
      EncodeOwnedRecords(enc, batch.lids, batch.values);
      routed += batch.lids.size();
      if (apply_counts != nullptr) (*apply_counts)[dst]++;
      GRAPE_RETURN_NOT_OK(world_->Send(kCoordinatorRank, RankOf(dst),
                                       send_tag, enc.TakeBuffer()));
    }
    return routed;
  }

  /// Applies routed updates to worker i's parameters via the aggregate
  /// function; vertices whose value actually changed form M_i, the update
  /// set handed to IncEval.
  Status ApplyMessages(FragmentId i) {
    cores_[i].BeginApply();
    while (auto msg = world_->TryRecv(RankOf(i), kTagParamUpdate)) {
      GRAPE_RETURN_NOT_OK(cores_[i].ApplyBatch(msg->payload));
      world_->buffer_pool().Release(std::move(msg->payload));
    }
    cores_[i].FinishApply();
    return Status::OK();
  }

  /// The local PIE fixed point behind Run and the local RunIncremental.
  /// Cold (previous == nullptr), superstep 1 is PEval. Warm, every local
  /// copy adopts `previous`'s converged value, the update's `touched`
  /// vertices seed M, and superstep 1 is the first IncEval — timed as
  /// IncEval, and always in incremental mode, since bounded re-evaluation
  /// of the affected region is the point of the warm start.
  Result<Output> RunLocalFixpoint(const Query& query,
                                  const GrapeEngine* previous,
                                  const std::vector<VertexId>& touched) {
    WallTimer total_timer;
    metrics_ = EngineMetrics{};
    world_->ResetStats();
    recorded_messages_ = 0;
    recorded_bytes_ = 0;
    extra_messages_ = 0;
    extra_bytes_ = 0;
    const FragmentId n = n_frags_;
    const bool warm = previous != nullptr;
    const bool incremental = warm || options_.incremental;

    for (FragmentId i = 0; i < n; ++i) {
      cores_[i].Reset(options_.check_monotonicity);
    }
    if (warm) {
      // Warm start: every local copy adopts the owner's converged value
      // from the previous run (unseen vertices keep InitValue).
      for (FragmentId i = 0; i < n; ++i) {
        const Fragment& frag = fg_->fragments[i];
        ParamStore<Value>& store = cores_[i].store();
        for (LocalId lid = 0; lid < frag.num_local(); ++lid) {
          VertexId gid = frag.Gid(lid);
          if (gid >= previous->fg_->owner->size()) continue;  // new vertex
          FragmentId prev_owner = (*previous->fg_->owner)[gid];
          const Fragment& prev_frag = previous->fg_->fragments[prev_owner];
          LocalId prev_lid = prev_frag.Lid(gid);
          if (prev_lid == kInvalidLocal) continue;
          store.UntrackedRef(lid) =
              previous->cores_[prev_owner].store().Get(prev_lid);
        }
      }
      // Seed M: the update's touched vertices (all local copies).
      for (VertexId gid : touched) {
        for (FragmentId i = 0; i < n; ++i) {
          LocalId lid = fg_->fragments[i].Lid(gid);
          if (lid != kInvalidLocal) cores_[i].updated().push_back(lid);
        }
      }
    }

    // Superstep 1: partial evaluation (warm: the first IncEval) on every
    // fragment in parallel. Messages are staged inside the parallel phase
    // and dispatched after the barrier, so nothing a worker sends can be
    // consumed in the same superstep (BSP delivery semantics).
    {
      ScopedTimer t(warm ? &metrics_.inceval_seconds
                         : &metrics_.peval_seconds);
      pool_.ParallelFor(0, n, [&](size_t i) {
        if (warm) {
          cores_[i].IncEval(query, true);
        } else {
          cores_[i].PEval(query);
        }
        cores_[i].Flush(world_->buffer_pool(), &pending_sends_[i]);
      });
      metrics_.supersteps = 1;
    }
    GRAPE_RETURN_NOT_OK(CheckPhase());
    uint64_t direct = 0;
    GRAPE_ASSIGN_OR_RETURN(direct, DispatchSends());
    RecordRound(0.0, TotalUpdated());
    uint64_t dirty = TotalDirty();

    // Supersteps 2..: coordinator routes, workers incrementally evaluate.
    // Termination per Sec. 2.2(3): every worker inactive and no update
    // parameter changed anywhere — i.e. neither in-flight messages (routed
    // through the coordinator or sent directly) nor local parameter changes
    // (dirty) remain.
    while (metrics_.supersteps < options_.max_supersteps) {
      double global = 0;
      for (FragmentId i = 0; i < n; ++i) global += cores_[i].GlobalValue();
      if (!metrics_.rounds.empty()) metrics_.rounds.back().global = global;
      if (App::ShouldTerminate(query, metrics_.supersteps, global)) break;

      uint64_t routed = 0;
      {
        ScopedTimer t(&metrics_.coordinator_seconds);
        GRAPE_ASSIGN_OR_RETURN(routed, CoordinatorRoute());
      }
      if (routed + direct == 0 && dirty == 0) break;  // simultaneous fixpoint

      WallTimer round_timer;
      {
        ScopedTimer t(&metrics_.inceval_seconds);
        pool_.ParallelFor(0, n, [&](size_t i) {
          auto fid = static_cast<FragmentId>(i);
          Status s = ApplyMessages(fid);
          if (!s.ok()) {
            phase_status_[i] = s;
            return;
          }
          cores_[i].IncEval(query, incremental);
          cores_[i].Flush(world_->buffer_pool(), &pending_sends_[i]);
        });
      }
      metrics_.supersteps++;
      GRAPE_RETURN_NOT_OK(CheckPhase());
      GRAPE_ASSIGN_OR_RETURN(direct, DispatchSends());
      RecordRound(round_timer.ElapsedSeconds(), TotalUpdated());
      dirty = TotalDirty();
      if (options_.verbose && !warm) {
        GRAPE_LOG(kInfo) << "superstep " << metrics_.supersteps << ": "
                         << metrics_.rounds.back().messages << " msgs";
      }
    }

    // Termination: pull partial results and Assemble at the coordinator.
    Output output;
    {
      ScopedTimer t(&metrics_.assemble_seconds);
      std::vector<Partial> partials(n);
      pool_.ParallelFor(0, n, [&](size_t i) {
        partials[i] = cores_[i].GetPartial(query);
      });
      output = App::Assemble(query, std::move(partials));
    }

    FinishMetrics(total_timer);
    return output;
  }

  // ------------------------------------------------------ remote compute

  /// One awaited remote phase: every worker's ack folded together, with
  /// per-fragment detail where the engine needs it.
  struct RemoteRound {
    uint64_t dirty = 0;
    uint64_t direct_updates = 0;
    uint64_t updated_count = 0;
    uint64_t sent_messages = 0;
    uint64_t sent_bytes = 0;
    std::vector<double> global_by_frag;  // summed in fragment order
    std::vector<uint64_t> mono_by_frag;  // cumulative per worker
    /// direct_matrix[src][dst]: kTagWkDirect frames worker src shipped to
    /// worker dst this phase — next round's delivery expectations.
    std::vector<std::vector<uint32_t>> direct_matrix;

    double GlobalSum() const {
      // Fragment order, matching the local loop's summation order, so a
      // borderline floating-point termination check cannot diverge.
      double g = 0;
      for (double v : global_by_frag) g += v;
      return g;
    }
  };

  /// Coordinator state at a checkpoint barrier — everything the superstep
  /// loop needs to resume exactly where a failed attempt left off, paired
  /// with the worker images in ckpt_store_. The comm_* bases keep
  /// CommStats-derived views continuous across a world rebuild, whose
  /// fresh transport counts from zero.
  struct CoordSnapshot {
    bool valid = false;
    uint32_t supersteps = 0;
    /// The barrier round whole: dirty/direct/global resume from it and its
    /// direct_matrix seeds the next round's delivery expectations.
    RemoteRound round;
    /// Deep copies of the routed-but-unconsumed worker data frames
    /// (remote_inbox_), as (from, payload) pairs.
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> inbox;
    EngineMetrics metrics;
    uint64_t extra_messages = 0;
    uint64_t extra_bytes = 0;
    uint64_t recorded_messages = 0;
    uint64_t recorded_bytes = 0;
    uint64_t comm_messages = 0;
    uint64_t comm_bytes = 0;
    std::vector<uint64_t> remote_mono;
  };

  /// Remote compute with fault tolerance: each attempt runs the full
  /// PEval → IncEval* → Assemble pipeline; when a CheckpointPolicy is
  /// enabled and an attempt dies with Unavailable (endpoint SIGKILLed,
  /// transport broken, liveness probe fired), the world is rebuilt in
  /// place (Transport::Recover) and the next attempt resumes from the
  /// last completed checkpoint. With the policy off this degenerates to
  /// exactly one attempt with no added control traffic.
  Result<Output> RunRemote(const Query& query)
    requires RemoteCompatibleApp<App>
  {
    // The run's total spans every attempt and recovery: a restored
    // attempt resumes the snapshot's cumulative phase times, so timing
    // only the last attempt would report less than its own parts.
    WallTimer run_timer;
    auto finish = [&](Result<Output> out) {
      metrics_.total_seconds = run_timer.ElapsedSeconds();
      return out;
    };
    run_recoveries_ = 0;
    snapshot_ = CoordSnapshot{};
    ckpt_store_ = CheckpointStore(options_.checkpoint.dir);
    // A previous run's images must never satisfy this run's restores: a
    // stale file with a matching (rank, round) would restore cleanly and
    // silently compute over the wrong graph/query. Start from nothing.
    ckpt_store_.Clear();
    for (;;) {
      const RemoteSeed seed = run_recoveries_ > 0 && snapshot_.valid
                                  ? RemoteSeed::kRestore
                                  : RemoteSeed::kLoad;
      Result<Output> out = RunRemoteFixpoint(query, seed, /*session=*/false);
      if (out.ok()) return finish(std::move(out));
      const CheckpointPolicy& cp = options_.checkpoint;
      // Recoverable means: the failure is a death, not an app error; the
      // policy allows another attempt; the backend can rebuild the world;
      // and there is something to resume from — a checkpoint, or (lacking
      // one yet) a coordinator-held graph to cold-restart with. A
      // distributed-load engine that dies before its first checkpoint is
      // unrecoverable: the resident fragments died with the endpoints.
      if (!out.status().IsUnavailable() || !cp.enabled() ||
          run_recoveries_ >= cp.max_recoveries ||
          !world_->supports_recovery() ||
          !(snapshot_.valid || fg_ != nullptr)) {
        return finish(std::move(out));
      }
      if (options_.verbose) {
        GRAPE_LOG(kInfo) << "recovering world after: "
                         << out.status().ToString();
      }
      if (Status r = world_->Recover(); !r.ok()) {
        // Rebuild failed: surface the original death.
        return finish(std::move(out));
      }
      ++run_recoveries_;
    }
  }

  /// How RunRemoteFixpoint seeds a run. Only the opening differs between
  /// the remote entry points; route, aggregate, IncEval, terminate and
  /// assemble are one loop for all of them, which is what makes session
  /// and incremental answers bit-identical to Run()'s.
  enum class RemoteSeed {
    /// kTagWkLoad: ship each fragment (a session may stash it resident
    /// under options_.resident_stash_token) or attach to the resident
    /// one; superstep 1 is PEval.
    kLoad,
    /// kTagWkQuery: re-seed a live session's workers with just the next
    /// query — no app name, no fragment bytes; superstep 1 is PEval.
    kQuery,
    /// kTagWkIncStart: keep the state the session's last query left in
    /// the workers and open with IncEval over the touched vertices.
    kIncStart,
    /// RestoreFromSnapshot: a rebuilt world resumes at the last
    /// checkpoint barrier, past superstep 1.
    kRestore,
  };

  /// The remote PIE fixed point behind Run, SessionRun and the session
  /// RunIncremental. `session` keeps the workers resident for the next
  /// call: their in-thread hosts live in session_workers_ and no shutdown
  /// frame is sent. Only a batch run (!session) checkpoints, logs its
  /// supersteps under --verbose, reports recoveries and retires its
  /// workers; a session's unit of retry is the query itself.
  Result<Output> RunRemoteFixpoint(const Query& query, RemoteSeed seed,
                                   bool session,
                                   const std::vector<VertexId>& touched = {})
    requires RemoteCompatibleApp<App>
  {
    WallTimer total_timer;
    metrics_ = EngineMetrics{};
    world_->ResetStats();
    recorded_messages_ = 0;
    recorded_bytes_ = 0;
    extra_messages_ = 0;
    extra_bytes_ = 0;
    base_messages_ = 0;
    base_bytes_ = 0;
    remote_inbox_.clear();
    const FragmentId n = n_frags_;
    metrics_.remote_worker_pids.assign(n, 0);
    metrics_.remote_peval_runs.assign(n, 0);
    metrics_.remote_inceval_runs.assign(n, 0);
    if (!session) metrics_.recoveries = run_recoveries_;
    remote_mono_.assign(n, 0);

    const CheckpointPolicy& cp = options_.checkpoint;
    if (cp.enabled()) {
      monitor_.Reset(n, cp.lease_ms);
      const std::vector<int64_t> pids = world_->endpoint_process_ids();
      monitor_.set_pid_probe([pids](uint32_t frag) {
        const uint32_t rank = frag + 1;
        if (rank >= pids.size() || pids[rank] <= 0) return false;
        // waitpid over kill(pid, 0): a SIGKILLed child stays a zombie
        // until reaped and kill(zombie, 0) still succeeds. WNOHANG
        // returning the pid (just died) or -1/ECHILD (already reaped)
        // both mean dead; 0 means alive.
        int st = 0;
        return ::waitpid(static_cast<pid_t>(pids[rank]), &st, WNOHANG) != 0;
      });
    }

    // A batch run's in-thread hosts live for this attempt only.
    std::unique_ptr<InThreadWorkers> attempt_hosts;
    if (seed == RemoteSeed::kLoad || seed == RemoteSeed::kRestore) {
      // Cover the in-thread host path even when nobody pre-registered this
      // app; endpoint processes snapshot the registry at fork, so for
      // socket/tcp the registration must already have happened there.
      if (!WorkerAppRegistry::Global().Has(options_.remote_app)) {
        RegisterRemoteWorker<App>(options_.remote_app);
      }
      // A previous run on this world — an abandoned phase after an error,
      // or a prior engine's session on a shared world — may have left
      // worker-protocol frames behind: drain them before any worker host
      // can see them, so they cannot masquerade as this run's traffic.
      // Only worker tags are touched.
      for (uint32_t tag = kTagWkLoad; tag < kTagWkEnd_; ++tag) {
        for (uint32_t rank = 0; rank <= n; ++rank) {
          while (auto stale = world_->TryRecv(rank, tag)) {
            world_->buffer_pool().Release(std::move(stale->payload));
          }
        }
      }
      auto hosts = std::make_unique<InThreadWorkers>(
          world_, n, !world_->has_remote_endpoints());
      (session ? session_workers_ : attempt_hosts) = std::move(hosts);
    }

    RemoteRound round;
    // Books a completed superstep: the workers' ack-reported flush traffic
    // joins the comm views, the round is recorded, a due checkpoint is
    // taken, and the observability hook fires.
    auto close_round = [&](double seconds) -> Status {
      extra_messages_ += round.sent_messages;
      extra_bytes_ += round.sent_bytes;
      RecordRound(seconds, round.updated_count);
      if (!session) GRAPE_RETURN_NOT_OK(MaybeTakeCheckpoint(round));
      if (options_.on_superstep) options_.on_superstep(metrics_.supersteps);
      return Status::OK();
    };
    if (seed == RemoteSeed::kRestore) {
      // Rebuilt world: re-seed every (fresh) worker from its checkpoint
      // image and roll the coordinator back to the barrier.
      GRAPE_RETURN_NOT_OK(RestoreFromSnapshot(&round));
    } else {
      if (seed != RemoteSeed::kIncStart) {
        // A warm kTagWkQuery re-seeds the parameter store from the
        // fragment the worker already holds and acks with the same
        // load-phase ack a full load would produce.
        ScopedTimer t(&metrics_.load_seconds);
        for (FragmentId i = 0; i < n; ++i) {
          Encoder enc(world_->buffer_pool().Acquire());
          if (seed == RemoteSeed::kQuery) {
            EncodeValue(enc, query);
          } else {
            EncodeLoadFrame(enc, i, query, session);
          }
          GRAPE_RETURN_NOT_OK(world_->Send(
              kCoordinatorRank, RankOf(i),
              seed == RemoteSeed::kQuery ? kTagWkQuery : kTagWkLoad,
              enc.TakeBuffer()));
        }
        RemoteRound load;
        GRAPE_RETURN_NOT_OK(AwaitPhase(kWkPhaseLoad, 0, &load));
        if (session) {
          // What the workers now hold answers this query; SessionDelta
          // checks a warm start against it.
          session_query_ = QueryBytes(query);
          session_live_ = true;
        }
      }

      // Superstep 1: remote PEval everywhere — or the warm IncEval seeded
      // with the touched vertices, deliberately without a kTagWkQuery: a
      // query re-seed resets the parameter store, destroying exactly the
      // state the incremental path exists to exploit. It takes PEval's
      // slot in the loop but is timed and counted as IncEval.
      const bool inc_start = seed == RemoteSeed::kIncStart;
      {
        ScopedTimer t(inc_start ? &metrics_.inceval_seconds
                                : &metrics_.peval_seconds);
        for (FragmentId i = 0; i < n; ++i) {
          std::vector<uint8_t> payload;
          if (inc_start) {
            Encoder enc(world_->buffer_pool().Acquire());
            enc.WritePodVector(touched);
            payload = enc.TakeBuffer();
          }
          GRAPE_RETURN_NOT_OK(world_->Send(
              kCoordinatorRank, RankOf(i),
              inc_start ? kTagWkIncStart : kTagWkRunPEval, std::move(payload)));
        }
        GRAPE_RETURN_NOT_OK(AwaitPhase(
            inc_start ? kWkPhaseIncEval : kWkPhasePEval, 1, &round));
        metrics_.supersteps = 1;
      }
      GRAPE_RETURN_NOT_OK(close_round(0.0));
    }

    while (metrics_.supersteps < options_.max_supersteps) {
      const double global = round.GlobalSum();
      if (!metrics_.rounds.empty()) metrics_.rounds.back().global = global;
      // The coordinator decides termination (Sec. 2.2(3)): the hook reads
      // only the query and the globals the acks already carried.
      if (App::ShouldTerminate(query, metrics_.supersteps, global)) break;

      uint64_t routed = 0;
      std::vector<uint32_t> apply_counts;
      {
        ScopedTimer t(&metrics_.coordinator_seconds);
        std::vector<RtMessage> inbox = std::move(remote_inbox_);
        remote_inbox_.clear();
        GRAPE_ASSIGN_OR_RETURN(
            routed, RouteInbox(std::move(inbox), kTagWkApply, &apply_counts));
      }
      // Simultaneous fixpoint.
      if (routed + round.direct_updates == 0 && round.dirty == 0) break;

      WallTimer round_timer;
      RemoteRound next;
      {
        ScopedTimer t(&metrics_.inceval_seconds);
        for (FragmentId i = 0; i < n; ++i) {
          IncEvalCommand cmd;
          cmd.round = metrics_.supersteps + 1;
          cmd.incremental = options_.incremental;
          cmd.apply_frames = apply_counts[i];
          for (FragmentId s = 0; s < n; ++s) {
            const uint32_t frames = round.direct_matrix[s][i];
            if (frames > 0) cmd.expect_direct.emplace_back(RankOf(s), frames);
          }
          Encoder enc(world_->buffer_pool().Acquire());
          cmd.EncodeTo(enc);
          GRAPE_RETURN_NOT_OK(world_->Send(kCoordinatorRank, RankOf(i),
                                           kTagWkRunIncEval,
                                           enc.TakeBuffer()));
        }
        GRAPE_RETURN_NOT_OK(
            AwaitPhase(kWkPhaseIncEval, metrics_.supersteps + 1, &next));
      }
      round = std::move(next);
      metrics_.supersteps++;
      GRAPE_RETURN_NOT_OK(close_round(round_timer.ElapsedSeconds()));
      if (options_.verbose && !session) {
        GRAPE_LOG(kInfo) << "superstep " << metrics_.supersteps << ": "
                         << metrics_.rounds.back().messages
                         << " msgs (remote)";
      }
    }
    remote_mono_ = round.mono_by_frag.empty() ? remote_mono_
                                              : round.mono_by_frag;

    // Termination: remote GetPartial everywhere, Assemble here.
    Output output;
    {
      ScopedTimer t(&metrics_.assemble_seconds);
      for (FragmentId i = 0; i < n; ++i) {
        GRAPE_RETURN_NOT_OK(world_->Send(kCoordinatorRank, RankOf(i),
                                         kTagWkGetPartial, {}));
      }
      std::vector<Partial> partials(n);
      GRAPE_RETURN_NOT_OK(AwaitFrames(
          "partials", n, [&](RtMessage& msg, bool fresh) -> Result<bool> {
            if (msg.tag != kTagWkPartial || !fresh) return false;
            Decoder dec(msg.payload);
            GRAPE_RETURN_NOT_OK(DecodeValue(dec, &partials[msg.from - 1]));
            return true;
          }));
      output = App::Assemble(query, std::move(partials));
    }

    // A batch run retires its workers (best effort: the run already
    // succeeded; an endpoint that died here surfaces through the transport
    // anyway). A session's workers stay resident for the next query.
    if (!session) {
      for (FragmentId i = 0; i < n; ++i) {
        (void)world_->Send(kCoordinatorRank, RankOf(i), kTagWkShutdown, {});
      }
    }

    FinishMetrics(total_timer);
    return output;
  }

  /// Fragment i's kTagWkLoad payload: app name + flags + query + the
  /// fragment. Coordinator-loaded engines serialize the fragment (with
  /// its routing plan and the shared owner tables) — a session's, under
  /// a non-zero resident_stash_token, preceded by the token the worker
  /// deposits it under; distributed-load engines ship only the build
  /// token, and each worker attaches to the fragment already resident in
  /// its own process — the graph never transits rank 0.
  void EncodeLoadFrame(Encoder& enc, FragmentId i, const Query& query,
                       bool session)
    requires RemoteCompatibleApp<App>
  {
    const bool stash =
        session && fg_ != nullptr && options_.resident_stash_token != 0;
    enc.WriteString(options_.remote_app);
    uint8_t flags = options_.check_monotonicity ? kWkLoadCheckMonotonicity : 0;
    if (fg_ == nullptr) flags |= kWkLoadUseResident;
    if (stash) flags |= kWkLoadStashResident;
    if (options_.compute_threads > 1) flags |= kWkLoadComputeThreads;
    enc.WriteU8(flags);
    // Gated on the flag so compute_threads <= 1 load frames stay
    // byte-identical to every frame this engine ever sent.
    if (options_.compute_threads > 1) enc.WriteU32(options_.compute_threads);
    EncodeValue(enc, query);
    if (fg_ == nullptr) {
      enc.WriteU64(resident_token_);
      return;
    }
    if (stash) enc.WriteU64(options_.resident_stash_token);
    fg_->fragments[i].EncodeTo(enc);
  }

  /// The bounded delta behind both remote RunIncremental overloads: IncEval
  /// warm-started inside the endpoints from the state the session's last
  /// query left there. That warm start is sound only for change that
  /// moves values down the order (`monotone_change`) and only for the
  /// very query the endpoints converged on — compared by its encoded
  /// bytes, since kTagWkIncStart carries just the touched vertices.
  /// Anything else re-answers through SessionRun and flags the fallback.
  Result<Output> SessionDelta(const Query& query,
                              const std::vector<VertexId>& touched,
                              bool monotone_change)
    requires RemoteCompatibleApp<App>
  {
    const bool same_query =
        !session_live_ || QueryBytes(query) == session_query_;
    if (!monotone_change || !same_query) {
      Result<Output> out = SessionRun(query);
      metrics_.incremental_fallback = true;
      return out;
    }
    if (!session_live_) {
      return Status::FailedPrecondition(
          "incremental evaluation rides a live query session: SessionRun "
          "the query, ApplyMutations the batch, then RunIncremental "
          "re-answers that same query");
    }
    Result<Output> out = RunRemoteFixpoint(query, RemoteSeed::kIncStart,
                                           /*session=*/true, touched);
    // Same invalidation contract as SessionRun: a failed delta leaves
    // workers mid-phase, so the next call must cold-start.
    if (!out.ok()) EndSession();
    return out;
  }

  static std::vector<uint8_t> QueryBytes(const Query& query)
    requires RemoteCompatibleApp<App>
  {
    Encoder enc;
    EncodeValue(enc, query);
    return enc.TakeBuffer();
  }

  /// Ships the encoded batch to every endpoint and collects the patched
  /// shapes. The mutate ack (kTagWkMutateAck, a WkBuildAck) only arrives
  /// after the worker finished its peer-to-peer mirror/warm-value
  /// exchange, so a complete ack set means every routing plan is resolved
  /// and every outer copy holds its owner's converged value.
  Result<std::vector<WkBuildAck>> ApplyMutationsImpl(const MutationBatch& b)
    requires RemoteCompatibleApp<App>
  {
    if (fg_ != nullptr) {
      GRAPE_RETURN_NOT_OK(b.Validate(fg_->total_vertices));
    }
    const FragmentId n = n_frags_;
    for (FragmentId i = 0; i < n; ++i) {
      Encoder enc(world_->buffer_pool().Acquire());
      b.EncodeTo(enc);
      GRAPE_RETURN_NOT_OK(world_->Send(kCoordinatorRank, RankOf(i),
                                       kTagWkMutate, enc.TakeBuffer()));
    }
    std::vector<WkBuildAck> shapes(n);
    GRAPE_RETURN_NOT_OK(AwaitFrames(
        "mutation acks", n, [&](RtMessage& msg, bool fresh) -> Result<bool> {
          if (msg.tag != kTagWkMutateAck || !fresh) return false;
          Decoder dec(msg.payload);
          GRAPE_RETURN_NOT_OK(
              WkBuildAck::DecodeFrom(dec, &shapes[msg.from - 1]));
          return true;
        }));
    RefreshShapes(shapes);
    return shapes;
  }

  /// Checkpoint barrier, entered right after a round's acks (and therefore
  /// its whole message frontier) are in. Each worker is told how many
  /// direct frames it should already hold buffered (this round's
  /// direct_matrix column); it snapshots state + buffered frames WITHOUT
  /// consuming them and acks with the round image (inline in memory mode,
  /// via its local CheckpointStore in disk mode). While no snapshot is
  /// complete — the run's first barrier, or the first after a cold
  /// restart from a torn one — the workers also write their checkpoint
  /// base, the fragment, which every later image refers to. Once every ack
  /// is in, the coordinator rolls its own loop state into snapshot_.
  Status MaybeTakeCheckpoint(const RemoteRound& round) {
    const CheckpointPolicy& cp = options_.checkpoint;
    if (!cp.enabled() || metrics_.supersteps % cp.every_k != 0) {
      return Status::OK();
    }
    ScopedTimer timer(&metrics_.checkpoint_seconds);
    const FragmentId n = n_frags_;
    const uint32_t barrier = metrics_.supersteps;
    for (FragmentId i = 0; i < n; ++i) {
      WkCheckpointCommand cmd;
      cmd.round = barrier;
      cmd.with_base = !snapshot_.valid;
      cmd.dir = cp.dir;
      for (FragmentId s = 0; s < n; ++s) {
        const uint32_t frames = round.direct_matrix[s][i];
        if (frames > 0) cmd.expect_direct.emplace_back(RankOf(s), frames);
      }
      Encoder enc(world_->buffer_pool().Acquire());
      cmd.EncodeTo(enc);
      GRAPE_RETURN_NOT_OK(world_->Send(kCoordinatorRank, RankOf(i),
                                       kTagWkCheckpoint, enc.TakeBuffer()));
    }
    // One kTagWkCheckpointAck per worker for this barrier. Inline blobs
    // are validated (checksum + structural walk, and the image must name
    // its rank's base) BEFORE being committed to the store: a corrupt or
    // mismatched blob must never become the recovery point. No kTagWkData
    // can legitimately arrive here (the barrier sits between a round's
    // acks and the next round's commands), so anything else is stale.
    uint64_t bytes = 0;
    GRAPE_RETURN_NOT_OK(AwaitFrames(
        "checkpoint acks", n, [&](RtMessage& msg, bool fresh) -> Result<bool> {
          if (msg.tag != kTagWkCheckpointAck || !fresh) return false;
          Decoder dec(msg.payload);
          WkCheckpointAck ack;
          GRAPE_RETURN_NOT_OK(WkCheckpointAck::DecodeFrom(dec, &ack));
          if (ack.round != barrier) return false;  // stale duplicate
          bytes += ack.bytes;
          if (!ack.image.empty()) {
            GRAPE_RETURN_NOT_OK(ckpt_store_.CommitBarrier(
                msg.from, barrier, std::move(ack.base), std::move(ack.image)));
          }
          return true;
        }));
    metrics_.checkpoints++;
    metrics_.checkpoint_bytes += bytes;

    snapshot_.valid = false;  // not valid while half-written
    snapshot_.supersteps = barrier;
    snapshot_.round = round;
    snapshot_.inbox.clear();
    snapshot_.inbox.reserve(remote_inbox_.size());
    for (const RtMessage& m : remote_inbox_) {
      snapshot_.inbox.emplace_back(m.from, m.payload);  // deep copy
    }
    snapshot_.metrics = metrics_;
    snapshot_.extra_messages = extra_messages_;
    snapshot_.extra_bytes = extra_bytes_;
    snapshot_.recorded_messages = recorded_messages_;
    snapshot_.recorded_bytes = recorded_bytes_;
    const CommStats cs = world_->stats();
    snapshot_.comm_messages = base_messages_ + cs.messages;
    snapshot_.comm_bytes = base_bytes_ + cs.bytes;
    snapshot_.remote_mono = remote_mono_;
    snapshot_.valid = true;
    return Status::OK();
  }

  /// Re-seeds a rebuilt world from snapshot_ + ckpt_store_: ships each
  /// worker its base and round image (inline in memory mode; by directory
  /// in disk mode), awaits the restore acks — which report the NEW
  /// endpoint pids — then rolls the coordinator's counters, metrics,
  /// routed inbox and barrier round back. The loop resumes exactly as the fault-free run would
  /// have continued from that superstep.
  Status RestoreFromSnapshot(RemoteRound* round) {
    const FragmentId n = n_frags_;
    const CheckpointPolicy& cp = options_.checkpoint;
    double restore_seconds = 0;
    {
      ScopedTimer t(&restore_seconds);
      for (FragmentId i = 0; i < n; ++i) {
        WkRestoreCommand cmd;
        cmd.app_name = options_.remote_app;
        cmd.flags = options_.check_monotonicity ? kWkLoadCheckMonotonicity : 0;
        if (options_.compute_threads > 1) {
          cmd.flags |= kWkLoadComputeThreads;
          cmd.compute_threads = options_.compute_threads;
        }
        // Name the barrier explicitly: a crash during a later checkpoint
        // can leave newer images committed for SOME ranks, and those must
        // not be restored over the last complete cut.
        cmd.round = snapshot_.supersteps;
        cmd.dir = cp.dir;
        if (cp.dir.empty()) {
          GRAPE_ASSIGN_OR_RETURN(
              cmd.image,
              ckpt_store_.GetEncoded(RankOf(i), snapshot_.supersteps));
          GRAPE_ASSIGN_OR_RETURN(cmd.base,
                                 ckpt_store_.GetEncodedBase(RankOf(i)));
        }
        Encoder enc(world_->buffer_pool().Acquire());
        cmd.EncodeTo(enc);
        GRAPE_RETURN_NOT_OK(world_->Send(kCoordinatorRank, RankOf(i),
                                         kTagWkRestore, enc.TakeBuffer()));
      }
      RemoteRound acks;
      GRAPE_RETURN_NOT_OK(
          AwaitPhase(kWkPhaseRestore, snapshot_.supersteps, &acks));
    }
    // The restore acks deposited the fresh worker pids into this attempt's
    // cold metrics_; carry them over the snapshot's metrics, which are
    // authoritative for everything else.
    std::vector<uint64_t> pids = std::move(metrics_.remote_worker_pids);
    metrics_ = snapshot_.metrics;
    metrics_.remote_worker_pids = std::move(pids);
    metrics_.recoveries = run_recoveries_;
    metrics_.load_seconds += restore_seconds;
    extra_messages_ = snapshot_.extra_messages;
    extra_bytes_ = snapshot_.extra_bytes;
    recorded_messages_ = snapshot_.recorded_messages;
    recorded_bytes_ = snapshot_.recorded_bytes;
    // The rebuilt transport's counters restart at zero; the bases splice
    // the old world's totals back in so RecordRound deltas stay exact.
    world_->ResetStats();
    base_messages_ = snapshot_.comm_messages;
    base_bytes_ = snapshot_.comm_bytes;
    remote_mono_ = snapshot_.remote_mono;
    remote_inbox_.clear();
    for (const auto& [from, payload] : snapshot_.inbox) {
      std::vector<uint8_t> copy = world_->buffer_pool().Acquire();
      copy.assign(payload.begin(), payload.end());
      remote_inbox_.push_back(
          RtMessage{from, kCoordinatorRank, kTagWkData, std::move(copy)});
    }
    *round = snapshot_.round;
    return Status::OK();
  }

  /// Awaits every worker's ack of `phase` (round-tagged for IncEval),
  /// folded into *out. kTagWkData frames are buffered into remote_inbox_ —
  /// FIFO per channel guarantees a worker's data precedes its ack, so a
  /// complete ack set means a complete round inbox.
  Status AwaitPhase(uint8_t phase, uint32_t round, RemoteRound* out) {
    const FragmentId n = n_frags_;
    out->global_by_frag.assign(n, 0.0);
    out->mono_by_frag.assign(n, 0);
    out->direct_matrix.assign(n, std::vector<uint32_t>(n, 0));
    return AwaitFrames(
        "phase acks", n, [&](RtMessage& msg, bool fresh) -> Result<bool> {
          if (msg.tag == kTagWkData) {
            remote_inbox_.push_back(std::move(msg));
            return false;
          }
          // Stale partial after a duplicated control frame: ignore.
          if (msg.tag != kTagWkAck) return false;
          Decoder dec(msg.payload);
          WorkerAck ack;
          GRAPE_RETURN_NOT_OK(WorkerAck::DecodeFrom(dec, &ack));
          if (msg.from < 1 || msg.from > n) {
            return Status::Internal("worker ack from rank " +
                                    std::to_string(msg.from));
          }
          if (ack.phase != phase || ack.round != round || !fresh) {
            return false;  // stale or duplicated (flaky substrate); ignore
          }
          const FragmentId frag = msg.from - 1;
          out->dirty += ack.dirty;
          out->direct_updates += ack.direct_updates;
          out->updated_count += ack.updated_count;
          out->sent_messages += ack.sent_messages;
          out->sent_bytes += ack.sent_bytes;
          out->global_by_frag[frag] = ack.global;
          out->mono_by_frag[frag] = ack.mono_violations;
          for (const auto& [dst_rank, frames] : ack.direct_frames) {
            if (dst_rank < 1 || dst_rank > n) {
              return Status::Internal("worker reported direct frames to "
                                      "rank " +
                                      std::to_string(dst_rank));
            }
            out->direct_matrix[frag][dst_rank - 1] += frames;
          }
          metrics_.remote_worker_pids[frag] = ack.worker_pid;
          if (ack.phase == kWkPhasePEval) {
            metrics_.remote_peval_runs[frag]++;
          } else if (ack.phase == kWkPhaseIncEval) {
            metrics_.remote_inceval_runs[frag]++;
          }
          return true;
        });
  }

  /// The coordinator's one wait, behind every remote phase: pulls rank-0
  /// frames until `want` workers have answered. `on_frame(msg, fresh)`
  /// sees every frame except a worker error — `fresh` says the sender is
  /// a worker that has not answered this wait yet — and returns whether
  /// the frame was that fresh worker's answer. It may keep the message
  /// (moving it out); whatever payload it leaves is released to the pool.
  /// A kTagWkError from any worker ends the wait with that worker's
  /// status. Each wait is a RecvUntil that a frame ends at once; it never
  /// outlasts kAwaitRecheck, so a dead endpoint or a dropped control frame
  /// surfaces as a Status within bounded time instead of hanging the
  /// superstep loop.
  template <typename OnFrame>
  Status AwaitFrames(const char* what, FragmentId want, OnFrame on_frame) {
    const FragmentId n = n_frags_;
    std::vector<uint8_t> answered(n, 0);
    FragmentId have = 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.remote_timeout_ms);
    while (have < want) {
      std::optional<RtMessage> msg = world_->RecvUntil(
          kCoordinatorRank,
          std::min(deadline, std::chrono::steady_clock::now() + kAwaitRecheck));
      if (!msg) {
        GRAPE_RETURN_NOT_OK(CheckRemoteLiveness(deadline, what));
        continue;
      }
      const uint32_t from = msg->from;
      const bool worker = from >= 1 && from <= n;
      // Any frame from a worker — data, ack, pong — is proof of
      // life for the lease monitor (pongs then fall to the stale branch).
      if (worker) monitor_.Heard(from - 1);
      if (msg->tag == kTagWkError) return DecodeWorkerError(msg->payload);
      const bool fresh = worker && !answered[from - 1];
      Result<bool> answer = on_frame(*msg, fresh);
      world_->buffer_pool().Release(std::move(msg->payload));
      GRAPE_RETURN_NOT_OK(answer.status());
      if (fresh && *answer) {
        answered[from - 1] = 1;
        have++;
      }
    }
    return Status::OK();
  }

  /// What the await loop checks when a wait ends without a frame: fail
  /// fast on a dead transport (a killed endpoint marks it unhealthy within
  /// its bounded detection time), fail with Unavailable past the
  /// per-phase deadline (a dropped control frame on a flaky-but-alive
  /// substrate). Under a CheckpointPolicy it also runs the failure
  /// detector: leases that expired get a ping (a control frame invisible
  /// to CommStats), and the pid probe turns a SIGKILLed local endpoint
  /// into Unavailable within kAwaitRecheck instead of waiting out the
  /// phase deadline.
  Status CheckRemoteLiveness(
      const std::chrono::steady_clock::time_point& deadline,
      const char* what) {
    if (!world_->healthy()) {
      return Status::Unavailable(
          std::string("transport died while awaiting remote ") + what);
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::Unavailable(
          std::string("timed out awaiting remote ") + what + " after " +
          std::to_string(options_.remote_timeout_ms) + "ms");
    }
    if (options_.checkpoint.enabled()) {
      for (FragmentId i = 0; i < n_frags_; ++i) {
        if (monitor_.ShouldPing(i)) {
          // Best effort: a failed ping send means the world is dying, and
          // the healthy() check above surfaces that next pass.
          (void)world_->Send(kCoordinatorRank, RankOf(i), kTagWkPing, {});
        }
      }
      GRAPE_RETURN_NOT_OK(monitor_.Check());
    }
    return Status::OK();
  }

  /// The coordinator-loaded graph, or nullptr for a distributed-load
  /// engine (which holds only shapes and the resident-build token).
  const FragmentedGraph* fg_;
  FragmentId n_frags_;
  /// ResidentFragmentStore key of the distributed build (fg_ == nullptr).
  uint64_t resident_token_ = 0;
  EngineOptions options_;
  std::unique_ptr<Transport> owned_world_;  // only when no external substrate
  Transport* world_;                        // the substrate actually used
  ThreadPool pool_;

  std::vector<WorkerCore<App>> cores_;  // one worker per fragment
  std::vector<Status> phase_status_;
  std::vector<std::vector<WorkerSend>> pending_sends_;
  EngineMetrics metrics_;

  // Coordinator: per-destination aggregation with round-tagged slots.
  struct CoordBatch {
    std::vector<uint32_t> lids;    // first-seen order, the merge order
    std::vector<Value> values;     // parallel to lids
    std::vector<uint32_t> slot_round;  // by dst_lid: last round seen
    std::vector<uint32_t> slot_pos;    // by dst_lid: index into lids/values
    uint32_t round = 0;
  };
  std::vector<CoordBatch> coord_batches_;
  std::vector<FragmentId> coord_touched_;
  std::vector<uint32_t> route_lids_;   // coordinator decode scratch
  std::vector<Value> route_values_;
  uint32_t coord_round_ = 0;

  // Remote compute: buffered worker->coordinator data frames of the
  // current round, ack-reported flush traffic (folded into CommStats
  // views), and the last per-worker monotonicity totals.
  std::vector<RtMessage> remote_inbox_;
  uint64_t extra_messages_ = 0;
  uint64_t extra_bytes_ = 0;
  std::vector<uint64_t> remote_mono_;

  // Per-round communication totals already attributed to a RoundMetrics.
  uint64_t recorded_messages_ = 0;
  uint64_t recorded_bytes_ = 0;

  // Query sessions (SessionRun): persistent in-thread hosts (inproc
  // backends; endpoint backends keep their workers in the endpoint
  // processes), whether the remote workers currently hold a loaded
  // app + fragment, and the encoded query their state answers.
  std::unique_ptr<InThreadWorkers> session_workers_;
  bool session_live_ = false;
  std::vector<uint8_t> session_query_;

  // Fault tolerance (CheckpointPolicy): failure detector, worker image
  // store, the coordinator snapshot the retry loop resumes from, and
  // counter bases restoring CommStats continuity after a world rebuild.
  // All inert — and the counters zero — while the policy is off.
  WorkerLivenessMonitor monitor_;
  CheckpointStore ckpt_store_;
  CoordSnapshot snapshot_;
  uint32_t run_recoveries_ = 0;
  uint64_t base_messages_ = 0;
  uint64_t base_bytes_ = 0;
};

}  // namespace grape

#endif  // GRAPE_CORE_ENGINE_H_
