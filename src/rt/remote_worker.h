#ifndef GRAPE_RT_REMOTE_WORKER_H_
#define GRAPE_RT_REMOTE_WORKER_H_

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/worker_core.h"
#include "graph/mutation.h"
#include "partition/fragment.h"
#include "rt/checkpoint.h"
#include "rt/transport.h"
#include "rt/worker_protocol.h"
#include "util/result.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace grape {

/// What one worker phase (PEval or IncEval) produced: the staged outgoing
/// buffers plus every counter the engine's metrics and termination logic
/// need (see WorkerAck in rt/worker_protocol.h).
struct WorkerPhaseOutput {
  std::vector<WorkerSend> sends;
  uint64_t dirty = 0;
  uint64_t direct_updates = 0;
  uint64_t updated_count = 0;
  uint64_t mono_violations = 0;
  double global = 0.0;
};

/// Process-wide store of fragments assembled by distributed builds
/// (rt/distributed_load.h), keyed by (build token, worker rank). A
/// kTagWkLoad frame flagged kWkLoadUseResident attaches to an entry
/// instead of decoding a shipped fragment, so the graph never leaves the
/// endpoint process. Entries are shared_ptrs: a loaded WorkerCore keeps
/// its fragment alive even across later builds.
class ResidentFragmentStore {
 public:
  static ResidentFragmentStore& Global();

  void Put(uint64_t token, uint32_t rank,
           std::shared_ptr<const Fragment> fragment);
  std::shared_ptr<const Fragment> Get(uint64_t token, uint32_t rank) const;
  /// Drops every rank's entry for one build (frees the graph once no
  /// loaded worker references it).
  void Erase(uint64_t token);

 private:
  mutable std::mutex mu_;
  std::map<std::pair<uint64_t, uint32_t>, std::shared_ptr<const Fragment>>
      fragments_;
};

/// Type-erased worker for one (app, fragment) pair — the virtual seam
/// between the generic protocol host below and the templated
/// WorkerCore<App> compute. Instantiated by name through
/// WorkerAppRegistry, so an endpoint process can host any registered PIE
/// program without compile-time knowledge of the app.
class WorkerAppServerBase {
 public:
  virtual ~WorkerAppServerBase() = default;

  /// Decodes query + fragment (the name and flags were already consumed)
  /// and initializes the parameter store. `rank` is this worker's
  /// transport rank; the shipped fragment must be fragment rank-1. `flags`
  /// is the kTagWkLoad flag byte: kWkLoadUseResident resolves a build
  /// token through ResidentFragmentStore instead of decoding a fragment;
  /// kWkLoadStashResident decodes a shipped fragment AND deposits it in
  /// the store under the token that precedes it on the wire.
  virtual Status Load(Decoder& dec, uint32_t rank, bool check_monotonicity,
                      uint8_t flags) = 0;
  /// Re-seeds this already-loaded server for the next query of a session
  /// (kTagWkQuery): decodes only the query — the fragment stays exactly
  /// as loaded — and rebuilds the core around a fresh app instance, so
  /// stateful apps drop every trace of the previous query.
  virtual Status ResetQuery(Decoder& dec, bool check_monotonicity) = 0;
  /// Frontier-parallel lane count for subsequent Load/Restore calls
  /// (kWkLoadComputeThreads). <= 1 keeps the sequential path; the host
  /// calls this before Load, so the server can size its own pool — each
  /// endpoint process parallelizes within itself, never across ranks.
  virtual void SetComputeThreads(uint32_t threads) = 0;
  virtual Status PEval(BufferPool& pool, WorkerPhaseOutput* out) = 0;
  virtual void BeginApply() = 0;
  virtual Status ApplyFrame(const std::vector<uint8_t>& payload) = 0;
  virtual Status IncEval(bool incremental, BufferPool& pool,
                         WorkerPhaseOutput* out) = 0;
  virtual Status EncodePartial(Encoder& enc) const = 0;
  virtual uint32_t num_fragments() const = 0;

  /// Serializes the fragment this server computes over — the checkpoint
  /// base (rt/checkpoint.h), written once per run.
  virtual Status EncodeFragment(Encoder& enc) const = 0;
  /// Serializes the rest of what a respawned worker needs to resume this
  /// one's run mid-stream: query + WorkerCore state (+ app state for
  /// CheckpointableApp programs) — a round image's state, taken at every
  /// checkpoint barrier. The fragment cannot change during a batch run,
  /// so it is not repeated here.
  virtual Status EncodeCheckpoint(Encoder& enc) const = 0;
  /// Inverse of EncodeFragment + EncodeCheckpoint on a fresh server
  /// instance: decodes the fragment from `base` and the state from
  /// `image`, rejecting (InvalidArgument) an image not taken over that
  /// base. All-or-nothing: a failure leaves the caller free to discard
  /// this instance.
  virtual Status RestoreFromCheckpoint(const CheckpointBase& base,
                                       const CheckpointImage& image,
                                       uint32_t rank,
                                       bool check_monotonicity) = 0;

  // Streaming mutations (kTagWkMutate .. kTagWkIncStart): the warm path
  // that patches the resident fragment and keeps the converged parameter
  // store alive across the patch. Inner lids are stable under edge
  // mutation (the inner set is fixed by vertex ownership), so inner
  // values migrate by lid; the patched outer set starts cold and is
  // overwritten with the owners' converged values through the
  // kTagWkMutMirror / kTagWkMutVals exchange the host drives.

  /// Decodes a MutationBatch and patches a copy of this worker's fragment
  /// (FragmentBuilder::MutateFragment): one fragment copy plus the rows
  /// the batch touches. The resident fragment stays shared and unchanged
  /// until FinishMutation, so a rejected frame changes nothing. The core
  /// is re-seated on the patched copy with inner values carried over;
  /// mirror destinations stay unresolved until the host applies the
  /// peers' kTagWkMutMirror answers. Returns the patched fragment so the
  /// host can compute its own mirror answers.
  virtual Result<const Fragment*> MutateFragment(Decoder& dec,
                                                 bool check_monotonicity) = 0;
  /// Applies one peer's new mirror placements (completing this
  /// fragment's routing plan), exactly like the build path's mirror step.
  virtual Status ApplyMutMirror(FragmentId from,
                                const std::vector<MirrorLidEntry>& answers) = 0;
  /// Answers a peer's warm-value request: for each entry — a gid this
  /// worker owns, paired with the REQUESTER's local id for it — encode the
  /// converged inner value under the requester's lid (record-block wire
  /// format, the same codec parameter messages use).
  virtual Status EncodeWarmValues(const std::vector<MirrorLidEntry>& request,
                                  Encoder& enc) = 0;
  /// Absorbs an owner's kTagWkMutVals reply: OVERWRITES the addressed
  /// store slots (no aggregation — at a converged fixpoint an outer copy
  /// can be stale-high, and the owner's value is authoritative).
  virtual Status AbsorbWarmValues(Decoder& dec) = 0;
  /// Verifies the patched routing plan is fully resolved, freezes the
  /// fragment (re-depositing it in ResidentFragmentStore when this load
  /// carried a token), re-baselines monotonicity tracking on the warm
  /// values, and reports the new shape for the mutate ack.
  virtual Status FinishMutation(WkBuildAck* shape) = 0;
  /// Seeds the warm IncEval's initial M_i with the local ids (inner AND
  /// outer copies) of the batch's touched vertices.
  virtual Status SeedTouched(const std::vector<VertexId>& gids) = 0;
};

/// Templated worker server: WorkerCore<App> behind the virtual seam.
template <PIEProgram App>
  requires RemoteCompatibleApp<App>
class WorkerServer final : public WorkerAppServerBase {
 public:
  using Query = typename App::QueryType;
  using Value = typename App::ValueType;

  Status Load(Decoder& dec, uint32_t rank, bool check_monotonicity,
              uint8_t flags) override {
    GRAPE_RETURN_NOT_OK(DecodeValue(dec, &query_));
    rank_ = rank;
    token_ = 0;
    if ((flags & kWkLoadUseResident) != 0) {
      uint64_t token = 0;
      GRAPE_RETURN_NOT_OK(dec.ReadU64(&token));
      resident_ = ResidentFragmentStore::Global().Get(token, rank);
      if (resident_ == nullptr) {
        return Status::NotFound(
            "no resident fragment for build token " + std::to_string(token) +
            " at rank " + std::to_string(rank) +
            " (was the distributed load run on this world?)");
      }
      token_ = token;
    } else if ((flags & kWkLoadStashResident) != 0) {
      // Ship-and-stash: decode the fragment into shared ownership and
      // deposit it under the session token, so every later load on this
      // world (another query class's engine, a post-reload session)
      // attaches by token instead of re-shipping the graph.
      uint64_t token = 0;
      GRAPE_RETURN_NOT_OK(dec.ReadU64(&token));
      auto owned = std::make_shared<Fragment>();
      GRAPE_RETURN_NOT_OK(Fragment::DecodeFrom(dec, owned.get()));
      ResidentFragmentStore::Global().Put(token, rank, owned);
      resident_ = std::move(owned);
      token_ = token;
    } else {
      GRAPE_RETURN_NOT_OK(Fragment::DecodeFrom(dec, &frag_));
      resident_.reset();
    }
    const Fragment& frag = resident_ ? *resident_ : frag_;
    if (frag.fid() + 1 != rank) {
      return Status::InvalidArgument(
          "fragment " + std::to_string(frag.fid()) + " shipped to rank " +
          std::to_string(rank) + " (worker rank must be fid + 1)");
    }
    core_.emplace(frag, App{});
    MaybeEnableParallel();
    core_->Reset(check_monotonicity);
    return Status::OK();
  }

  Status ResetQuery(Decoder& dec, bool check_monotonicity) override {
    if (!core_.has_value()) {
      return Status::FailedPrecondition(
          "session query before a successful load");
    }
    GRAPE_RETURN_NOT_OK(DecodeValue(dec, &query_));
    const Fragment& frag = resident_ ? *resident_ : frag_;
    core_.emplace(frag, App{});
    MaybeEnableParallel();
    core_->Reset(check_monotonicity);
    return Status::OK();
  }

  void SetComputeThreads(uint32_t threads) override {
    compute_threads_ = threads;
    if (threads > 1 && pool_ == nullptr) {
      pool_ = std::make_unique<ThreadPool>(threads);
    }
  }

  Status PEval(BufferPool& pool, WorkerPhaseOutput* out) override {
    core_->PEval(query_);
    return FlushInto(pool, out);
  }

  void BeginApply() override { core_->BeginApply(); }

  Status ApplyFrame(const std::vector<uint8_t>& payload) override {
    return core_->ApplyBatch(payload);
  }

  Status IncEval(bool incremental, BufferPool& pool,
                 WorkerPhaseOutput* out) override {
    core_->FinishApply();
    core_->IncEval(query_, incremental);
    return FlushInto(pool, out);
  }

  Status EncodePartial(Encoder& enc) const override {
    EncodeValue(enc, core_->GetPartial(query_));
    return Status::OK();
  }

  uint32_t num_fragments() const override {
    return (resident_ ? *resident_ : frag_).num_fragments();
  }

  Status EncodeFragment(Encoder& enc) const override {
    // Written even when the fragment came from the resident store: a
    // post-recovery world's endpoint processes are fresh forks that never
    // saw the distributed build, so the base is the only copy recovery
    // can count on.
    (resident_ ? *resident_ : frag_).EncodeTo(enc);
    return Status::OK();
  }

  Status EncodeCheckpoint(Encoder& enc) const override {
    EncodeValue(enc, query_);
    core_->EncodeCheckpoint(enc);
    return Status::OK();
  }

  Status RestoreFromCheckpoint(const CheckpointBase& base,
                               const CheckpointImage& image, uint32_t rank,
                               bool check_monotonicity) override {
    GRAPE_RETURN_NOT_OK(CheckImageMatchesBase(image, base));
    Decoder frag_dec(base.fragment);
    GRAPE_RETURN_NOT_OK(Fragment::DecodeFrom(frag_dec, &frag_));
    if (!frag_dec.AtEnd()) {
      return Status::Corruption("checkpoint base: trailing fragment bytes");
    }
    resident_.reset();
    rank_ = rank;
    token_ = 0;
    if (frag_.fid() + 1 != rank) {
      return Status::InvalidArgument(
          "checkpoint of fragment " + std::to_string(frag_.fid()) +
          " restored at rank " + std::to_string(rank));
    }
    Decoder state(image.state);
    GRAPE_RETURN_NOT_OK(DecodeValue(state, &query_));
    core_.emplace(frag_, App{});
    MaybeEnableParallel();
    core_->Reset(check_monotonicity);
    GRAPE_RETURN_NOT_OK(core_->RestoreCheckpoint(state));
    if (!state.AtEnd()) {
      return Status::Corruption("checkpoint image: trailing state bytes");
    }
    return Status::OK();
  }

  Result<const Fragment*> MutateFragment(Decoder& dec,
                                         bool check_monotonicity) override {
    if (!core_.has_value()) {
      return Status::FailedPrecondition(
          "mutation before a successful load");
    }
    MutationBatch batch;
    GRAPE_RETURN_NOT_OK(MutationBatch::DecodeFrom(dec, &batch));
    if (!dec.AtEnd()) {
      return Status::Corruption("mutation frame: trailing bytes after batch");
    }
    const Fragment& old = resident_ ? *resident_ : frag_;
    auto patched = FragmentBuilder::MutateFragment(old, batch);
    if (!patched.ok()) return patched.status();
    auto owned = std::make_shared<Fragment>(std::move(patched).value());
    if (owned->num_inner() != old.num_inner()) {
      return Status::Internal(
          "edge mutation changed the inner vertex set (ownership is fixed)");
    }
    // The warm state: converged inner values survive the patch by lid
    // (the inner order — ascending gid among owned vertices — is a
    // function of ownership alone, which mutations never change).
    const std::vector<Value>& vals = core_->store().values();
    std::vector<Value> warm(vals.begin(), vals.begin() + old.num_inner());
    mut_frag_ = owned;
    core_.emplace(*mut_frag_, App{});
    MaybeEnableParallel();
    core_->Reset(check_monotonicity);
    ParamStore<Value>& store = core_->store();
    for (LocalId i = 0; i < old.num_inner(); ++i) {
      store.UntrackedRef(i) = std::move(warm[i]);
    }
    return static_cast<const Fragment*>(mut_frag_.get());
  }

  Status ApplyMutMirror(FragmentId from,
                        const std::vector<MirrorLidEntry>& answers) override {
    if (mut_frag_ == nullptr) {
      return Status::FailedPrecondition(
          "mutation mirror answers without a patched fragment");
    }
    return FragmentBuilder::ApplyMirrorAnswers(mut_frag_.get(), from, answers);
  }

  Status EncodeWarmValues(const std::vector<MirrorLidEntry>& request,
                          Encoder& enc) override {
    if (!core_.has_value() || mut_frag_ == nullptr) {
      return Status::FailedPrecondition(
          "warm-value request without a patched fragment");
    }
    const Fragment& frag = *mut_frag_;
    const ParamStore<Value>& store = core_->store();
    std::vector<uint32_t> lids;
    std::vector<Value> values;
    lids.reserve(request.size());
    values.reserve(request.size());
    for (const MirrorLidEntry& e : request) {
      const LocalId here = frag.Lid(e.gid);
      if (here == kInvalidLocal || here >= frag.num_inner()) {
        return Status::InvalidArgument(
            "warm-value request for gid " + std::to_string(e.gid) +
            " not owned by fragment " + std::to_string(frag.fid()));
      }
      lids.push_back(e.lid);  // addressed in the REQUESTER's lid space
      values.push_back(store.Get(here));
    }
    EncodeOwnedRecords(enc, lids, values);
    return Status::OK();
  }

  Status AbsorbWarmValues(Decoder& dec) override {
    if (!core_.has_value()) {
      return Status::FailedPrecondition(
          "warm values before a successful load");
    }
    std::vector<uint32_t> lids;
    std::vector<Value> values;
    GRAPE_RETURN_NOT_OK(DecodeRecordBlock(dec, &lids, &values));
    ParamStore<Value>& store = core_->store();
    for (size_t k = 0; k < lids.size(); ++k) {
      if (lids[k] >= static_cast<uint32_t>(store.size())) {
        return Status::Corruption(
            "warm value addresses lid " + std::to_string(lids[k]) +
            " outside the patched fragment");
      }
      store.UntrackedRef(lids[k]) = std::move(values[k]);
    }
    return Status::OK();
  }

  Status FinishMutation(WkBuildAck* shape) override {
    if (mut_frag_ == nullptr || !core_.has_value()) {
      return Status::FailedPrecondition(
          "mutation finish without a patched fragment");
    }
    GRAPE_RETURN_NOT_OK(FragmentBuilder::CheckMirrorsResolved(*mut_frag_));
    // Inner values are the previous fixpoint, outer values the owners'
    // replies: the store now matches what a local warm start holds, and
    // that — not InitValue — is the monotonicity floor the incremental
    // rounds descend from.
    core_->SyncMonotonicityBaseline();
    shape->token = token_;
    shape->num_inner = mut_frag_->num_inner();
    shape->num_local = mut_frag_->num_local();
    shape->num_arcs = mut_frag_->num_edges();
    std::shared_ptr<const Fragment> frozen = std::move(mut_frag_);
    mut_frag_.reset();
    resident_ = frozen;
    // Loads that carried a token (resident attach or ship-and-stash)
    // re-deposit under the SAME key: every other engine attached to this
    // world sees the mutated graph on its next load, without a new epoch.
    if (token_ != 0) {
      ResidentFragmentStore::Global().Put(token_, rank_, std::move(frozen));
    }
    return Status::OK();
  }

  Status SeedTouched(const std::vector<VertexId>& gids) override {
    if (!core_.has_value()) {
      return Status::FailedPrecondition(
          "warm IncEval start before a successful load");
    }
    const Fragment& frag = resident_ ? *resident_ : frag_;
    std::vector<LocalId> lids;
    lids.reserve(gids.size());
    for (VertexId gid : gids) {
      const LocalId lid = frag.Lid(gid);
      if (lid != kInvalidLocal) lids.push_back(lid);
    }
    core_->SeedUpdated(lids);
    return Status::OK();
  }

 private:
  void MaybeEnableParallel() {
    if (compute_threads_ > 1) {
      core_->EnableParallel(pool_.get(), compute_threads_);
    }
  }

  Status FlushInto(BufferPool& pool, WorkerPhaseOutput* out) {
    // updated_count is read after IncEval so the ablation's expansion of
    // M_i is visible, exactly like the engine's local RecordRound.
    out->updated_count = core_->updated().size();
    core_->Flush(pool, &out->sends);
    out->dirty = core_->flush_dirty();
    out->mono_violations = core_->monotonicity_violations();
    out->global = core_->GlobalValue();
    for (const WorkerSend& s : out->sends) {
      out->direct_updates += s.direct_updates;
    }
    return Status::OK();
  }

  Query query_{};
  Fragment frag_;
  /// Set instead of frag_ for resident loads; shared with the store so the
  /// core's fragment outlives later builds.
  std::shared_ptr<const Fragment> resident_;
  /// In-flight mutation patch: mutable until FinishMutation freezes it
  /// into resident_. The core already points at it (routing-plan patches
  /// from ApplyMutMirror are visible in place).
  std::shared_ptr<Fragment> mut_frag_;
  /// Transport rank and resident-store token of the current load (token 0
  /// for plain fragment ships) — FinishMutation re-deposits under them.
  uint32_t rank_ = 0;
  uint64_t token_ = 0;
  std::optional<WorkerCore<App>> core_;
  /// Frontier-parallel execution (kWkLoadComputeThreads): this endpoint's
  /// own lane pool, created on first demand and reused across reloads.
  uint32_t compute_threads_ = 0;
  std::unique_ptr<ThreadPool> pool_;
};

/// Process-wide registry of remotely instantiable PIE programs: the
/// "plug" panel an endpoint process consults when a kTagWkLoad frame
/// names an app. Populated by RegisterBuiltinWorkerApps()
/// (apps/register_apps.h) and by the engine for its own app type.
/// IMPORTANT: multi-process backends fork their endpoints at transport
/// Create time, and a fork snapshots this registry — register before
/// building the transport in any process that should host remote workers.
class WorkerAppRegistry {
 public:
  using Factory = std::function<std::unique_ptr<WorkerAppServerBase>()>;

  static WorkerAppRegistry& Global();

  void Register(const std::string& name, Factory factory);
  bool Has(const std::string& name) const;
  Result<Factory> Get(const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;
};

/// Registers App under `name` (idempotent overwrite).
template <typename App>
  requires RemoteCompatibleApp<App>
void RegisterRemoteWorker(const std::string& name) {
  WorkerAppRegistry::Global().Register(
      name, [] { return std::make_unique<WorkerServer<App>>(); });
}

/// The generic worker-protocol state machine for one rank: feed it every
/// worker-tagged frame addressed to the rank, it emits reply frames
/// through `emit`. Deliberately non-blocking — a frame either completes a
/// step or is buffered against the explicit per-sender delivery
/// expectations of the next kTagWkRunIncEval — so the same host runs
/// single-threaded inside a socket child's relay loop, a tcp endpoint's
/// poll loop, or an in-process worker thread.
///
/// Protocol violations (unknown app, corrupt frame, command out of order
/// — e.g. a duplicated control frame injected by a flaky substrate) are
/// answered with kTagWkError and do not kill the host; only emit failures
/// (the world is gone) return non-OK.
class RemoteWorkerHost {
 public:
  /// Ships one outbound frame (from = this rank). Must not reenter the
  /// host except through frame delivery (see endpoint relay loops).
  using Emit = std::function<Status(uint32_t to, uint32_t tag,
                                    std::vector<uint8_t> payload)>;

  /// `pool` recycles encode buffers; pass the transport's pool when the
  /// host shares a process with it, nullptr for an owned pool.
  RemoteWorkerHost(uint32_t rank, Emit emit, BufferPool* pool = nullptr);

  RemoteWorkerHost(const RemoteWorkerHost&) = delete;
  RemoteWorkerHost& operator=(const RemoteWorkerHost&) = delete;

  /// Handles one worker-protocol frame. Returns non-OK only when the
  /// host cannot continue (emit failed); the endpoint should then tear
  /// down, mirroring any other dead-peer situation.
  Status OnFrame(uint32_t from, uint32_t tag, std::vector<uint8_t> payload);

  bool shut_down() const { return shut_down_; }

 private:
  Status HandleLoad(const std::vector<uint8_t>& payload);
  /// kTagWkQuery: re-seed the loaded server for a session's next query.
  Status HandleQuery(const std::vector<uint8_t>& payload);
  Status MaybeRunIncEval();
  Status RunPhase(uint8_t phase, uint32_t round, bool incremental);
  // Fault tolerance (rt/checkpoint.h).
  Status HandleCheckpointCmd(const std::vector<uint8_t>& payload);
  /// Snapshots once this barrier's direct-frame expectations are all
  /// buffered — without consuming them, so the image captures the exact
  /// message frontier and execution continues unchanged afterwards.
  Status MaybeCheckpoint();
  Status HandleRestore(const std::vector<uint8_t>& payload);
  /// Drops everything buffered or armed for the current run — pending
  /// frames, armed commands, the base checksum, an unfinished mutation —
  /// but not the server itself.
  void DropRunState();
  /// Reports a worker-side failure to the engine (code + message).
  Status EmitError(const Status& error);
  Status EmitAck(const WorkerAck& ack);

  // Distributed build steps (kTagWkShard .. kTagWkBuildAck).
  Status HandleShard(const std::vector<uint8_t>& payload);
  Status HandleBuildCmd(const std::vector<uint8_t>& payload);
  Status HandleExchange(const std::vector<uint8_t>& payload);
  Status HandleMirror(uint32_t from, std::vector<uint8_t> payload);
  /// Assembles the fragment once the build command arrived and every
  /// peer's final exchange chunk is in; sends mirror answers.
  Status MaybeAssemble();
  Status ApplyMirrorFrame(uint32_t from, const std::vector<uint8_t>& payload);
  /// Deposits the fragment and acks once every peer answered.
  Status MaybeFinishBuild();

  // Streaming mutation steps (kTagWkMutate .. kTagWkIncStart): patch the
  // fragment, then the peer-to-peer mirror-placement + warm-value exchange.
  Status HandleMutate(const std::vector<uint8_t>& payload);
  Status HandleMutMirror(uint32_t from, std::vector<uint8_t> payload);
  Status HandleMutVals(uint32_t from, std::vector<uint8_t> payload);
  /// Applies one peer's new mirror placements and answers it with the
  /// warm values for the outer copies it declared.
  Status ApplyMutMirrorFrame(uint32_t from,
                             const std::vector<uint8_t>& payload);
  Status ApplyMutValsFrame(const std::vector<uint8_t>& payload);
  /// Freezes the patched fragment and acks the new shape once every
  /// peer's placements were applied AND every owner's values absorbed.
  Status MaybeFinishMutate();
  /// kTagWkIncStart: seed M_i with the touched gids and run the warm
  /// IncEval round 1 (no query frame — the store keeps its warm state).
  Status HandleIncStart(const std::vector<uint8_t>& payload);

  uint32_t rank_;
  Emit emit_;
  BufferPool owned_pool_;
  BufferPool* pool_;

  std::unique_ptr<WorkerAppServerBase> server_;
  bool check_monotonicity_ = false;
  bool shut_down_ = false;

  struct PendingFrame {
    uint32_t from;
    uint32_t tag;
    std::vector<uint8_t> payload;
  };
  std::vector<PendingFrame> pending_;  // arrival order preserved
  bool inc_pending_ = false;
  IncEvalCommand cmd_;
  bool ckpt_pending_ = false;
  WkCheckpointCommand ckpt_cmd_;
  /// Checksum of the checkpoint base this host last wrote or restored from
  /// for the current server; every round image it takes names it. Unset
  /// until the run's first base, and dropped whenever the server or its
  /// fragment changes.
  std::optional<uint64_t> base_checksum_;

  /// One in-flight distributed build. Independent of the compute state
  /// above: a world can build the next graph while a loaded worker idles.
  struct BuildSession {
    uint64_t token = 0;
    WkShardCommand cmd;
    /// Own shard, staged until the build command routes it. Kept apart
    /// from `edges`: exchange chunks from fast peers can land before our
    /// own build command, and must never be re-routed as shard input.
    std::vector<ShardEdge> shard_edges;
    /// Exchange chunks and self-owned edges accumulate here until
    /// assembly.
    std::vector<ShardEdge> edges;
    uint64_t shard_edge_count = 0;
    VertexId total_vertices = 0;
    bool exchanging = false;   // build command processed, shard routed
    uint32_t finals_seen = 0;  // peers whose last exchange chunk arrived
    bool assembled = false;
    uint32_t mirrors_seen = 0;  // peers whose mirror answers were applied
    std::shared_ptr<const std::vector<FragmentId>> owner;
    std::shared_ptr<const std::vector<LocalId>> owner_lid;
    std::shared_ptr<Fragment> fragment;
    /// Mirror frames from peers that assembled before we did.
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> early_mirrors;
  };
  std::optional<BuildSession> build_;

  /// One in-flight streaming mutation. Peers' kTagWkMutMirror /
  /// kTagWkMutVals frames travel on different channels than the
  /// coordinator's kTagWkMutate (FIFO is per channel), so they can arrive
  /// before our own patch — buffered here like BuildSession's
  /// early_mirrors. The engine serializes mutations (one batch in flight
  /// per world), so no token is needed to match frames to the session.
  struct MutSession {
    bool patched = false;
    uint32_t mirrors_seen = 0;
    uint32_t vals_seen = 0;
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> early_mirrors;
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> early_vals;
  };
  std::optional<MutSession> mut_;
};

/// Encodes/decodes the kTagWkError payload.
void EncodeWorkerError(Encoder& enc, const Status& error);
Status DecodeWorkerError(const std::vector<uint8_t>& payload);

/// In-process worker threads for backends without endpoint processes
/// (inproc): rank r's worker is a thread of the engine process speaking
/// the exact same protocol over the transport. RAII: construction spawns
/// (when `enable`), destruction stops and joins.
class InThreadWorkers {
 public:
  InThreadWorkers(Transport* world, uint32_t num_workers, bool enable);
  ~InThreadWorkers();

  InThreadWorkers(const InThreadWorkers&) = delete;
  InThreadWorkers& operator=(const InThreadWorkers&) = delete;

 private:
  void Loop(Transport* world, uint32_t rank);

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace grape

#endif  // GRAPE_RT_REMOTE_WORKER_H_
