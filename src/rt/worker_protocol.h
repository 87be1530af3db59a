#ifndef GRAPE_RT_WORKER_PROTOCOL_H_
#define GRAPE_RT_WORKER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/io.h"
#include "graph/types.h"
#include "util/serializer.h"
#include "util/status.h"

namespace grape {

// ---------------------------------------------------------------------------
// The remote-worker protocol: the control plane that moves PEval/IncEval
// execution out of the rank-0 engine process and into the rank's endpoint
// process (socket/tcp backends; the inproc backend hosts the same protocol
// on in-process worker threads). All frames are ordinary transport
// messages — the 16-byte FrameHeader envelope of core/codec.h — so the
// protocol rides every conformant backend unchanged.
//
// Roles and frame flow, for a world of n workers + coordinator rank 0:
//
//   engine (rank 0)                      worker host (rank r = fragment r-1)
//   ───────────────                      ──────────────────────────────────
//   kTagWkLoad {app, flags, query,
//               fragment+routing plan}─▶ instantiate app by name, decode
//                                        fragment, init ParamStore
//                        ◀─ kTagWkAck (phase=load)
//   kTagWkRunPEval ────────────────────▶ PEval + flush
//                        ◀─ kTagWkData (param updates for rank 0)
//                        ◀─ kTagWkDirect (owner→mirror refreshes, to peers)
//                        ◀─ kTagWkAck (phase=peval: dirty/global/sent...)
//   (the engine decides termination itself from the acks' globals: the
//    app's ShouldTerminate hook reads only the query, so no frame asks)
//   kTagWkApply {consolidated batch} ──▶ buffered until the matching run
//   kTagWkRunIncEval {round, expect} ──▶ apply buffered batches, IncEval,
//                                        flush (as above)
//                        ◀─ kTagWkData / kTagWkDirect / kTagWkAck
//   kTagWkGetPartial ──────────────────▶ GetPartial
//                        ◀─ kTagWkPartial {encoded partial}
//   kTagWkShutdown ────────────────────▶ worker host retires
//
// Ordering is carried entirely by the transport's FIFO-per-channel
// guarantee: a worker's data frames precede its ack on the (r, 0)
// channel, and the coordinator's apply batch precedes the matching
// RunIncEval on the (0, r) channel. Cross-sender races (a fast worker's
// round-k+1 mirror refresh overtaking a slow worker's round-k one) are
// closed by explicit per-sender expectations inside kTagWkRunIncEval.
//
// Accounting: the golden matrices require remote compute to report
// bit-identical CommStats to local compute, so control frames are
// invisible to the stats — every tag below except kTagWkApply is skipped
// by CountSend — and worker-originated data frames (kTagWkData /
// kTagWkDirect, which never pass through a rank-0 Send on multi-process
// backends) are counted by the engine from the per-phase ack's
// sent_messages/sent_bytes instead. kTagWkApply is the one remote frame
// that replaces a counted local frame (the coordinator's consolidated
// batch), so it stays counted at Send like its local twin.
// ---------------------------------------------------------------------------

enum WorkerProtocolTag : uint32_t {
  // engine -> worker (consumed inside the endpoint, never relayed up).
  kTagWkLoad = 0x101,
  kTagWkRunPEval = 0x102,
  kTagWkRunIncEval = 0x103,
  kTagWkGetPartial = 0x104,
  kTagWkShutdown = 0x105,
  // 0x106 retired: the CheckTerm request, from when worker rank 1 voted
  // on termination. Never reuse it; a worker rejects it as unknown.
  // engine -> worker, the coordinator's consolidated parameter batch.
  // Stats-counted: it replaces the kTagParamUpdate frame of local mode.
  kTagWkApply = 0x107,
  // worker -> engine / worker -> worker.
  kTagWkAck = 0x108,      // phase completion + per-phase counters
  kTagWkData = 0x109,     // owner-bound updates for the coordinator
  kTagWkDirect = 0x10a,   // owner-to-mirror refresh, worker to worker
  // 0x10b retired: the termination vote (see 0x106).
  kTagWkPartial = 0x10c,  // encoded partial answer
  kTagWkError = 0x10d,    // worker-side failure, payload = message

  // Distributed graph build (rt/distributed_load.h): rank 0 orchestrates,
  // each worker reads its byte-range shard of the edge-list file, streams
  // every edge to the owners of its endpoints, assembles its own fragment,
  // and exchanges mirror placements peer-to-peer. Rank 0 only ever sees
  // shard metadata and shape acks — never edges or fragments.
  kTagWkShard = 0x10e,     // 0 -> r: build session start + shard descriptor
  kTagWkShardAck = 0x10f,  // r -> 0: shard scanned (max gid, edge count)
  kTagWkBuild = 0x110,     // 0 -> r: global vertex count; begin exchange
  kTagWkExchange = 0x111,  // r -> s: owned-edge records (+ final marker)
  kTagWkMirror = 0x112,    // r -> s: mirror placement answers, one frame
  kTagWkBuildAck = 0x113,  // r -> 0: fragment resident (token + shape)

  // Fault tolerance (rt/checkpoint.h, rt/liveness.h): all control frames,
  // invisible to CommStats like the rest of the protocol, and only ever
  // emitted when a CheckpointPolicy is enabled — with the policy off the
  // wire traffic is byte-identical to a build without these tags.
  kTagWkCheckpoint = 0x114,     // 0 -> r: snapshot order at a barrier
  kTagWkCheckpointAck = 0x115,  // r -> 0: encoded blobs (or disk receipt)
  kTagWkRestore = 0x116,        // 0 -> r: rebuild state from base + image
  kTagWkPing = 0x117,           // 0 -> r: liveness probe
  kTagWkPong = 0x118,           // r -> 0: probe reply (payload echoed)

  // Query sessions (core/engine.h SessionRun, the serving layer's hot
  // path): a loaded worker is handed the NEXT query without re-shipping
  // the app name or fragment — the server re-seeds its parameter store
  // from the already-resident fragment. Acked with phase=load, exactly
  // like the full load it replaces. Control frame, invisible to
  // CommStats like every other tag here.
  kTagWkQuery = 0x119,  // 0 -> r: payload = encoded query only

  // Streaming mutations (the incremental serving path): the engine ships
  // an edge-mutation batch into a live session; each worker patches a
  // copy of its fragment (only the rows the batch touches), re-runs the
  // mirror-placement exchange peer-to-peer (same halves as the build
  // protocol), and pulls warm parameter values for its new outer set from
  // the owners — so a following kTagWkIncStart runs IncEval against
  // exactly the state a local warm start would hold. All control frames,
  // invisible to CommStats.
  kTagWkMutate = 0x11a,     // 0 -> r: encoded MutationBatch
  kTagWkMutMirror = 0x11b,  // r -> s: patched mirror placements (one each)
  kTagWkMutVals = 0x11c,    // s -> r: warm values for r's outer copies
  kTagWkMutateAck = 0x11d,  // r -> 0: WkBuildAck (new shape under token)
  // 0 -> r: warm-start IncEval round 1 seeded with the batch's touched
  // vertices (payload: pod vector of gids). Re-answers the session's last
  // query — it deliberately does NOT reset the parameter store the way
  // kTagWkQuery does.
  kTagWkIncStart = 0x11e,

  kTagWkEnd_,  // exclusive upper bound
};

/// True for every frame of the worker protocol. Endpoint processes divert
/// these to their in-process worker host once one is active; transports
/// exclude them from the Flush sent/delivered accounting (they terminate
/// inside an endpoint or originate there, so the barrier would otherwise
/// count frames that can never balance).
inline bool IsWorkerTag(uint32_t tag) {
  return tag >= kTagWkLoad && tag < kTagWkEnd_;
}

/// Worker-protocol frames the CommStats counters must still see: only the
/// coordinator's consolidated apply batch, whose local-mode twin is a
/// counted Send. Everything else in the protocol is either control (no
/// local-mode equivalent) or counted via ack-reported totals.
inline bool IsStatsCountedWorkerTag(uint32_t tag) {
  return tag == kTagWkApply;
}

/// Phase discriminator inside kTagWkAck.
inline constexpr uint8_t kWkPhaseLoad = 1;
inline constexpr uint8_t kWkPhasePEval = 2;
inline constexpr uint8_t kWkPhaseIncEval = 3;
/// Ack for kTagWkRestore: the worker rebuilt its fragment from a checkpoint
/// base, query + core state from a round image taken over that base, and
/// re-buffered the image's pending frames.
inline constexpr uint8_t kWkPhaseRestore = 4;
/// Ack for kTagWkMutate (travels as a WkBuildAck, not a WorkerAck — the
/// coordinator needs the rebuilt shape, not phase counters).
inline constexpr uint8_t kWkPhaseMutate = 5;

/// Flag bits inside kTagWkLoad.
inline constexpr uint8_t kWkLoadCheckMonotonicity = 1u << 0;
/// The load frame carries a resident-fragment token (u64) instead of a
/// serialized fragment: the worker attaches to the fragment a distributed
/// build (kTagWkShard..kTagWkBuildAck) left in its process-local store.
inline constexpr uint8_t kWkLoadUseResident = 1u << 1;
/// A u32 compute-thread count follows the flags byte: the worker runs
/// frontier-parallel phases with that many lanes (core/parallel.h).
/// Gated on the flag so sequential runs' frames stay byte-identical to
/// what they always were. Also used inside WkRestoreCommand::flags.
inline constexpr uint8_t kWkLoadComputeThreads = 1u << 2;
/// The load frame carries BOTH a token (u64) and a serialized fragment:
/// the worker decodes the fragment, deposits it in its process-local
/// ResidentFragmentStore under the token, and loads from the deposited
/// copy. This is how a coordinator-loaded serving session makes its
/// fragments resident, so every later session on the same world (another
/// query class, a post-switch reload) attaches by token instead of
/// re-shipping the graph. Mutually exclusive with kWkLoadUseResident.
inline constexpr uint8_t kWkLoadStashResident = 1u << 3;

/// Vertex-ownership policies a distributed build can apply locally.
inline constexpr uint8_t kWkPartitionHash = 0;      // SplitMix64(gid) % n
inline constexpr uint8_t kWkPartitionExplicit = 1;  // shipped assignment

/// One phase-completion report. Every counter the local engine derives by
/// looking at its in-process worker state travels here instead: dirty
/// parameters at the last flush, the app's GlobalValue, |M_i| after
/// message application, and the exact message/byte totals of the flush
/// (payload + the 16-byte envelope per frame — the same formula CommStats
/// charges), so the engine reproduces local-mode metrics bit for bit.
struct WorkerAck {
  uint8_t phase = 0;
  uint32_t round = 0;
  uint64_t dirty = 0;             // changed+remote parameters at the flush
  uint64_t direct_updates = 0;    // records shipped worker-to-worker
  uint64_t updated_count = 0;     // |M_i| handed to IncEval this round
  uint64_t mono_violations = 0;   // monotonicity-check hits so far
  uint64_t sent_messages = 0;     // data frames emitted by this flush
  uint64_t sent_bytes = 0;        // payload + 16-byte envelope each
  double global = 0.0;            // the app's GlobalValue() after the phase
  uint64_t worker_pid = 0;        // getpid() of the executing process
  /// Direct (worker-to-worker) frames emitted this flush, per destination
  /// rank — the engine aggregates these into the next round's per-sender
  /// delivery expectations.
  std::vector<std::pair<uint32_t, uint32_t>> direct_frames;

  void EncodeTo(Encoder& enc) const {
    enc.WriteU8(phase);
    enc.WriteU32(round);
    enc.WriteU64(dirty);
    enc.WriteU64(direct_updates);
    enc.WriteU64(updated_count);
    enc.WriteU64(mono_violations);
    enc.WriteU64(sent_messages);
    enc.WriteU64(sent_bytes);
    enc.WriteDouble(global);
    enc.WriteU64(worker_pid);
    enc.WriteVarint(direct_frames.size());
    for (const auto& [rank, frames] : direct_frames) {
      enc.WriteU32(rank);
      enc.WriteU32(frames);
    }
  }

  static Status DecodeFrom(Decoder& dec, WorkerAck* out) {
    GRAPE_RETURN_NOT_OK(dec.ReadU8(&out->phase));
    GRAPE_RETURN_NOT_OK(dec.ReadU32(&out->round));
    GRAPE_RETURN_NOT_OK(dec.ReadU64(&out->dirty));
    GRAPE_RETURN_NOT_OK(dec.ReadU64(&out->direct_updates));
    GRAPE_RETURN_NOT_OK(dec.ReadU64(&out->updated_count));
    GRAPE_RETURN_NOT_OK(dec.ReadU64(&out->mono_violations));
    GRAPE_RETURN_NOT_OK(dec.ReadU64(&out->sent_messages));
    GRAPE_RETURN_NOT_OK(dec.ReadU64(&out->sent_bytes));
    GRAPE_RETURN_NOT_OK(dec.ReadDouble(&out->global));
    GRAPE_RETURN_NOT_OK(dec.ReadU64(&out->worker_pid));
    uint64_t n = 0;
    GRAPE_RETURN_NOT_OK(dec.ReadVarint(&n));
    if (n > dec.Remaining() / 8) {
      return Status::Corruption("worker ack direct-frame list overruns");
    }
    out->direct_frames.clear();
    out->direct_frames.reserve(n);
    for (uint64_t k = 0; k < n; ++k) {
      uint32_t rank = 0, frames = 0;
      GRAPE_RETURN_NOT_OK(dec.ReadU32(&rank));
      GRAPE_RETURN_NOT_OK(dec.ReadU32(&frames));
      out->direct_frames.emplace_back(rank, frames);
    }
    return Status::OK();
  }
};

/// kTagWkShard payload: everything a worker needs to read its slice of the
/// input and know the ownership policy. For the explicit policy the full
/// assignment rides along (total vertices are implied by its size); for
/// hash the worker derives ownership from the vertex count announced later
/// in kTagWkBuild.
struct WkShardCommand {
  uint64_t token = 0;
  std::string path;
  uint64_t offset = 0;
  uint64_t length = 0;
  EdgeListFormat format;
  uint32_t num_fragments = 0;
  uint8_t policy = kWkPartitionHash;
  std::vector<FragmentId> assignment;  // kWkPartitionExplicit only

  void EncodeTo(Encoder& enc) const {
    enc.WriteU64(token);
    enc.WriteString(path);
    enc.WriteU64(offset);
    enc.WriteU64(length);
    enc.WriteBool(format.directed);
    enc.WriteBool(format.has_weight);
    enc.WriteBool(format.has_label);
    enc.WriteU8(static_cast<uint8_t>(format.comment_char));
    enc.WriteU32(num_fragments);
    enc.WriteU8(policy);
    if (policy == kWkPartitionExplicit) enc.WritePodVector(assignment);
  }

  static Status DecodeFrom(Decoder& dec, WkShardCommand* out) {
    GRAPE_RETURN_NOT_OK(dec.ReadU64(&out->token));
    GRAPE_RETURN_NOT_OK(dec.ReadString(&out->path));
    GRAPE_RETURN_NOT_OK(dec.ReadU64(&out->offset));
    GRAPE_RETURN_NOT_OK(dec.ReadU64(&out->length));
    GRAPE_RETURN_NOT_OK(dec.ReadBool(&out->format.directed));
    GRAPE_RETURN_NOT_OK(dec.ReadBool(&out->format.has_weight));
    GRAPE_RETURN_NOT_OK(dec.ReadBool(&out->format.has_label));
    uint8_t comment = 0;
    GRAPE_RETURN_NOT_OK(dec.ReadU8(&comment));
    out->format.comment_char = static_cast<char>(comment);
    GRAPE_RETURN_NOT_OK(dec.ReadU32(&out->num_fragments));
    GRAPE_RETURN_NOT_OK(dec.ReadU8(&out->policy));
    out->assignment.clear();
    if (out->policy == kWkPartitionExplicit) {
      GRAPE_RETURN_NOT_OK(dec.ReadPodVector(&out->assignment));
    }
    return Status::OK();
  }
};

/// kTagWkShardAck payload: the shard scan summary rank 0 folds into the
/// global vertex count. No edge ever travels to rank 0.
struct WkShardAck {
  uint64_t token = 0;
  VertexId max_vertex_plus1 = 0;
  uint64_t num_edges = 0;

  void EncodeTo(Encoder& enc) const {
    enc.WriteU64(token);
    enc.WriteU32(max_vertex_plus1);
    enc.WriteU64(num_edges);
  }

  static Status DecodeFrom(Decoder& dec, WkShardAck* out) {
    GRAPE_RETURN_NOT_OK(dec.ReadU64(&out->token));
    GRAPE_RETURN_NOT_OK(dec.ReadU32(&out->max_vertex_plus1));
    return dec.ReadU64(&out->num_edges);
  }
};

/// kTagWkBuildAck payload: the assembled fragment's shape, so the engine
/// can size its routing batches without ever holding the fragment.
struct WkBuildAck {
  uint64_t token = 0;
  LocalId num_inner = 0;
  LocalId num_local = 0;
  uint64_t num_arcs = 0;

  void EncodeTo(Encoder& enc) const {
    enc.WriteU64(token);
    enc.WriteU32(num_inner);
    enc.WriteU32(num_local);
    enc.WriteU64(num_arcs);
  }

  static Status DecodeFrom(Decoder& dec, WkBuildAck* out) {
    GRAPE_RETURN_NOT_OK(dec.ReadU64(&out->token));
    GRAPE_RETURN_NOT_OK(dec.ReadU32(&out->num_inner));
    GRAPE_RETURN_NOT_OK(dec.ReadU32(&out->num_local));
    return dec.ReadU64(&out->num_arcs);
  }
};

/// Encodes a kTagWkExchange chunk: shard edges as parallel pod spans (the
/// ShardEdge struct has padding, so it never ships raw). `final` marks the
/// sender's last chunk to this destination; every worker sends at least one
/// final chunk to every peer, which is the receiver's delivery barrier.
inline void EncodeExchangeChunk(Encoder& enc, uint64_t token, bool final,
                                const ShardEdge* edges, size_t n) {
  enc.WriteU64(token);
  enc.WriteBool(final);
  enc.WriteVarint(n);
  for (size_t i = 0; i < n; ++i) enc.WriteU64(edges[i].key);
  for (size_t i = 0; i < n; ++i) enc.WriteU32(edges[i].edge.src);
  for (size_t i = 0; i < n; ++i) enc.WriteU32(edges[i].edge.dst);
  for (size_t i = 0; i < n; ++i) enc.WriteDouble(edges[i].edge.weight);
  for (size_t i = 0; i < n; ++i) enc.WriteU32(edges[i].edge.label);
}

/// Decodes a kTagWkExchange chunk, appending to `out`.
inline Status DecodeExchangeChunk(Decoder& dec, uint64_t* token, bool* final,
                                  std::vector<ShardEdge>* out) {
  GRAPE_RETURN_NOT_OK(dec.ReadU64(token));
  GRAPE_RETURN_NOT_OK(dec.ReadBool(final));
  uint64_t n = 0;
  GRAPE_RETURN_NOT_OK(dec.ReadVarint(&n));
  constexpr size_t kWireBytes = sizeof(uint64_t) + 2 * sizeof(VertexId) +
                                sizeof(EdgeWeight) + sizeof(Label);
  if (n > dec.Remaining() / kWireBytes) {
    return Status::Corruption("exchange chunk overruns its payload");
  }
  const size_t base = out->size();
  out->resize(base + n);
  for (size_t i = 0; i < n; ++i) {
    GRAPE_RETURN_NOT_OK(dec.ReadU64(&(*out)[base + i].key));
  }
  for (size_t i = 0; i < n; ++i) {
    GRAPE_RETURN_NOT_OK(dec.ReadU32(&(*out)[base + i].edge.src));
  }
  for (size_t i = 0; i < n; ++i) {
    GRAPE_RETURN_NOT_OK(dec.ReadU32(&(*out)[base + i].edge.dst));
  }
  for (size_t i = 0; i < n; ++i) {
    GRAPE_RETURN_NOT_OK(dec.ReadDouble(&(*out)[base + i].edge.weight));
  }
  for (size_t i = 0; i < n; ++i) {
    GRAPE_RETURN_NOT_OK(dec.ReadU32(&(*out)[base + i].edge.label));
  }
  return Status::OK();
}

/// The engine's per-round IncEval order. `apply_frames` tells the worker
/// how many coordinator batches (kTagWkApply) belong to this round, and
/// `expect_direct` how many kTagWkDirect frames to await from each peer
/// rank before applying and evaluating — the explicit BSP delivery
/// barrier that replaces local mode's transport Flush.
struct IncEvalCommand {
  uint32_t round = 0;
  bool incremental = true;
  uint32_t apply_frames = 0;
  std::vector<std::pair<uint32_t, uint32_t>> expect_direct;  // (from, frames)

  void EncodeTo(Encoder& enc) const {
    enc.WriteU32(round);
    enc.WriteBool(incremental);
    enc.WriteU32(apply_frames);
    enc.WriteVarint(expect_direct.size());
    for (const auto& [rank, frames] : expect_direct) {
      enc.WriteU32(rank);
      enc.WriteU32(frames);
    }
  }

  static Status DecodeFrom(Decoder& dec, IncEvalCommand* out) {
    GRAPE_RETURN_NOT_OK(dec.ReadU32(&out->round));
    GRAPE_RETURN_NOT_OK(dec.ReadBool(&out->incremental));
    GRAPE_RETURN_NOT_OK(dec.ReadU32(&out->apply_frames));
    uint64_t n = 0;
    GRAPE_RETURN_NOT_OK(dec.ReadVarint(&n));
    if (n > dec.Remaining() / 8) {
      return Status::Corruption("inceval command expectation list overruns");
    }
    out->expect_direct.clear();
    out->expect_direct.reserve(n);
    for (uint64_t k = 0; k < n; ++k) {
      uint32_t rank = 0, frames = 0;
      GRAPE_RETURN_NOT_OK(dec.ReadU32(&rank));
      GRAPE_RETURN_NOT_OK(dec.ReadU32(&frames));
      out->expect_direct.emplace_back(rank, frames);
    }
    return Status::OK();
  }
};

/// kTagWkCheckpoint payload: the engine's snapshot order at a superstep
/// barrier. Like IncEvalCommand, `expect_direct` is the per-sender delivery
/// barrier — the worker must hold the next round's direct frames in its
/// buffer *before* snapshotting (without consuming them), so the image
/// captures the exact message frontier a recovered run will replay.
struct WkCheckpointCommand {
  uint32_t round = 0;
  /// Also write the checkpoint base (the fragment, rt/checkpoint.h): set
  /// while the coordinator has no complete snapshot, so once per run — or
  /// again after a torn first barrier. Every later round image names the
  /// base the worker wrote or restored last.
  bool with_base = false;
  /// Empty: ship the encoded blobs back inside the ack (in-memory store at
  /// rank 0). Non-empty: write them to `<dir>/grape_ckpt_r<rank>_s<round>.bin`
  /// (and `<dir>/grape_ckpt_r<rank>_base.bin`) on the worker's local disk
  /// and ack with a byte-count receipt only.
  std::string dir;
  std::vector<std::pair<uint32_t, uint32_t>> expect_direct;  // (from, frames)

  void EncodeTo(Encoder& enc) const {
    enc.WriteU32(round);
    enc.WriteBool(with_base);
    enc.WriteString(dir);
    enc.WriteVarint(expect_direct.size());
    for (const auto& [rank, frames] : expect_direct) {
      enc.WriteU32(rank);
      enc.WriteU32(frames);
    }
  }

  static Status DecodeFrom(Decoder& dec, WkCheckpointCommand* out) {
    GRAPE_RETURN_NOT_OK(dec.ReadU32(&out->round));
    GRAPE_RETURN_NOT_OK(dec.ReadBool(&out->with_base));
    GRAPE_RETURN_NOT_OK(dec.ReadString(&out->dir));
    uint64_t n = 0;
    GRAPE_RETURN_NOT_OK(dec.ReadVarint(&n));
    if (n > dec.Remaining() / 8) {
      return Status::Corruption("checkpoint command expectation overruns");
    }
    out->expect_direct.clear();
    out->expect_direct.reserve(n);
    for (uint64_t k = 0; k < n; ++k) {
      uint32_t rank = 0, frames = 0;
      GRAPE_RETURN_NOT_OK(dec.ReadU32(&rank));
      GRAPE_RETURN_NOT_OK(dec.ReadU32(&frames));
      out->expect_direct.emplace_back(rank, frames);
    }
    return Status::OK();
  }
};

/// Reads a varint length and that many bytes into `out`.
inline Status ReadBlob(Decoder& dec, std::vector<uint8_t>* out,
                       const char* what) {
  uint64_t n = 0;
  GRAPE_RETURN_NOT_OK(dec.ReadVarint(&n));
  if (n > dec.Remaining()) {
    return Status::Corruption(std::string(what) + " overruns");
  }
  out->resize(n);
  return dec.ReadPodSpan(out->data(), n);
}

inline void WriteBlob(Encoder& enc, const std::vector<uint8_t>& blob) {
  enc.WriteVarint(blob.size());
  enc.WritePodSpan(blob.data(), blob.size());
}

/// kTagWkCheckpointAck payload. In-memory mode ships the encoded round
/// image, plus the encoded base when the command asked for one; `bytes`
/// is then exactly their total. Disk mode ships neither, and `bytes` is
/// the byte count written, as a durable-write receipt.
struct WkCheckpointAck {
  uint32_t round = 0;
  uint64_t bytes = 0;
  std::vector<uint8_t> image;  // encoded CheckpointImage, or empty (disk)
  std::vector<uint8_t> base;   // encoded CheckpointBase, or empty

  void EncodeTo(Encoder& enc) const {
    enc.Reserve(32 + image.size() + base.size());
    enc.WriteU32(round);
    enc.WriteU64(bytes);
    WriteBlob(enc, image);
    WriteBlob(enc, base);
  }

  static Status DecodeFrom(Decoder& dec, WkCheckpointAck* out) {
    GRAPE_RETURN_NOT_OK(dec.ReadU32(&out->round));
    GRAPE_RETURN_NOT_OK(dec.ReadU64(&out->bytes));
    GRAPE_RETURN_NOT_OK(ReadBlob(dec, &out->image, "checkpoint ack image"));
    GRAPE_RETURN_NOT_OK(ReadBlob(dec, &out->base, "checkpoint ack base"));
    const bool inline_blobs = !out->image.empty();
    if ((!inline_blobs && !out->base.empty()) ||
        (inline_blobs &&
         out->bytes != out->image.size() + out->base.size())) {
      return Status::Corruption("checkpoint ack byte count disagrees");
    }
    return Status::OK();
  }
};

/// kTagWkRestore payload: everything a freshly respawned worker host needs
/// to resume mid-run. The base and round image travel inline (in-memory
/// store) or the worker reads both from `dir` (per-worker local disk).
struct WkRestoreCommand {
  std::string app_name;
  uint8_t flags = 0;   // kWkLoadCheckMonotonicity | kWkLoadComputeThreads
  /// Frontier-parallel lane count for the restored worker; travels (gated
  /// on kWkLoadComputeThreads, like the load frame) so a respawned worker
  /// resumes with the same execution mode it crashed with.
  uint32_t compute_threads = 0;
  uint32_t round = 0;  // the barrier to restore — a torn checkpoint can
                       // leave newer images around; the coordinator's
                       // snapshot, not the newest image, picks the round
  std::string dir;     // non-empty: load both blobs from local disk instead
  std::vector<uint8_t> image;  // encoded CheckpointImage when dir is empty
  std::vector<uint8_t> base;   // encoded CheckpointBase when dir is empty

  void EncodeTo(Encoder& enc) const {
    enc.Reserve(64 + app_name.size() + dir.size() + image.size() +
                base.size());
    enc.WriteString(app_name);
    enc.WriteU8(flags);
    if (flags & kWkLoadComputeThreads) enc.WriteU32(compute_threads);
    enc.WriteU32(round);
    enc.WriteString(dir);
    WriteBlob(enc, image);
    WriteBlob(enc, base);
  }

  static Status DecodeFrom(Decoder& dec, WkRestoreCommand* out) {
    GRAPE_RETURN_NOT_OK(dec.ReadString(&out->app_name));
    GRAPE_RETURN_NOT_OK(dec.ReadU8(&out->flags));
    if (out->flags & kWkLoadComputeThreads) {
      GRAPE_RETURN_NOT_OK(dec.ReadU32(&out->compute_threads));
    }
    GRAPE_RETURN_NOT_OK(dec.ReadU32(&out->round));
    GRAPE_RETURN_NOT_OK(dec.ReadString(&out->dir));
    GRAPE_RETURN_NOT_OK(ReadBlob(dec, &out->image, "restore command image"));
    return ReadBlob(dec, &out->base, "restore command base");
  }
};

}  // namespace grape

#endif  // GRAPE_RT_WORKER_PROTOCOL_H_
