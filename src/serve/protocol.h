#ifndef GRAPE_SERVE_PROTOCOL_H_
#define GRAPE_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/codec.h"
#include "util/serializer.h"
#include "util/status.h"

namespace grape {

// Client-facing wire protocol of grape_serve (src/serve/serve.h): the same
// 16-byte FrameHeader envelope the runtime uses everywhere (core/codec.h),
// repurposed for untrusted connections. Field mapping:
//
//   from        client-chosen request id, echoed verbatim on the response so
//               a client can pipeline requests over one connection
//   to          0 (reserved)
//   tag         request/response type below
//   payload_len bounded by ServeOptions::max_client_frame_bytes on the
//               server side — a client declaring more is answered with one
//               kTagSvError frame and disconnected
//
// Requests and responses are strictly paired per connection in FIFO order.
// The serve tags live in their own 0x300 block so a serve frame can never
// be mistaken for a worker-protocol frame (0x101.. in rt/worker_protocol.h)
// in a trace.

/// Liveness probe. Payload: empty. Response: empty.
inline constexpr uint32_t kTagSvPing = 0x301;
/// Single-source shortest paths. Payload: u32 source gid. Response:
/// WritePodVector<double> — dist[gid], kInfDistance when unreachable.
inline constexpr uint32_t kTagSvSssp = 0x302;
/// BFS hop counts. Payload: u32 source gid. Response:
/// WritePodVector<uint32_t> — depth[gid], UINT32_MAX when unreachable.
inline constexpr uint32_t kTagSvBfs = 0x303;
/// Connected-component membership. Payload: empty (the labeling is a
/// property of the graph, which is what lets the server answer from its
/// per-epoch cache). Response: WritePodVector<VertexId> — label[gid].
inline constexpr uint32_t kTagSvCcLabel = 0x304;
/// PageRank with the server's fixed default parameters (fixed so results
/// are cacheable per graph epoch). Payload: empty. Response:
/// WritePodVector<double> — rank[gid].
inline constexpr uint32_t kTagSvPageRank = 0x305;
/// Re-runs the server's loader, bumps the graph epoch, and invalidates
/// every cache. Payload: empty. Response: u64 new epoch.
inline constexpr uint32_t kTagSvReload = 0x306;
/// Streams an edge-mutation batch into the resident graph (graph/mutation.h
/// wire format: varint count, then per-op u8 kind + u32 src + u32 dst +
/// double weight + u32 label). The fragments are patched in place inside
/// the worker endpoints and standing answers are refreshed by bounded
/// incremental evaluation where the monotonicity contract allows (inserts
/// under a min-style order), by full recompute otherwise — never left
/// stale. Response: u64 graph version, (epoch << 32) | seq, where seq
/// counts mutations within the epoch (a reload starts a new epoch and
/// resets seq).
inline constexpr uint32_t kTagSvMutate = 0x307;

/// Success response; payload is the per-request answer documented above.
inline constexpr uint32_t kTagSvOk = 0x381;
/// Failure response; payload decodes with DecodeServeError. Sent with
/// request id 0 when the failure is connection-level (malformed frame)
/// rather than per-request — the connection is closed right after.
inline constexpr uint32_t kTagSvError = 0x382;

inline bool IsServeRequestTag(uint32_t tag) {
  return tag >= kTagSvPing && tag <= kTagSvMutate;
}

/// Default per-frame payload bound for client connections: generous for
/// every legitimate request (the largest is a handful of bytes) while
/// keeping a garbage or hostile length field from reserving real memory.
inline constexpr uint32_t kSvDefaultMaxClientFrameBytes = 1u << 20;

/// kTagSvError payload: status code + message (the worker protocol's error
/// shape, without its "remote worker:" framing).
inline void EncodeServeError(Encoder& enc, const Status& error) {
  enc.WriteI32(static_cast<int32_t>(error.code()));
  enc.WriteString(error.message());
}

inline Status DecodeServeError(const std::vector<uint8_t>& payload) {
  Decoder dec(payload);
  int32_t code = 0;
  std::string message;
  if (!dec.ReadI32(&code).ok() || !dec.ReadString(&message).ok()) {
    return Status::Internal("serve error frame unparseable");
  }
  return Status(static_cast<StatusCode>(code), "serve: " + message);
}

}  // namespace grape

#endif  // GRAPE_SERVE_PROTOCOL_H_
