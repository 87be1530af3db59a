#include "rt/socket_transport.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "core/codec.h"
#include "rt/fd_registry.h"
#include "rt/net_util.h"
#include "rt/remote_worker.h"
#include "rt/worker_protocol.h"

namespace grape {
namespace {

using net::ReadFullFd;
using net::RelayPayload;
using net::WriteFullFd;
using rt_internal::FdRegistry;
using rt_internal::FdRegistryMutex;
using rt_internal::CloseAndUnregisterFds;

// ---------------------------------------------------------------------------
// Endpoint child. Forked from a (possibly multi-threaded) parent. The
// relay path runs only async-signal-safe code: raw syscalls over memory
// preallocated before fork — no malloc, no stdio, no locks. The one
// exception is remote compute: the first worker-protocol frame
// (kTagWkLoad, sent only when the engine runs with
// EngineOptions::remote_app) lazily constructs a full C++ worker host in
// the child. That relies on glibc's fork handlers leaving malloc usable
// in the child of a multi-threaded parent — the same bet every
// fork-based worker system makes — and local-compute worlds never take
// the branch, so the strict AS-safe guarantee is unchanged for them.
// ---------------------------------------------------------------------------

/// Everything a child needs, sized and allocated before fork.
struct ChildPlan {
  uint32_t rank = 0;
  std::vector<int> in_fds;        // read ends of channels (*, rank)
  std::vector<struct pollfd> pfds;
  std::vector<int> pfd_idx;       // pfds position -> in_fds index
  std::vector<uint8_t> buf;       // payload relay chunks
  std::vector<int> close_fds;     // inherited fds this child must drop
  int uplink = -1;                // write end toward the parent receiver
};

/// Reads exactly `len` payload bytes into a fresh buffer (worker frames
/// are handed to the host whole, unlike relayed frames which stream).
bool ReadWholePayload(int fd, uint32_t len, std::vector<uint8_t>* out) {
  out->resize(len);
  return len == 0 || ReadFullFd(fd, out->data(), len) == 1;
}

/// The endpoint process: relays complete frames from the rank's per-peer
/// channels onto its uplink, preserving per-channel order, until every
/// channel reaches EOF (the parent closed its write ends). Worker-protocol
/// frames are not relayed: they drive this process's RemoteWorkerHost,
/// whose output frames (param updates, acks, partials) go up the uplink
/// tagged with their true destination — the parent receiver routes them.
[[noreturn]] void ChildMain(ChildPlan& plan) {
  for (int fd : plan.close_fds) close(fd);
  std::unique_ptr<RemoteWorkerHost> worker;
  for (;;) {
    nfds_t live = 0;
    for (size_t i = 0; i < plan.in_fds.size(); ++i) {
      if (plan.in_fds[i] < 0) continue;
      plan.pfds[live] = {plan.in_fds[i], POLLIN, 0};
      plan.pfd_idx[live] = static_cast<int>(i);
      ++live;
    }
    if (live == 0) _exit(0);
    int rc = poll(plan.pfds.data(), live, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      _exit(1);
    }
    for (nfds_t j = 0; j < live; ++j) {
      if (plan.pfds[j].revents == 0) continue;
      const int i = plan.pfd_idx[j];
      const int fd = plan.in_fds[i];
      uint8_t header[kFrameHeaderBytes];
      int h = ReadFullFd(fd, header, sizeof(header));
      if (h == 0) {  // clean channel shutdown
        close(fd);
        plan.in_fds[i] = -1;
        continue;
      }
      if (h < 0) _exit(1);
      const uint32_t from = static_cast<uint32_t>(header[0]) |
                            static_cast<uint32_t>(header[1]) << 8 |
                            static_cast<uint32_t>(header[2]) << 16 |
                            static_cast<uint32_t>(header[3]) << 24;
      const uint32_t tag = static_cast<uint32_t>(header[8]) |
                           static_cast<uint32_t>(header[9]) << 8 |
                           static_cast<uint32_t>(header[10]) << 16 |
                           static_cast<uint32_t>(header[11]) << 24;
      const uint32_t len = static_cast<uint32_t>(header[12]) |
                           static_cast<uint32_t>(header[13]) << 8 |
                           static_cast<uint32_t>(header[14]) << 16 |
                           static_cast<uint32_t>(header[15]) << 24;
      if (len > kMaxFramePayloadBytes) _exit(1);
      if (IsWorkerTag(tag) && plan.rank != 0) {
        // Remote compute: this frame is FOR this endpoint, not a relay
        // (rank 0's endpoint fronts the engine and never hosts a worker).
        std::vector<uint8_t> payload;
        if (!ReadWholePayload(fd, len, &payload)) _exit(1);
        if (!worker) {
          const uint32_t rank = plan.rank;
          const int uplink = plan.uplink;
          worker = std::make_unique<RemoteWorkerHost>(
              rank, [rank, uplink](uint32_t to, uint32_t out_tag,
                                   std::vector<uint8_t> out_payload) {
                uint8_t out_header[kFrameHeaderBytes];
                EncodeFrameHeader(
                    FrameHeader{rank, to, out_tag,
                                static_cast<uint32_t>(out_payload.size())},
                    out_header);
                if (!WriteFullFd(uplink, out_header, sizeof(out_header)) ||
                    !WriteFullFd(uplink, out_payload.data(),
                                 out_payload.size())) {
                  return Status::IOError("endpoint uplink write failed");
                }
                return Status::OK();
              });
        }
        if (!worker->OnFrame(from, tag, std::move(payload)).ok()) _exit(1);
        continue;
      }
      if (!WriteFullFd(plan.uplink, header, sizeof(header))) _exit(1);
      if (!RelayPayload(fd, plan.uplink, plan.buf.data(), plan.buf.size(),
                        len)) {
        _exit(1);
      }
    }
  }
}

constexpr size_t kRelayChunkBytes = 64 * 1024;

}  // namespace

SocketTransport::SocketTransport(uint32_t size)
    : MailboxTransport(size) {
  channels_.reserve(static_cast<size_t>(size) * size);
  for (size_t i = 0; i < static_cast<size_t>(size) * size; ++i) {
    channels_.push_back(std::make_unique<Channel>());
  }
  uplink_read_fds_.assign(size, -1);
}

Result<std::unique_ptr<SocketTransport>> SocketTransport::Create(
    uint32_t size) {
  if (size == 0) {
    return Status::InvalidArgument("transport size must be positive");
  }
  std::unique_ptr<SocketTransport> t(new SocketTransport(size));
  GRAPE_RETURN_NOT_OK(t->Init());
  return t;
}

Status SocketTransport::Init() {
  const uint32_t n = size();
  // Held for the whole setup: other transports' registered fds are closed
  // by our children, and our fds are registered before anyone else forks.
  std::lock_guard<std::mutex> registry_lock(FdRegistryMutex());
  std::vector<int> chan_read(static_cast<size_t>(n) * n, -1);
  std::vector<int> chan_write(static_cast<size_t>(n) * n, -1);
  std::vector<int> up_read(n, -1);
  std::vector<int> up_write(n, -1);

  auto cleanup = [&](const std::string& what) {
    for (int fd : chan_read) {
      if (fd >= 0) close(fd);
    }
    for (int fd : chan_write) {
      if (fd >= 0) close(fd);
    }
    for (int fd : up_read) {
      if (fd >= 0) close(fd);
    }
    for (int fd : up_write) {
      if (fd >= 0) close(fd);
    }
    for (pid_t pid : children_) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
    children_.clear();
    return Status::IOError("socket transport setup failed: " + what + ": " +
                           std::strerror(errno));
  };

  for (size_t c = 0; c < chan_read.size(); ++c) {
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      return cleanup("socketpair(channel)");
    }
    chan_read[c] = sv[0];
    chan_write[c] = sv[1];
  }
  for (uint32_t r = 0; r < n; ++r) {
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      return cleanup("socketpair(uplink)");
    }
    up_read[r] = sv[0];
    up_write[r] = sv[1];
  }

  // Everything a child must NOT keep: computed per rank before its fork so
  // the child only closes fds, never allocates.
  std::vector<ChildPlan> plans(n);
  for (uint32_t r = 0; r < n; ++r) {
    ChildPlan& plan = plans[r];
    plan.rank = r;
    plan.in_fds.resize(n);
    plan.pfds.resize(n);
    plan.pfd_idx.resize(n);
    plan.buf.resize(kRelayChunkBytes);
    plan.uplink = up_write[r];
    for (uint32_t s = 0; s < n; ++s) {
      plan.in_fds[s] = chan_read[static_cast<size_t>(s) * n + r];
    }
    plan.close_fds.reserve(chan_read.size() + chan_write.size() + 2 * n +
                           FdRegistry().size());
    for (int fd : FdRegistry()) plan.close_fds.push_back(fd);
    for (size_t c = 0; c < chan_read.size(); ++c) {
      if (c % n != r) plan.close_fds.push_back(chan_read[c]);
      plan.close_fds.push_back(chan_write[c]);
    }
    for (uint32_t u = 0; u < n; ++u) {
      plan.close_fds.push_back(up_read[u]);
      if (u != r) plan.close_fds.push_back(up_write[u]);
    }
  }

  for (uint32_t r = 0; r < n; ++r) {
    pid_t pid = fork();
    if (pid < 0) return cleanup("fork(endpoint)");
    if (pid == 0) ChildMain(plans[r]);  // never returns
    children_.push_back(pid);
  }

  // Parent keeps only the channel write ends and the uplink read ends;
  // register them so later-created transports' children close them too.
  for (size_t c = 0; c < chan_read.size(); ++c) {
    close(chan_read[c]);
    channels_[c]->fd = chan_write[c];
    FdRegistry().insert(chan_write[c]);
  }
  for (uint32_t r = 0; r < n; ++r) {
    close(up_write[r]);
    uplink_read_fds_[r] = up_read[r];
    FdRegistry().insert(up_read[r]);
  }

  receivers_.reserve(n);
  for (uint32_t r = 0; r < n; ++r) {
    receivers_.emplace_back([this, r] { ReceiverLoop(r); });
  }
  forwarder_ = std::thread([this] { ForwarderLoop(); });
  return Status::OK();
}

SocketTransport::~SocketTransport() {
  Close();
  for (std::thread& t : receivers_) {
    if (t.joinable()) t.join();
  }
  if (forwarder_.joinable()) forwarder_.join();
  std::vector<int> closed;
  for (int& fd : uplink_read_fds_) {
    if (fd >= 0) {
      closed.push_back(fd);
      fd = -1;
    }
  }
  CloseAndUnregisterFds(closed);
  ReapChildren();
}

Status SocketTransport::Send(uint32_t from, uint32_t to, uint32_t tag,
                             std::vector<uint8_t> payload) {
  if (from >= size() || to >= size()) {
    return Status::InvalidArgument("rank out of range");
  }
  if (payload.size() > kMaxFramePayloadBytes) {
    return Status::InvalidArgument("payload exceeds the frame bound");
  }
  // broken_ before closed(): a dead endpoint marks the world closed too
  // (to unblock Recv), but the death is the recoverable condition and
  // must win the status race — Unavailable drives the engine's recovery
  // path, Cancelled is terminal.
  if (broken_.load(std::memory_order_acquire)) {
    return Status::Unavailable("socket transport endpoint died");
  }
  if (closed()) return Status::Cancelled("transport closed");

  uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(
      FrameHeader{from, to, tag, static_cast<uint32_t>(payload.size())},
      header);
  Channel& ch = *channels_[static_cast<size_t>(from) * size() + to];
  {
    std::lock_guard<std::mutex> lock(ch.mu);
    if (ch.fd < 0) return Status::Cancelled("transport closed");
    // Count the frame as sent BEFORE it hits the wire: a concurrently
    // delivered frame must never let Flush observe delivered >= sent
    // while a Send that already returned is still in flight. A failed
    // write leaves sent permanently ahead of delivered, which is fine —
    // broken_ short-circuits the Flush predicate. Worker-protocol frames
    // are excluded: they terminate inside the endpoint (or answer from
    // it), so they can never balance the barrier.
    if (!IsWorkerTag(tag)) {
      frames_sent_.fetch_add(1, std::memory_order_acq_rel);
    }
    if (!WriteFullFd(ch.fd, header, sizeof(header)) ||
        !WriteFullFd(ch.fd, payload.data(), payload.size())) {
      broken_.store(true, std::memory_order_release);
      {
        std::lock_guard<std::mutex> flush_lock(flush_mu_);
      }
      flush_cv_.notify_all();  // wake any Flush blocked on this frame
      // A write failure here is EPIPE from a dead peer — the same
      // recoverable condition the receiver loop detects, just caught
      // mid-send before broken_ was observed.
      return Status::Unavailable("socket transport write failed");
    }
  }
  CountSendTagged(tag, payload.size());
  // The frame is on the wire; the payload buffer can cycle immediately.
  buffer_pool().Release(std::move(payload));
  return Status::OK();
}

void SocketTransport::ReceiverLoop(uint32_t rank) {
  const int fd = uplink_read_fds_[rank];
  uint8_t header[kFrameHeaderBytes];
  bool clean = true;
  for (;;) {
    int h = ReadFullFd(fd, header, sizeof(header));
    if (h == 0) {
      // EOF is clean only after Close(): an endpoint never closes its
      // uplink while the world is live, so a premature EOF — even on a
      // frame boundary (e.g. the endpoint was SIGKILLed between frames)
      // — means delivery stopped and Flush must fail, not hang.
      clean = closed();
      break;
    }
    if (h < 0) {
      clean = false;
      break;
    }
    FrameHeader fh;
    if (!DecodeFrameHeader(header, sizeof(header), &fh).ok()) {
      clean = false;
      break;
    }
    const bool to_self = fh.to == rank;
    // Worker-host output leaves the endpoint through its own uplink with
    // the true destination in the header: acks/updates for the engine
    // (to == 0) and direct mirror refreshes for peer workers, which the
    // parent re-injects into the (from, to) channel so the destination
    // endpoint's worker consumes them.
    const bool worker_origin =
        !to_self && IsWorkerTag(fh.tag) && fh.from == rank && fh.to < size();
    if (!to_self && !worker_origin) {
      clean = false;
      break;
    }
    std::vector<uint8_t> payload = buffer_pool().Acquire();
    payload.resize(fh.payload_len);
    if (fh.payload_len > 0 &&
        ReadFullFd(fd, payload.data(), fh.payload_len) != 1) {
      clean = false;
      break;
    }
    if (worker_origin && fh.to != kCoordinatorRank) {
      // Hand off to the forwarder thread: the channel write can block on
      // a full buffer, and a blocked receiver would wedge the world (see
      // ForwardWorkerFrame). Unbounded queue, but bounded in practice by
      // one round's direct traffic.
      {
        std::lock_guard<std::mutex> lock(fwd_mu_);
        fwd_queue_.push_back(ForwardJob{fh, std::move(payload)});
      }
      fwd_cv_.notify_one();
      continue;
    }
    Deliver(RtMessage{fh.from, fh.to, fh.tag, std::move(payload)});
    if (!IsWorkerTag(fh.tag)) {
      // Worker-protocol frames never entered the sent side of the Flush
      // barrier, so they must not advance the delivered side either.
      {
        std::lock_guard<std::mutex> lock(flush_mu_);
        frames_delivered_.fetch_add(1, std::memory_order_acq_rel);
      }
      flush_cv_.notify_all();
    }
  }
  if (!clean) {
    broken_.store(true, std::memory_order_release);
    MarkClosed();  // a broken substrate must not leave Recv blocked
  }
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
  }
  flush_cv_.notify_all();
}

bool SocketTransport::ForwardWorkerFrame(const FrameHeader& fh,
                                         const std::vector<uint8_t>& payload) {
  Channel& ch = *channels_[static_cast<size_t>(fh.from) * size() + fh.to];
  std::lock_guard<std::mutex> lock(ch.mu);
  if (ch.fd < 0) return false;
  uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(fh, header);
  return WriteFullFd(ch.fd, header, sizeof(header)) &&
         (payload.empty() ||
          WriteFullFd(ch.fd, payload.data(), payload.size()));
}

void SocketTransport::ForwarderLoop() {
  for (;;) {
    ForwardJob job;
    {
      std::unique_lock<std::mutex> lock(fwd_mu_);
      fwd_cv_.wait(lock, [this] { return fwd_stop_ || !fwd_queue_.empty(); });
      if (fwd_queue_.empty()) return;  // stop requested and drained
      job = std::move(fwd_queue_.front());
      fwd_queue_.pop_front();
    }
    if (!ForwardWorkerFrame(job.fh, job.payload)) {
      // Channel gone mid-world: same treatment as a dead endpoint. On a
      // clean Close the fd check fails before any write, and closed()
      // already shields Flush/Recv, so this only bites a live world.
      if (!closed()) {
        broken_.store(true, std::memory_order_release);
        MarkClosed();
        {
          std::lock_guard<std::mutex> lock(flush_mu_);
        }
        flush_cv_.notify_all();
      }
      return;
    }
    buffer_pool().Release(std::move(job.payload));
  }
}

Status SocketTransport::Flush() {
  std::unique_lock<std::mutex> lock(flush_mu_);
  flush_cv_.wait(lock, [this] {
    return broken_.load(std::memory_order_acquire) || closed() ||
           frames_delivered_.load(std::memory_order_acquire) >=
               frames_sent_.load(std::memory_order_acquire);
  });
  if (broken_.load(std::memory_order_acquire)) {
    return Status::Unavailable("socket transport endpoint died in flight");
  }
  if (closed()) return Status::Cancelled("transport closed");
  return Status::OK();
}

void SocketTransport::Close() {
  std::call_once(close_once_, [this] {
    MarkClosed();
    CloseSendSide();
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
    }
    flush_cv_.notify_all();
    {
      std::lock_guard<std::mutex> lock(fwd_mu_);
      fwd_stop_ = true;
    }
    fwd_cv_.notify_all();
  });
}

void SocketTransport::CloseSendSide() {
  // Deregister in the same registry-locked step as the close: a later
  // Create could be handed the same fd number by the kernel the moment
  // it closes, and a stale registry entry (or a late erase hitting the
  // new owner's registration) would make some transport's children
  // mishandle a channel that is not theirs.
  std::vector<int> closed;
  for (auto& ch : channels_) {
    std::lock_guard<std::mutex> lock(ch->mu);
    if (ch->fd >= 0) {
      closed.push_back(ch->fd);
      ch->fd = -1;
    }
  }
  CloseAndUnregisterFds(closed);
}

void SocketTransport::ReapChildren() {
  for (pid_t pid : children_) {
    waitpid(pid, nullptr, 0);
  }
  children_.clear();
}

Status SocketTransport::Recover() {
  // Kill whatever endpoints are still alive: recovery rebuilds the whole
  // world from fresh forks, so survivors of the broken world must not
  // keep reading the old channels (and their death EOFs the uplinks,
  // unblocking the receiver threads below).
  for (pid_t pid : children_) kill(pid, SIGKILL);
  // Caller holds fwd_mu_.
  auto drop_forward_queue = [this] {
    for (ForwardJob& job : fwd_queue_) {
      buffer_pool().Release(std::move(job.payload));
    }
    fwd_queue_.clear();
  };
  // Stop the forwarder without draining: its writes target dead channels.
  {
    std::lock_guard<std::mutex> lock(fwd_mu_);
    drop_forward_queue();
    fwd_stop_ = true;
  }
  fwd_cv_.notify_all();
  if (forwarder_.joinable()) forwarder_.join();
  // Deliberately NOT Close(): close_once_ must stay armed so the eventual
  // final Close still tears down the world Init() rebuilds below. The
  // manual sequence covers the same ground.
  MarkClosed();
  CloseSendSide();
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
  }
  flush_cv_.notify_all();
  for (std::thread& t : receivers_) {
    if (t.joinable()) t.join();
  }
  receivers_.clear();
  std::vector<int> closed_fds;
  for (int& fd : uplink_read_fds_) {
    if (fd >= 0) {
      closed_fds.push_back(fd);
      fd = -1;
    }
  }
  CloseAndUnregisterFds(closed_fds);
  ReapChildren();
  // Back to just-constructed state, then bring up the fresh world. Until
  // they were joined, the receivers kept reading what the killed
  // endpoints had already written and queueing its peer frames: dropped
  // here, or the fresh forwarder would hand the old world's direct
  // frames to the new endpoints (before or after their restore).
  {
    std::lock_guard<std::mutex> lock(fwd_mu_);
    drop_forward_queue();
    fwd_stop_ = false;
  }
  frames_sent_.store(0, std::memory_order_release);
  frames_delivered_.store(0, std::memory_order_release);
  broken_.store(false, std::memory_order_release);
  ResetForRecovery();  // empties mailboxes, clears the closed flag
  return Init();
}

}  // namespace grape
