#include "serve/serve.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "apps/cc.h"
#include "apps/ms_bfs.h"
#include "apps/ms_sssp.h"
#include "apps/pagerank.h"
#include "core/engine.h"
#include "rt/frame_decoder.h"
#include "rt/net_util.h"
#include "rt/remote_worker.h"

namespace grape {

namespace {

/// Stash-token namespace for coordinator-loaded epochs, far away from the
/// tokens distributed builds mint, so a serve epoch can never collide with
/// a build that ran earlier on the same world.
constexpr uint64_t kSvResidentTokenBase = 0x5345525645ull << 16;  // "SERVE"

}  // namespace

struct ServeServer::Impl {
  // ------------------------------------------------------------ plumbing

  struct Connection {
    int fd = -1;
    std::mutex write_mu;
    std::atomic<bool> open{true};
  };

  struct PendingRequest {
    std::shared_ptr<Connection> conn;
    uint32_t request_id = 0;
    uint32_t tag = 0;
    std::vector<uint8_t> payload;
  };

  enum Class { kNone, kSssp, kBfs, kCc, kPageRank };

  explicit Impl(ServeOptions options) : options_(std::move(options)) {}

  ~Impl() { Shutdown(); }

  // -------------------------------------------------------------- control

  Status Start() {
    if (options_.transport == nullptr) {
      return Status::InvalidArgument("ServeOptions::transport is required");
    }
    if (options_.num_fragments == 0) {
      return Status::InvalidArgument("ServeOptions::num_fragments must be > 0");
    }
    const bool coord = static_cast<bool>(options_.load_coordinator);
    const bool dist = static_cast<bool>(options_.load_distributed);
    if (coord == dist) {
      return Status::InvalidArgument(
          "set exactly one of load_coordinator / load_distributed");
    }
    GRAPE_RETURN_NOT_OK(LoadEpoch());

    // Client listener: loopback only — the serve protocol authenticates
    // nothing; exposure beyond the host is the operator's business (ssh
    // tunnel, reverse proxy), not a default.
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::IOError(std::string("serve listener socket: ") +
                             std::strerror(errno));
    }
    int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in baddr{};
    baddr.sin_family = AF_INET;
    baddr.sin_port = htons(options_.listen_port);
    baddr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&baddr),
             sizeof(baddr)) != 0 ||
        listen(listen_fd_, 64) != 0) {
      Status st = Status::IOError(std::string("serve listener: ") +
                                  std::strerror(errno));
      close(listen_fd_);
      listen_fd_ = -1;
      return st;
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) !=
        0) {
      close(listen_fd_);
      listen_fd_ = -1;
      return Status::IOError("serve listener getsockname failed");
    }
    port_ = ntohs(bound.sin_port);

    accept_thread_ = std::thread([this] { AcceptLoop(); });
    dispatcher_thread_ = std::thread([this] { DispatcherLoop(); });
    started_ = true;
    if (options_.verbose) {
      std::fprintf(stderr, "grape_serve: serving on 127.0.0.1:%u (epoch %llu)\n",
                   port_, static_cast<unsigned long long>(epoch_.load()));
    }
    return Status::OK();
  }

  void Shutdown() {
    bool expected = false;
    if (!shut_.compare_exchange_strong(expected, true)) return;
    stop_.store(true);
    {
      std::lock_guard<std::mutex> lk(qu_mu_);
    }
    qu_cv_.notify_all();
    if (listen_fd_ >= 0) {
      ::shutdown(listen_fd_, SHUT_RDWR);
      close(listen_fd_);
      listen_fd_ = -1;
    }
    {
      std::lock_guard<std::mutex> lk(conns_mu_);
      for (auto& conn : conns_) {
        if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
    if (accept_thread_.joinable()) accept_thread_.join();
    // No new readers can be spawned once the accept thread is gone.
    for (auto& t : reader_threads_) {
      if (t.joinable()) t.join();
    }
    if (dispatcher_thread_.joinable()) dispatcher_thread_.join();
    for (auto& conn : conns_) {
      if (conn->fd >= 0) {
        close(conn->fd);
        conn->fd = -1;
      }
    }
    SwitchClass(kNone);  // retire the live worker session
  }

  // ---------------------------------------------------------- graph epoch

  /// Loads the next epoch: tears the per-class engines down, runs the
  /// loader, rebuilds, primes residency. On failure the server keeps its
  /// (bumped) epoch but no engines — queries error until a reload works.
  Status LoadEpoch() {
    SwitchClass(kNone);
    sssp_.reset();
    bfs_.reset();
    cc_.reset();
    pr_.reset();
    cc_cache_.reset();
    pr_cache_.reset();
    mut_seq_ = 0;  // versions are (epoch << 32) | seq; a new epoch restarts seq
    const uint64_t old_token = token_;

    EngineOptions base;
    base.transport = options_.transport;
    base.compute_threads = options_.compute_threads;

    if (options_.load_coordinator) {
      auto fg = options_.load_coordinator();
      GRAPE_RETURN_NOT_OK(fg.status());
      fg_ = std::move(fg).value();
      epoch_.fetch_add(1);
      token_ = kSvResidentTokenBase + epoch_.load();

      meta_ = DistributedGraphMeta{};
      meta_.token = token_;
      meta_.num_fragments = fg_.num_fragments();
      meta_.total_vertices = fg_.total_vertices;
      meta_.directed = fg_.directed;
      for (const Fragment& f : fg_.fragments) {
        meta_.shapes.push_back(
            FragmentShape{f.num_inner(), f.num_local(), f.num_edges()});
      }

      // The SSSP engine is the epoch's stasher: its first load ships each
      // fragment with the epoch token and the worker deposits it in its
      // ResidentFragmentStore. Every other class attaches by token only.
      EngineOptions eo = base;
      eo.remote_app = "ms_sssp";
      eo.resident_stash_token = token_;
      sssp_ = std::make_unique<GrapeEngine<MsSsspApp>>(fg_, MsSsspApp{}, eo);
    } else {
      auto meta = options_.load_distributed(options_.transport);
      GRAPE_RETURN_NOT_OK(meta.status());
      meta_ = std::move(meta).value();
      fg_ = FragmentedGraph{};
      epoch_.fetch_add(1);
      token_ = meta_.token;

      EngineOptions eo = base;
      eo.remote_app = "ms_sssp";
      sssp_ = std::make_unique<GrapeEngine<MsSsspApp>>(meta_, eo);
    }

    EngineOptions eo = base;
    eo.remote_app = "ms_bfs";
    bfs_ = std::make_unique<GrapeEngine<MsBfsApp>>(meta_, eo);
    eo.remote_app = "cc";
    cc_ = std::make_unique<GrapeEngine<CcApp>>(meta_, eo);
    eo.remote_app = "pagerank";
    pr_ = std::make_unique<GrapeEngine<PageRankApp>>(meta_, eo);

    // Prime: a zero-lane wave through the stashing engine makes the
    // fragments resident before any attach-by-token class can load, and
    // leaves the SSSP session warm for the first real query. (Under
    // distributed loading the build already deposited the fragments, so
    // this only warms the session.)
    auto primed = sssp_->SessionRun(MsSsspQuery{});
    GRAPE_RETURN_NOT_OK(primed.status());
    active_ = kSssp;

    // The previous epoch's fragments are dead weight now. Erase reaches
    // in-process stores (inproc worlds); forked endpoints free theirs when
    // the next load at each rank drops the last shared_ptr.
    if (old_token != 0) ResidentFragmentStore::Global().Erase(old_token);
    if (options_.verbose) {
      std::fprintf(stderr,
                   "grape_serve: epoch %llu loaded (%u fragments, token %llx)\n",
                   static_cast<unsigned long long>(epoch_.load()),
                   meta_.num_fragments,
                   static_cast<unsigned long long>(token_));
    }
    return Status::OK();
  }

  /// One live query session per world: retire the active class's session
  /// before another class (or a reload, or shutdown) touches the
  /// mailboxes.
  void SwitchClass(Class next) {
    if (active_ == next) return;
    switch (active_) {
      case kSssp:
        if (sssp_) sssp_->EndSession();
        break;
      case kBfs:
        if (bfs_) bfs_->EndSession();
        break;
      case kCc:
        if (cc_) cc_->EndSession();
        break;
      case kPageRank:
        if (pr_) pr_->EndSession();
        break;
      case kNone:
        break;
    }
    active_ = next;
  }

  // ------------------------------------------------------------ listener

  void AcceptLoop() {
    for (;;) {
      sockaddr_in addr{};
      socklen_t alen = sizeof(addr);
      int fd = accept(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
      if (fd < 0) {
        if (errno == EINTR && !stop_.load()) continue;
        break;
      }
      if (stop_.load()) {
        close(fd);
        break;
      }
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      std::lock_guard<std::mutex> lk(conns_mu_);
      conns_.push_back(conn);
      reader_threads_.emplace_back(
          [this, conn]() mutable { ReaderLoop(std::move(conn)); });
    }
  }

  void ReaderLoop(std::shared_ptr<Connection> conn) {
    FrameDecoder decoder;
    decoder.set_max_payload_bytes(options_.max_client_frame_bytes);
    std::vector<uint8_t> buf(64 * 1024);
    bool fatal = false;
    while (!stop_.load() && !fatal) {
      ssize_t k = read(conn->fd, buf.data(), buf.size());
      if (k == 0) break;
      if (k < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (!decoder.Feed(buf.data(), static_cast<size_t>(k)).ok()) {
        // Oversized or garbage frame: one error frame, then the
        // connection dies — the stream has lost sync, so nothing later
        // on it can be trusted.
        rejected_frames_.fetch_add(1);
        SendError(*conn, 0, decoder.status());
        fatal = true;
        break;
      }
      while (auto msg = decoder.Next()) {
        if (!IsServeRequestTag(msg->tag)) {
          rejected_frames_.fetch_add(1);
          SendError(*conn, msg->from,
                    Status::InvalidArgument("unknown request tag " +
                                            std::to_string(msg->tag)));
          fatal = true;
          break;
        }
        if ((msg->tag == kTagSvReload || msg->tag == kTagSvMutate) &&
            wave_active_.load()) {
          // The transition is not lost — it waits in FIFO order behind
          // the wave — but the deferral is observable (epoch transitions
          // serialize against in-flight waves, never under them).
          deferred_transitions_.fetch_add(1);
        }
        {
          std::lock_guard<std::mutex> lk(qu_mu_);
          queue_.push_back(PendingRequest{conn, msg->from, msg->tag,
                                          std::move(msg->payload)});
        }
        qu_cv_.notify_one();
      }
    }
    ::shutdown(conn->fd, SHUT_RDWR);
    conn->open.store(false);
  }

  // ----------------------------------------------------------- responses

  void SendFrame(Connection& conn, uint32_t request_id, uint32_t tag,
                 const std::vector<uint8_t>& payload) {
    FrameHeader h;
    h.from = request_id;
    h.to = 0;
    h.tag = tag;
    h.payload_len = static_cast<uint32_t>(payload.size());
    uint8_t hdr[kFrameHeaderBytes];
    EncodeFrameHeader(h, hdr);
    std::lock_guard<std::mutex> lk(conn.write_mu);
    if (!conn.open.load()) return;
    if (!net::WriteFullFd(conn.fd, hdr, sizeof(hdr)) ||
        (!payload.empty() &&
         !net::WriteFullFd(conn.fd, payload.data(), payload.size()))) {
      conn.open.store(false);
    }
  }

  void SendOk(const PendingRequest& req, std::vector<uint8_t> payload) {
    queries_.fetch_add(1);
    SendFrame(*req.conn, req.request_id, kTagSvOk, payload);
  }

  void SendError(Connection& conn, uint32_t request_id, const Status& error) {
    errors_.fetch_add(1);
    Encoder enc;
    EncodeServeError(enc, error);
    SendFrame(conn, request_id, kTagSvError, enc.buffer());
  }

  void FailBatch(const std::vector<PendingRequest>& batch,
                 const Status& error) {
    for (const PendingRequest& req : batch) {
      queries_.fetch_add(1);
      SendError(*req.conn, req.request_id, error);
    }
  }

  // ----------------------------------------------------------- dispatcher

  void DispatcherLoop() {
    std::unique_lock<std::mutex> lk(qu_mu_);
    while (!stop_.load()) {
      qu_cv_.wait(lk, [this] { return stop_.load() || !queue_.empty(); });
      if (stop_.load()) break;
      std::vector<PendingRequest> batch;
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      const uint32_t tag = batch[0].tag;
      const bool batchable = tag == kTagSvSssp || tag == kTagSvBfs ||
                             tag == kTagSvCcLabel || tag == kTagSvPageRank;
      if (batchable && options_.batch_window_ms > 0 && options_.max_batch > 1) {
        // Admission window: same-class arrivals within it fuse into one
        // wave. Different-class requests stay queued in order.
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(options_.batch_window_ms);
        for (;;) {
          DrainSameTag(tag, &batch);
          if (batch.size() >= options_.max_batch || stop_.load()) break;
          if (qu_cv_.wait_until(lk, deadline) == std::cv_status::timeout) {
            DrainSameTag(tag, &batch);
            break;
          }
        }
      }
      lk.unlock();
      Execute(tag, batch);
      lk.lock();
    }
  }

  void DrainSameTag(uint32_t tag, std::vector<PendingRequest>* batch) {
    for (auto it = queue_.begin();
         it != queue_.end() && batch->size() < options_.max_batch;) {
      if (it->tag == tag) {
        batch->push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void Execute(uint32_t tag, std::vector<PendingRequest>& batch) {
    switch (tag) {
      case kTagSvPing: {
        for (const PendingRequest& req : batch) SendOk(req, {});
        return;
      }
      case kTagSvReload: {
        ExecuteReload(batch);
        return;
      }
      case kTagSvMutate: {
        ExecuteMutate(batch);
        return;
      }
      case kTagSvSssp: {
        WaveGuard g(this);
        ExecuteWave<MsSsspApp>(batch, sssp_.get(), kSssp,
                               [](MsSsspOutput&& out) {
                                 return std::move(out.dist);
                               });
        return;
      }
      case kTagSvBfs: {
        WaveGuard g(this);
        ExecuteWave<MsBfsApp>(batch, bfs_.get(), kBfs, [](MsBfsOutput&& out) {
          return std::move(out.depth);
        });
        return;
      }
      case kTagSvCcLabel: {
        WaveGuard g(this);
        ExecuteCached<CcApp>(batch, cc_.get(), kCc, CcQuery{}, &cc_cache_,
                             [](CcOutput&& out) { return std::move(out.label); });
        return;
      }
      case kTagSvPageRank: {
        WaveGuard g(this);
        ExecuteCached<PageRankApp>(
            batch, pr_.get(), kPageRank, PageRankQuery{}, &pr_cache_,
            [](PageRankOutput&& out) { return std::move(out.rank); });
        return;
      }
      default: {
        FailBatch(batch, Status::Internal("dispatcher saw unknown tag"));
        return;
      }
    }
  }

  void ExecuteReload(std::vector<PendingRequest>& batch) {
    Status s = LoadEpoch();
    if (!s.ok()) {
      FailBatch(batch, s);
      return;
    }
    reloads_.fetch_add(1);
    Encoder enc;
    enc.WriteU64(epoch_.load());
    for (const PendingRequest& req : batch) SendOk(req, enc.buffer());
  }

  /// Epoch transitions (reload, mutation) only ever run here, on the
  /// dispatcher thread, BETWEEN waves: a transition frame that arrives
  /// while a wave executes waits in the admission queue (counted as
  /// deferred), so fragments are never swapped and the epoch never bumps
  /// under a running engine session. WaveGuard makes the invariant
  /// observable to the reader threads.
  struct WaveGuard {
    explicit WaveGuard(Impl* impl) : impl_(impl) {
      impl_->wave_active_.store(true);
    }
    ~WaveGuard() { impl_->wave_active_.store(false); }
    Impl* impl_;
  };

  void ExecuteMutate(std::vector<PendingRequest>& batch) {
    // Mutations are never fused: each batch is one version step and the
    // order of consecutive batches is part of the contract (the
    // dispatcher admits them one at a time).
    for (PendingRequest& req : batch) {
      MutationBatch m;
      Decoder dec(req.payload);
      Status s = MutationBatch::DecodeFrom(dec, &m);
      if (s.ok() && !dec.AtEnd()) {
        s = Status::Corruption("trailing bytes after mutation batch");
      }
      if (s.ok()) {
        Result<uint64_t> version = ApplyOneMutation(m);
        if (version.ok()) {
          mutations_.fetch_add(1);
          Encoder enc;
          enc.WriteU64(*version);
          SendOk(req, enc.TakeBuffer());
          continue;
        }
        s = version.status();
      }
      queries_.fetch_add(1);
      SendError(*req.conn, req.request_id, s);
    }
  }

  /// One mutation batch, end to end: rank 0's copy first (coordinator
  /// mode), then the resident fragments inside the endpoints through the
  /// active class's live session, then routing-slot refresh of every
  /// engine and standing-answer maintenance. Returns the new version,
  /// (epoch << 32) | intra-epoch sequence.
  Result<uint64_t> ApplyOneMutation(const MutationBatch& m) {
    if (!sssp_) {
      return Status::FailedPrecondition(
          "no loaded graph (did the last reload fail?)");
    }
    GRAPE_RETURN_NOT_OK(m.Validate(meta_.total_vertices));

    // Coordinator mode keeps rank 0's FragmentedGraph in lockstep: a
    // later cold load re-ships fg_ under the epoch token, and shipping
    // the pre-mutation graph would silently roll the endpoints back.
    if (options_.load_coordinator) {
      GRAPE_RETURN_NOT_OK(FragmentBuilder::MutateFragmentedGraph(&fg_, m));
    }

    // The mutation frames ride the one live session (the active
    // class's). When CC itself carries the batch its standing answer can
    // additionally be refreshed by a bounded delta below.
    bool cc_carried = false;
    Result<std::vector<WkBuildAck>> shapes =
        Status::FailedPrecondition("no live session");
    switch (active_) {
      case kSssp:
        shapes = sssp_->ApplyMutations(m);
        break;
      case kBfs:
        shapes = bfs_->ApplyMutations(m);
        break;
      case kCc:
        cc_carried = true;
        shapes = cc_->ApplyMutations(m);
        break;
      case kPageRank:
        shapes = pr_->ApplyMutations(m);
        break;
      case kNone:
        break;
    }
    if (!shapes.ok() &&
        shapes.status().code() == StatusCode::kFailedPrecondition) {
      // No live session (fresh kNone, or the last wave failed and tore
      // its session down): prime a zero-lane SSSP wave to make one.
      SwitchClass(kNone);
      SwitchClass(kSssp);
      GRAPE_RETURN_NOT_OK(sssp_->SessionRun(MsSsspQuery{}).status());
      cc_carried = false;
      shapes = sssp_->ApplyMutations(m);
    }
    GRAPE_RETURN_NOT_OK(shapes.status());

    // Every fragment was patched: new shapes for the metadata and for
    // every engine's routing slots. The applier refreshed its own inside
    // ApplyMutations; the call is idempotent, so refresh all four.
    for (FragmentId i = 0; i < meta_.num_fragments; ++i) {
      const WkBuildAck& a = (*shapes)[i];
      meta_.shapes[i] = FragmentShape{a.num_inner, a.num_local, a.num_arcs};
    }
    sssp_->RefreshShapes(*shapes);
    if (bfs_) bfs_->RefreshShapes(*shapes);
    if (cc_) cc_->RefreshShapes(*shapes);
    if (pr_) pr_->RefreshShapes(*shapes);

    // Standing answers: PageRank is non-monotonic, so its cache can only
    // be invalidated. CC refreshes through the bounded delta when its own
    // warm session carried the batch and the batch is insertion-only; any
    // other combination invalidates precisely and the next read
    // recomputes.
    pr_cache_.reset();
    if (cc_carried && cc_cache_.has_value() && !m.has_deletions()) {
      auto out = cc_->RunIncremental(CcQuery{}, m);
      if (out.ok()) {
        waves_.fetch_add(1);
        delta_refreshes_.fetch_add(1);
        cc_cache_.emplace(std::move(out->label));
      } else {
        cc_cache_.reset();
      }
    } else {
      cc_cache_.reset();
    }
    return (epoch_.load() << 32) | static_cast<uint64_t>(++mut_seq_);
  }

  /// Fused multi-source wave: one lane per admitted request, answers split
  /// back per lane. Lane k's bits equal a standalone single-source run's
  /// (apps/ms_sssp.h), so fusion is invisible to clients.
  template <typename App, typename Split>
  void ExecuteWave(std::vector<PendingRequest>& batch,
                   GrapeEngine<App>* engine, Class cls, Split split) {
    if (engine == nullptr) {
      FailBatch(batch, Status::FailedPrecondition(
                           "no loaded graph (did the last reload fail?)"));
      return;
    }
    typename App::QueryType query;
    std::vector<PendingRequest> admitted;
    admitted.reserve(batch.size());
    for (PendingRequest& req : batch) {
      Decoder dec(req.payload);
      uint32_t source = 0;
      if (!dec.ReadU32(&source).ok()) {
        queries_.fetch_add(1);
        SendError(*req.conn, req.request_id,
                  Status::InvalidArgument("query payload: expected u32 source"));
        continue;
      }
      query.sources.push_back(source);
      admitted.push_back(std::move(req));
    }
    if (admitted.empty()) return;
    SwitchClass(cls);
    auto out = engine->SessionRun(query);
    if (!out.ok()) {
      FailBatch(admitted, out.status());
      return;
    }
    waves_.fetch_add(1);
    if (admitted.size() >= 2) fused_queries_.fetch_add(admitted.size());
    auto lanes = split(std::move(out).value());
    for (size_t k = 0; k < admitted.size(); ++k) {
      Encoder enc;
      enc.WritePodVector(lanes[k]);
      SendOk(admitted[k], enc.TakeBuffer());
    }
  }

  /// CC / PageRank: the answer is a property of the graph, so the first
  /// read of an epoch computes it and every later read is a cache hit
  /// until a reload invalidates.
  template <typename App, typename Cache, typename Extract>
  void ExecuteCached(std::vector<PendingRequest>& batch,
                     GrapeEngine<App>* engine, Class cls,
                     typename App::QueryType query,
                     std::optional<Cache>* cache, Extract extract) {
    if (engine == nullptr) {
      FailBatch(batch, Status::FailedPrecondition(
                           "no loaded graph (did the last reload fail?)"));
      return;
    }
    if (!cache->has_value()) {
      SwitchClass(cls);
      auto out = engine->SessionRun(query);
      if (!out.ok()) {
        FailBatch(batch, out.status());
        return;
      }
      waves_.fetch_add(1);
      cache->emplace(extract(std::move(out).value()));
    } else {
      cache_hits_.fetch_add(batch.size());
    }
    Encoder enc;
    enc.WritePodVector(cache->value());
    for (const PendingRequest& req : batch) SendOk(req, enc.buffer());
  }

  // -------------------------------------------------------------- members

  ServeOptions options_;

  // Graph epoch state (dispatcher-owned after Start).
  FragmentedGraph fg_;
  DistributedGraphMeta meta_;
  uint64_t token_ = 0;
  std::atomic<uint64_t> epoch_{0};
  std::unique_ptr<GrapeEngine<MsSsspApp>> sssp_;
  std::unique_ptr<GrapeEngine<MsBfsApp>> bfs_;
  std::unique_ptr<GrapeEngine<CcApp>> cc_;
  std::unique_ptr<GrapeEngine<PageRankApp>> pr_;
  Class active_ = kNone;
  std::optional<std::vector<VertexId>> cc_cache_;
  std::optional<std::vector<double>> pr_cache_;

  // Listener / connections.
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  bool started_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<bool> shut_{false};
  std::thread accept_thread_;
  std::thread dispatcher_thread_;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> reader_threads_;

  // Admission queue.
  std::mutex qu_mu_;
  std::condition_variable qu_cv_;
  std::deque<PendingRequest> queue_;

  // Mutation versioning (dispatcher-owned): intra-epoch sequence of
  // applied batches.
  uint32_t mut_seq_ = 0;
  // True while the dispatcher is inside a superstep wave; reader threads
  // consult it to count deferred epoch transitions.
  std::atomic<bool> wave_active_{false};

  // Stats.
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> waves_{0};
  std::atomic<uint64_t> fused_queries_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> rejected_frames_{0};
  std::atomic<uint64_t> reloads_{0};
  std::atomic<uint64_t> mutations_{0};
  std::atomic<uint64_t> deferred_transitions_{0};
  std::atomic<uint64_t> delta_refreshes_{0};
};

ServeServer::ServeServer(ServeOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

ServeServer::~ServeServer() = default;

Status ServeServer::Start() { return impl_->Start(); }

uint16_t ServeServer::port() const { return impl_->port_; }

uint64_t ServeServer::epoch() const { return impl_->epoch_.load(); }

ServeStats ServeServer::stats() const {
  ServeStats s;
  s.queries = impl_->queries_.load();
  s.waves = impl_->waves_.load();
  s.fused_queries = impl_->fused_queries_.load();
  s.cache_hits = impl_->cache_hits_.load();
  s.errors = impl_->errors_.load();
  s.rejected_frames = impl_->rejected_frames_.load();
  s.reloads = impl_->reloads_.load();
  s.mutations = impl_->mutations_.load();
  s.deferred_transitions = impl_->deferred_transitions_.load();
  s.delta_refreshes = impl_->delta_refreshes_.load();
  return s;
}

void ServeServer::Shutdown() { impl_->Shutdown(); }

}  // namespace grape
