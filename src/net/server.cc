#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common/fault.h"

namespace imageproof::net {

namespace {

// Semantic sanity for query admission: parseable requests that no engine
// could serve meaningfully are rejected before they cost a queue slot.
constexpr uint64_t kMaxTopK = 1u << 16;

}  // namespace

void NetServer::Outbox::Push(uint64_t conn_id, Bytes frame) {
  std::lock_guard<std::mutex> lock(mu);
  if (closed) return;
  ready.emplace_back(conn_id, std::move(frame));
  // One byte per push keeps the pipe read side O(pushes); the poll thread
  // drains both together. The write is under the same mutex as `closed`,
  // so it can never race the server closing the pipe ends.
  uint8_t b = 1;
  ssize_t ignored = ::write(wake_fd, &b, 1);
  (void)ignored;  // pipe full = poll thread already has a wakeup pending
}

NetServer::NetServer(core::QueryEngine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

NetServer::~NetServer() { Stop(); }

void NetServer::EnableUpdates(const crypto::RsaPrivateKey* owner_key) {
  owner_key_ = owner_key;
}

void NetServer::EnableComposite(CompositeHandler handler) {
  composite_handler_ = std::move(handler);
}

Status NetServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) return Status::Error("net: server already started");
  Result<Socket> listener = ListenTcp(options_.host, options_.port, &port_);
  if (!listener.ok()) return listener.status();
  listen_sock_ = std::move(*listener);
  Status s = SetNonBlocking(listen_sock_.fd());
  if (!s.ok()) return s;
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return Status::Error("net: pipe failed");
  pipe_rd_ = pipe_fds[0];
  (void)SetNonBlocking(pipe_rd_);
  outbox_ = std::make_shared<Outbox>();
  outbox_->wake_fd = pipe_fds[1];
  (void)SetNonBlocking(outbox_->wake_fd);
  stop_.store(false, std::memory_order_release);
  poll_thread_ = std::thread([this] { PollLoop(); });
  update_thread_ = std::thread([this] { UpdateLoop(); });
  started_ = true;
  return Status::Ok();
}

void NetServer::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  // Wake both threads. The outbox push doubles as the poll wakeup.
  update_cv_.notify_all();
  outbox_->Push(0, Bytes{});
  update_thread_.join();
  poll_thread_.join();
  // Sever the completion side: callbacks still running inside engine
  // workers keep the Outbox alive through their shared_ptr but find it
  // closed and drop their frames. The pipe closes under the outbox mutex
  // so no Push can write into a dead fd.
  {
    std::lock_guard<std::mutex> outbox_lock(outbox_->mu);
    outbox_->closed = true;
    ::close(outbox_->wake_fd);
    outbox_->wake_fd = -1;
  }
  ::close(pipe_rd_);
  pipe_rd_ = -1;
  conns_.clear();
  listen_sock_.Close();
  started_ = false;
  draining_.store(false, std::memory_order_release);
  pending_replies_.store(0, std::memory_order_release);
  // Release any Drain() caller racing this Stop(): the server is down,
  // which is as drained as it gets.
  {
    std::lock_guard<std::mutex> drain_lock(drain_mu_);
    drained_ = true;
  }
  drain_cv_.notify_all();
}

void NetServer::Drain(std::chrono::milliseconds timeout) {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_) return;
    if (!draining_.exchange(true, std::memory_order_acq_rel)) {
      drains_.Add();
      std::lock_guard<std::mutex> drain_lock(drain_mu_);
      drained_ = false;
    }
    // Wake the poll thread so it re-evaluates with draining_ set (and
    // completes immediately when nothing is in flight).
    outbox_->Push(0, Bytes{});
  }
  {
    std::unique_lock<std::mutex> drain_lock(drain_mu_);
    drain_cv_.wait_for(drain_lock, timeout, [this] { return drained_; });
  }
  Stop();
}

NetServer::Counters NetServer::counters() const {
  Counters c;
  c.connections_accepted = connections_accepted_.Value();
  c.connections_rejected = connections_rejected_.Value();
  c.frames_in = frames_in_.Value();
  c.frames_out = frames_out_.Value();
  c.bytes_in = bytes_in_.Value();
  c.bytes_out = bytes_out_.Value();
  c.protocol_errors = protocol_errors_.Value();
  c.drains = drains_.Value();
  c.frames_rejected_draining = frames_rejected_draining_.Value();
  c.conns_reset_by_fault = conns_reset_by_fault_.Value();
  return c;
}

void NetServer::PollLoop() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_conn;  // conn id per pollfd (0 = listener/pipe)
  while (!stop_.load(std::memory_order_acquire)) {
    fds.clear();
    fd_conn.clear();
    // A draining server stops watching the listener: pending connects sit
    // in the backlog until Stop() closes it (the peer then sees a reset —
    // retry-elsewhere territory, same as a crashed server).
    const bool draining = draining_.load(std::memory_order_acquire);
    fds.push_back({listen_sock_.fd(),
                   static_cast<short>(draining ? 0 : POLLIN), 0});
    fd_conn.push_back(0);
    fds.push_back({pipe_rd_, POLLIN, 0});
    fd_conn.push_back(0);
    for (const auto& [id, conn] : conns_) {
      short events = POLLIN;
      if (conn->write_off < conn->write_buf.size()) events |= POLLOUT;
      fds.push_back({conn->sock.fd(), events, 0});
      fd_conn.push_back(id);
    }
    int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure; Stop() still joins us
    }
    if (stop_.load(std::memory_order_acquire)) break;
    if (fds[0].revents & POLLIN) AcceptNew();
    if (fds[1].revents & POLLIN) {
      uint8_t drain[256];
      while (::read(pipe_rd_, drain, sizeof(drain)) > 0) {
      }
      DrainOutbox();
    }
    // Connection I/O. Conns may be closed during iteration, so resolve ids
    // against the live map each time.
    for (size_t i = 2; i < fds.size(); ++i) {
      auto it = conns_.find(fd_conn[i]);
      if (it == conns_.end()) continue;
      Conn* conn = it->second.get();
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        CloseConn(conn->id);
        continue;
      }
      if (fds[i].revents & POLLIN) HandleReadable(conn);
      // Re-check liveness: a read error may have closed it.
      if (conns_.find(fd_conn[i]) == conns_.end()) continue;
      if (fds[i].revents & POLLOUT) HandleWritable(conn);
    }
    if (draining_.load(std::memory_order_acquire)) MaybeFinishDrain();
  }
}

void NetServer::MaybeFinishDrain() {
  if (pending_replies_.load(std::memory_order_acquire) != 0) return;
  for (const auto& [id, conn] : conns_) {
    if (conn->write_off < conn->write_buf.size()) return;  // still flushing
  }
  {
    // A completion may have been pushed but its pipe wakeup not yet
    // consumed; an empty ready queue plus zero pending replies means
    // every response reached (and by the loop above, left) a write
    // buffer.
    std::lock_guard<std::mutex> lock(outbox_->mu);
    if (!outbox_->ready.empty()) return;
  }
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drained_ = true;
  }
  drain_cv_.notify_all();
}

void NetServer::AcceptNew() {
  while (true) {
    int fd = ::accept(listen_sock_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN/EWOULDBLOCK: drained
    }
    Socket sock(fd);
    if (conns_.size() >= options_.max_connections) {
      // Best-effort shed at the connection level, mirroring query-level
      // shedding: one explicit error frame, then close. The fd is still
      // blocking here, but the frame is tiny (fits any socket buffer).
      connections_rejected_.Add();
      Bytes frame = EncodeFrame(
          FrameType::kError,
          EncodeError({WireError::kOverloaded, "server at connection limit"}));
      (void)SendAll(sock.fd(), frame.data(), frame.size());
      continue;
    }
    if (!SetNonBlocking(sock.fd()).ok()) continue;
    int one = 1;
    ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->sock = std::move(sock);
    connections_accepted_.Add();
    conns_.emplace(conn->id, std::move(conn));
  }
}

void NetServer::HandleReadable(Conn* conn) {
  // Chaos site: abandon the connection before reading, i.e. at a frame
  // boundary from the peer's point of view — it sees an orderly EOF with
  // no reply, the signature of a crashed/restarted server, which a
  // retrying client must absorb as kUnavailable (never kCorrupted: no
  // partial response bytes have been written for any unanswered request).
  if (fault::InjectFault("net.conn.reset")) {
    conns_reset_by_fault_.Add();
    CloseConn(conn->id);
    return;
  }
  uint8_t buf[64 * 1024];
  while (true) {
    ssize_t n = ::recv(conn->sock.fd(), buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(conn->id);
      return;
    }
    if (n == 0) {  // orderly peer close
      CloseConn(conn->id);
      return;
    }
    bytes_in_.Add(static_cast<uint64_t>(n));
    conn->read_buf.insert(conn->read_buf.end(), buf, buf + n);
    if (static_cast<size_t>(n) < sizeof(buf)) break;
  }
  if (conn->close_after_flush) return;  // already poisoned; ignore input
  const uint64_t id = conn->id;
  FrameHeader header;
  Bytes payload;
  Status error;
  while (true) {
    switch (TryExtractFrame(&conn->read_buf, &header, &payload, &error)) {
      case ExtractResult::kNeedMore:
        return;
      case ExtractResult::kCorrupt:
        // Framing is unrecoverable: without a trustworthy length field we
        // cannot find the next frame boundary. One explicit error, then
        // close once it flushes.
        protocol_errors_.Add();
        // Poison BEFORE sending: SendError may flush to completion inline,
        // and the flush is what performs the deferred close.
        conn->close_after_flush = true;
        conn->read_buf.clear();
        SendError(conn, WireError::kCorrupted, error.message());
        return;
      case ExtractResult::kFrame:
        frames_in_.Add();
        DispatchFrame(conn, header, payload);
        // Dispatch may flush, and a flush error closes (frees) the conn.
        if (conns_.find(id) == conns_.end()) return;
        if (conn->close_after_flush) return;
        break;
    }
  }
}

void NetServer::DispatchFrame(Conn* conn, const FrameHeader& header,
                              const Bytes& payload) {
  if (draining_.load(std::memory_order_acquire)) {
    switch (header.type) {
      case FrameType::kQuery:
      case FrameType::kInsert:
      case FrameType::kDelete:
        // No new work while draining — but every refusal is an explicit,
        // whole frame, so the peer can fail over instead of guessing.
        frames_rejected_draining_.Add();
        SendError(conn, WireError::kUnavailable, "server draining");
        return;
      default:
        break;  // status requests still answered; they cost nothing
    }
  }
  switch (header.type) {
    case FrameType::kQuery:
      HandleQuery(conn, header, payload);
      return;
    case FrameType::kStatusRequest: {
      core::EngineStats stats = engine_->Stats();
      StatusReply reply;
      reply.snapshot_version = stats.snapshot_version;
      reply.queries_served = stats.queries_served;
      reply.queries_shed = stats.queries_shed;
      reply.deadline_exceeded = stats.deadline_exceeded;
      reply.rejected_unavailable = stats.rejected_unavailable;
      reply.queue_depth = stats.queue_depth;
      reply.in_flight = stats.in_flight;
      reply.updates_applied = stats.updates_applied;
      reply.stopped = stats.stopped;
      SendFrame(conn, FrameType::kStatusReply, EncodeStatusReply(reply));
      return;
    }
    case FrameType::kInsert: {
      if (owner_key_ == nullptr) {
        SendError(conn, WireError::kBadRequest,
                  "server holds no owner key; updates disabled");
        return;
      }
      UpdateTask task;
      task.conn_id = conn->id;
      task.is_insert = true;
      Status s = DecodeInsertRequest(payload, &task.insert);
      if (!s.ok()) {
        protocol_errors_.Add();
        SendError(conn, WireError::kCorrupted, s.message());
        return;
      }
      pending_replies_.fetch_add(1, std::memory_order_acq_rel);
      {
        std::lock_guard<std::mutex> lock(update_mu_);
        update_queue_.push_back(std::move(task));
      }
      update_cv_.notify_one();
      return;
    }
    case FrameType::kDelete: {
      if (owner_key_ == nullptr) {
        SendError(conn, WireError::kBadRequest,
                  "server holds no owner key; updates disabled");
        return;
      }
      UpdateTask task;
      task.conn_id = conn->id;
      task.is_insert = false;
      Status s = DecodeDeleteRequest(payload, &task.del);
      if (!s.ok()) {
        protocol_errors_.Add();
        SendError(conn, WireError::kCorrupted, s.message());
        return;
      }
      pending_replies_.fetch_add(1, std::memory_order_acq_rel);
      {
        std::lock_guard<std::mutex> lock(update_mu_);
        update_queue_.push_back(std::move(task));
      }
      update_cv_.notify_one();
      return;
    }
    case FrameType::kResponse:
    case FrameType::kError:
    case FrameType::kStatusReply:
    case FrameType::kUpdateAck:
    case FrameType::kCompositeResponse:
      // Server-to-client types arriving at the server: a confused or
      // hostile peer. Framing is intact, so answer and keep serving.
      SendError(conn, WireError::kBadRequest, "unexpected frame type");
      return;
  }
  SendError(conn, WireError::kBadRequest, "unexpected frame type");
}

void NetServer::HandleQuery(Conn* conn, const FrameHeader& header,
                            const Bytes& payload) {
  QueryRequest req;
  Status s = DecodeQueryRequest(payload, &req);
  if (!s.ok()) {
    protocol_errors_.Add();
    SendError(conn, WireError::kCorrupted, s.message());
    return;
  }
  if (req.k == 0 || req.k > kMaxTopK || req.features.empty()) {
    SendError(conn, WireError::kBadRequest,
              "query: k and features must be nonzero");
    return;
  }
  if ((header.flags & kFrameFlagComposite) != 0) {
    // Sharded scatter-gather path (kWireVersionComposite). The handler fans
    // out on its own executor; its completion hands the opaque composite
    // bytes to the poll thread through the same outbox as engine completions, so
    // drain accounting and connection lifetime work identically.
    if (!composite_handler_) {
      SendError(conn, WireError::kBadRequest,
                "composite serving not enabled on this server");
      return;
    }
    const uint64_t conn_id = conn->id;
    std::shared_ptr<Outbox> outbox = outbox_;
    pending_replies_.fetch_add(1, std::memory_order_acq_rel);
    composite_handler_(
        std::move(req.features), static_cast<size_t>(req.k),
        (header.flags & kFrameFlagCompressVo) != 0, req.deadline_ms,
        [outbox, conn_id](Result<Bytes> composite) {
          Bytes frame;
          if (composite.ok()) {
            frame = EncodeFrame(FrameType::kCompositeResponse, *composite, 0,
                                kWireVersionComposite);
          } else {
            frame = EncodeFrame(
                FrameType::kError,
                EncodeError({WireErrorFromStatus(composite.status().code()),
                             composite.status().message()}));
          }
          outbox->Push(conn_id, std::move(frame));
        });
    return;
  }
  core::SubmitOptions opts;
  opts.deadline = std::chrono::milliseconds(req.deadline_ms);
  // Compression is strictly opt-in per query: only a client that announced
  // it can decode the compressed VO section ever receives one.
  opts.compress_vo = (header.flags & kFrameFlagCompressVo) != 0;
  opts.settle_exact_topk = options_.settle_exact_topk;
  const uint64_t conn_id = conn->id;
  std::shared_ptr<Outbox> outbox = outbox_;
  const size_t k = static_cast<size_t>(req.k);
  // Admitted: the peer is now owed exactly one outbox frame (response or
  // error), which is what drain completion waits on.
  pending_replies_.fetch_add(1, std::memory_order_acq_rel);
  engine_->SubmitAsync(
      std::move(req.features), k, opts,
      [outbox, conn_id](core::EngineResponse r) {
        // Engine worker thread (or inline on the poll thread for immediate
        // shed/unavailable decisions). Serialization happens here so the
        // poll thread only moves bytes.
        Bytes frame;
        if (r.ok()) {
          ResponseFrame resp;
          resp.snapshot_version = r.snapshot->version;
          resp.root_signature = r.snapshot->params.root_signature;
          resp.vo_bytes = r.response.vo.Serialize();
          frame = EncodeFrame(FrameType::kResponse, EncodeResponse(resp));
        } else {
          frame = EncodeFrame(
              FrameType::kError,
              EncodeError({WireErrorFromStatus(r.status.code()),
                           r.status.message()}));
        }
        outbox->Push(conn_id, std::move(frame));
      });
}

void NetServer::UpdateLoop() {
  while (true) {
    UpdateTask task;
    {
      std::unique_lock<std::mutex> lock(update_mu_);
      update_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_acquire) || !update_queue_.empty();
      });
      if (update_queue_.empty()) {
        if (stop_.load(std::memory_order_acquire)) return;
        continue;
      }
      task = std::move(update_queue_.front());
      update_queue_.pop_front();
    }
    Result<core::UpdateStats> result =
        task.is_insert
            ? engine_->InsertImage(*owner_key_, task.insert.id,
                                   std::move(task.insert.bovw),
                                   std::move(task.insert.image_data))
            : engine_->DeleteImage(*owner_key_, task.del.id);
    Bytes frame;
    if (result.ok()) {
      UpdateAck ack;
      ack.new_version = engine_->Stats().snapshot_version;
      ack.lists_updated = result->lists_updated;
      ack.nodes_rehashed = result->mrkd_nodes_rehashed;
      frame = EncodeFrame(FrameType::kUpdateAck, EncodeUpdateAck(ack));
    } else {
      frame = EncodeFrame(
          FrameType::kError,
          EncodeError({WireErrorFromStatus(result.status().code()),
                       result.status().message()}));
    }
    outbox_->Push(task.conn_id, std::move(frame));
  }
}

void NetServer::SendFrame(Conn* conn, FrameType type, const Bytes& payload) {
  AppendFrame(type, payload, &conn->write_buf);
  frames_out_.Add();
  HandleWritable(conn);  // opportunistic flush; POLLOUT picks up the rest
}

void NetServer::SendError(Conn* conn, WireError code,
                          const std::string& message) {
  SendFrame(conn, FrameType::kError, EncodeError({code, message}));
}

void NetServer::DrainOutbox() {
  std::deque<std::pair<uint64_t, Bytes>> ready;
  {
    std::lock_guard<std::mutex> lock(outbox_->mu);
    ready.swap(outbox_->ready);
  }
  for (auto& [conn_id, frame] : ready) {
    if (frame.empty()) continue;  // Stop()/Drain() wakeup token
    pending_replies_.fetch_sub(1, std::memory_order_acq_rel);
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) continue;  // connection died before completion
    Conn* conn = it->second.get();
    conn->write_buf.insert(conn->write_buf.end(), frame.begin(), frame.end());
    frames_out_.Add();
    HandleWritable(conn);
  }
}

void NetServer::HandleWritable(Conn* conn) {
  while (conn->write_off < conn->write_buf.size()) {
    ssize_t n = ::send(conn->sock.fd(), conn->write_buf.data() + conn->write_off,
                       conn->write_buf.size() - conn->write_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      CloseConn(conn->id);
      return;
    }
    bytes_out_.Add(static_cast<uint64_t>(n));
    conn->write_off += static_cast<size_t>(n);
  }
  conn->write_buf.clear();
  conn->write_off = 0;
  if (conn->close_after_flush) CloseConn(conn->id);
}

void NetServer::CloseConn(uint64_t id) { conns_.erase(id); }

}  // namespace imageproof::net
