#include "pdms/serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "pdms/util/strings.h"

namespace pdms {
namespace serve {
namespace {

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(
        StrFormat("fcntl(O_NONBLOCK): %s", std::strerror(errno)));
  }
  return Status::Ok();
}

}  // namespace

PplServer::PplServer(ServerOptions options, obs::MetricsRegistry* metrics,
                     obs::TraceContext* trace)
    : options_(options), metrics_(metrics), trace_(trace) {}

PplServer::~PplServer() { Stop(); }

Status PplServer::Start(const PdmsNetwork& network, const Database& data) {
  if (started_) return Status::FailedPrecondition("server already started");
  started_ = true;
  database_ = data;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(StrFormat("socket: %s", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument(
        StrFormat("bad bind address '%s'", options_.bind_address.c_str()));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::Unavailable(StrFormat("bind: %s", std::strerror(errno)));
  }
  if (::listen(listen_fd_, 64) < 0) {
    return Status::Internal(StrFormat("listen: %s", std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Status::Internal(
        StrFormat("getsockname: %s", std::strerror(errno)));
  }
  bound_port_ = ntohs(addr.sin_port);
  PDMS_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    return Status::Internal(StrFormat("pipe: %s", std::strerror(errno)));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  PDMS_RETURN_IF_ERROR(SetNonBlocking(wake_read_fd_));
  PDMS_RETURN_IF_ERROR(SetNonBlocking(wake_write_fd_));

  executor_ =
      std::make_unique<RequestExecutor>(options_.executor, metrics_);
  PDMS_RETURN_IF_ERROR(executor_->Start(
      network, data, [this](ServeOutcome outcome) {
        {
          std::lock_guard<std::mutex> lock(completions_mu_);
          completions_.push_back(std::move(outcome));
        }
        // Wake the poll loop. The pipe is non-blocking: if its buffer is
        // full a wake is already pending, so a failed write is harmless.
        char byte = 1;
        [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
      }));

  running_.store(true);
  loop_thread_ = std::thread([this] { Loop(); });
  return Status::Ok();
}

void PplServer::Stop() {
  if (!started_) return;
  if (!stop_requested_.exchange(true)) {
    char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  // Drain workers before tearing down the fds their completion callback
  // writes to.
  if (executor_ != nullptr) executor_->Stop();
  for (auto& [id, conn] : connections_) {
    if (conn->fd >= 0) ::close(conn->fd);
    if (trace_ != nullptr && conn->span != obs::kNoSpan) {
      trace_->EndSpan(conn->span);
    }
  }
  connections_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
  running_.store(false);
}

double PplServer::NextDeadlineMs() const {
  double next = 100;  // housekeeping tick
  for (const auto& [id, conn] : connections_) {
    if (!conn->partial_pending) continue;
    double remaining =
        options_.read_deadline_ms - conn->partial_since.ElapsedMillis();
    next = std::min(next, std::max(remaining, 1.0));
  }
  return next;
}

void PplServer::Loop() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_conn;  // conn id per pollfd entry (0 = not a conn)
  while (!stop_requested_.load()) {
    fds.clear();
    fd_conn.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    fd_conn.push_back(0);
    fds.push_back({wake_read_fd_, POLLIN, 0});
    fd_conn.push_back(0);
    for (auto& [id, conn] : connections_) {
      short events = POLLIN;
      if (conn->out_offset < conn->out.size()) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
      fd_conn.push_back(id);
    }

    int timeout = static_cast<int>(NextDeadlineMs());
    int ready = ::poll(fds.data(), fds.size(), timeout < 1 ? 1 : timeout);
    if (ready < 0 && errno != EINTR) break;

    if (fds[0].revents & POLLIN) AcceptNew();
    if (fds[1].revents & POLLIN) {
      char drain[256];
      while (::read(wake_read_fd_, drain, sizeof(drain)) > 0) {
      }
    }
    DrainCompletions();

    // Snapshot ids: handlers may close (erase) connections.
    for (size_t i = 2; i < fds.size(); ++i) {
      uint64_t id = fd_conn[i];
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;
      Connection* conn = it->second.get();
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        CloseConnection(id, "peer hung up");
        continue;
      }
      if (fds[i].revents & POLLOUT) {
        if (!FlushWrites(conn)) {
          CloseConnection(id, "write failed");
          continue;
        }
      }
      if (fds[i].revents & POLLIN) HandleReadable(conn);
    }

    // Slow-loris sweep: connections stuck mid-frame past the read
    // deadline are dropped.
    std::vector<uint64_t> expired;
    for (auto& [id, conn] : connections_) {
      if (conn->partial_pending &&
          conn->partial_since.ElapsedMillis() > options_.read_deadline_ms) {
        expired.push_back(id);
      }
    }
    for (uint64_t id : expired) {
      if (metrics_) metrics_->Add("serve.read_timeouts");
      CloseConnection(id, "read deadline (partial frame)");
    }
  }
}

void PplServer::AcceptNew() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: poll again
    if (connections_.size() >= options_.max_connections) {
      if (metrics_) metrics_->Add("serve.rejected_connections");
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>(options_.limits);
    conn->fd = fd;
    conn->id = next_conn_id_++;
    if (trace_ != nullptr) {
      conn->span = trace_->StartSpanAt(
          StrFormat("conn#%llu", static_cast<unsigned long long>(conn->id)),
          obs::kNoSpan);
    }
    if (metrics_) metrics_->Add("serve.accepted");
    connections_.emplace(conn->id, std::move(conn));
  }
}

void PplServer::HandleReadable(Connection* conn) {
  const uint64_t id = conn->id;
  char buf[64 * 1024];
  size_t round_bytes = 0;
  while (round_bytes < (1u << 20)) {  // fairness cap per poll round
    ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      round_bytes += static_cast<size_t>(n);
      if (metrics_) metrics_->Add("serve.bytes_in", static_cast<uint64_t>(n));
      conn->reader.Append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      CloseConnection(id, "peer closed");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(id, "read error");
    return;
  }

  while (true) {
    wire::Frame frame;
    Result<bool> next = conn->reader.Next(&frame);
    if (!next.ok()) {
      if (metrics_) metrics_->Add("serve.protocol_errors");
      if (trace_ != nullptr && conn->span != obs::kNoSpan) {
        trace_->SetAttribute(conn->span, "protocol_error",
                             next.status().message());
      }
      CloseConnection(id, "protocol error");
      return;
    }
    if (!*next) break;
    conn->frames_in++;
    if (metrics_) metrics_->Add("serve.frames_in");
    Status dispatched = DispatchFrame(conn, frame);
    if (!dispatched.ok()) {
      if (metrics_) metrics_->Add("serve.protocol_errors");
      CloseConnection(id, "bad frame");
      return;
    }
    // Dispatch may have closed the connection (e.g. write-buffer cap).
    if (connections_.find(id) == connections_.end()) return;
  }

  // Track the start of a partial frame for the slow-loris deadline; a
  // completed frame resets the clock.
  if (conn->reader.has_partial()) {
    if (!conn->partial_pending) {
      conn->partial_pending = true;
      conn->partial_since.Reset();
    }
  } else {
    conn->partial_pending = false;
  }
}

Status PplServer::DispatchFrame(Connection* conn, const wire::Frame& frame) {
  switch (frame.type) {
    case wire::FrameType::kQuery: {
      PDMS_ASSIGN_OR_RETURN(wire::QueryFrame query,
                            wire::DecodeQuery(frame, options_.limits));
      if (metrics_) metrics_->Add("serve.requests");
      ServeRequest request;
      request.conn_id = conn->id;
      request.request_id = query.request_id;
      request.query = std::move(query.query);
      request.budget_ms = query.budget_ms;
      request.trace = std::move(query.trace);
      std::optional<wire::ShedFrame> shed =
          executor_->Submit(std::move(request));
      if (shed.has_value()) {
        QueueWrite(conn, wire::EncodeShed(*shed));
      }
      return Status::Ok();
    }
    case wire::FrameType::kPing: {
      PDMS_ASSIGN_OR_RETURN(uint64_t ping_id, wire::DecodePing(frame));
      QueueWrite(conn, wire::EncodePong(ping_id));
      return Status::Ok();
    }
    case wire::FrameType::kScanRequest: {
      HandleScan(conn, frame);
      return Status::Ok();
    }
    case wire::FrameType::kStatsRequest: {
      PDMS_ASSIGN_OR_RETURN(wire::StatsRequestFrame stats,
                            wire::DecodeStatsRequest(frame));
      if (metrics_) metrics_->Add("serve.stats_requests");
      wire::StatsResponseFrame response;
      response.request_id = stats.request_id;
      response.json = StatsJson();
      QueueWrite(conn, wire::EncodeStatsResponse(response));
      return Status::Ok();
    }
    default:
      // Answer/shed/pong/scan-response are server-to-client only.
      return Status::InvalidArgument(
          StrFormat("client sent %s frame",
                    wire::FrameTypeName(frame.type)));
  }
}

void PplServer::HandleScan(Connection* conn, const wire::Frame& frame) {
  Result<wire::ScanFrame> request =
      wire::DecodeScanFrame(frame, options_.limits);
  if (!request.ok()) {
    if (metrics_) metrics_->Add("serve.protocol_errors");
    CloseConnection(conn->id, "bad scan frame");
    return;
  }
  // A traced scan records its serving into an ephemeral context under the
  // caller's trace id; the spans ride back in the response for the caller
  // to graft. Untraced scans answer version-1, byte-identical to before.
  const bool traced = request->trace.has_value();
  obs::TraceContext scan_trace(traced ? request->trace->trace_id : "scan");
  obs::ScopedSpan scan_span(traced ? &scan_trace : nullptr, "scan");
  scan_span.Set("relation", request->message.relation);

  // The promoted sim framing end to end: answer a stored-relation scan
  // exactly like a sim peer node would, from this server's database.
  wire::ScanFrame reply;
  sim::Message& response = reply.message;
  response.type = sim::Message::Type::kScanResponse;
  response.request_id = request->message.request_id;
  response.relation = request->message.relation;
  const Relation* relation = database_.Find(request->message.relation);
  if (relation == nullptr) {
    response.status = Status::NotFound(StrFormat(
        "no stored relation '%s'", request->message.relation.c_str()));
    scan_span.Set("error", "not_found");
  } else {
    response.arity = relation->arity();
    response.tuples = relation->tuples();
    scan_span.Set("tuples", static_cast<uint64_t>(response.tuples.size()));
  }
  if (traced) {
    scan_span.End();
    wire::SpanBlock block;
    block.trace_id = scan_trace.trace_id();
    block.spans = scan_trace.spans();
    reply.spans = std::move(block);
  }
  QueueWrite(conn, wire::EncodeScanFrame(reply));
}

std::string PplServer::StatsJson() const {
  std::string out = "{";
  out += executor_ != nullptr ? executor_->StatsJsonFragment()
                              : std::string("\"rolling\": null");
  out += StrFormat(", \"server\": {\"connections\": %zu, \"port\": %u}",
                   connections_.size(),
                   static_cast<unsigned>(bound_port_));
  out += ", \"metrics\": ";
  out += metrics_ != nullptr ? metrics_->ToJson() : std::string("null");
  out += "}";
  return out;
}

void PplServer::QueueWrite(Connection* conn, std::string bytes) {
  conn->out.append(bytes);
  conn->frames_out++;
  if (metrics_) metrics_->Add("serve.frames_out");
  if (!FlushWrites(conn)) {
    CloseConnection(conn->id, "write failed");
    return;
  }
  auto it = connections_.find(conn->id);
  if (it == connections_.end()) return;
  if (conn->out.size() - conn->out_offset > options_.max_write_buffer_bytes) {
    if (metrics_) metrics_->Add("serve.slow_consumer_closed");
    CloseConnection(conn->id, "write buffer over cap");
  }
}

bool PplServer::FlushWrites(Connection* conn) {
  while (conn->out_offset < conn->out.size()) {
    ssize_t n = ::write(conn->fd, conn->out.data() + conn->out_offset,
                        conn->out.size() - conn->out_offset);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      if (metrics_) {
        metrics_->Add("serve.bytes_out", static_cast<uint64_t>(n));
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;  // broken pipe / reset: caller closes
  }
  if (conn->out_offset == conn->out.size()) {
    conn->out.clear();
    conn->out_offset = 0;
  } else if (conn->out_offset > (1u << 16)) {
    conn->out.erase(0, conn->out_offset);
    conn->out_offset = 0;
  }
  return true;
}

void PplServer::CloseConnection(uint64_t conn_id, const char* reason) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection* conn = it->second.get();
  if (trace_ != nullptr && conn->span != obs::kNoSpan) {
    trace_->SetAttribute(conn->span, "close_reason", reason);
    trace_->SetAttribute(conn->span, "frames_in", conn->frames_in);
    trace_->SetAttribute(conn->span, "frames_out", conn->frames_out);
    trace_->EndSpan(conn->span);
  }
  if (metrics_) metrics_->Add("serve.closed");
  ::close(conn->fd);
  connections_.erase(it);
}

void PplServer::DrainCompletions() {
  std::vector<ServeOutcome> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (ServeOutcome& outcome : batch) {
    auto it = connections_.find(outcome.conn_id);
    if (it == connections_.end()) {
      // The client disconnected while its request was in flight; the
      // answer is dropped, the server unharmed.
      if (metrics_) metrics_->Add("serve.orphaned_responses");
      continue;
    }
    Connection* conn = it->second.get();
    if (outcome.shed) {
      QueueWrite(conn, wire::EncodeShed(outcome.shed_frame));
    } else {
      QueueWrite(conn, EncodeAnswerWithinCap(outcome.answer));
    }
  }
}

std::string PplServer::EncodeAnswerWithinCap(const wire::AnswerFrame& answer) {
  std::string bytes = wire::EncodeAnswer(answer);
  const size_t payload = bytes.size() - wire::kHeaderBytes;
  const size_t cap = options_.limits.max_payload_bytes;
  if (payload <= cap) return bytes;
  // The peer's decoder would refuse this frame and drop the connection;
  // an error answer keeps the connection usable.
  if (metrics_) metrics_->Add("serve.oversized_answers");
  wire::AnswerFrame error;
  error.request_id = answer.request_id;
  error.status_code = static_cast<uint32_t>(StatusCode::kResourceExhausted);
  error.status_message =
      StrFormat("answer of %zu bytes exceeds the %zu-byte frame cap", payload,
                cap);
  error.server_ms = answer.server_ms;
  return wire::EncodeAnswer(error);
}

}  // namespace serve
}  // namespace pdms
