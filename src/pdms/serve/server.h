#ifndef PDMS_SERVE_SERVER_H_
#define PDMS_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pdms/core/pdms.h"
#include "pdms/obs/metrics.h"
#include "pdms/obs/trace.h"
#include "pdms/serve/executor.h"
#include "pdms/serve/wire.h"

namespace pdms {
namespace serve {

/// Tunables for the networked front-end (docs/serving.md).
struct ServerOptions {
  /// TCP port to bind; 0 picks an ephemeral port (read it back via
  /// `port()` after Start).
  uint16_t port = 0;
  /// Bind address. The default serves loopback only; bind 0.0.0.0
  /// explicitly to expose the server.
  std::string bind_address = "127.0.0.1";
  ExecutorOptions executor;
  /// Decode-side frame caps, shared by every connection.
  wire::Limits limits;
  /// Slow-loris guard: a connection holding a *partial* frame for longer
  /// than this is closed (`serve.read_timeouts`). Idle connections with no
  /// partial frame are not affected.
  double read_deadline_ms = 5000;
  /// A connection whose outbound buffer exceeds this (a consumer reading
  /// slower than it queries) is closed (`serve.slow_consumer_closed`).
  size_t max_write_buffer_bytes = 8u << 20;
  /// Connections beyond this are accepted and immediately closed.
  size_t max_connections = 64;
};

/// The networked serving front-end: a single poll-based event-loop thread
/// owns every socket (accept, read, frame assembly, write-buffer flush)
/// and hands admitted query frames to a RequestExecutor, whose workers
/// push completions back through a self-pipe. No connection ever blocks
/// the loop: sockets are non-blocking, reads assemble frames
/// incrementally through wire::FrameReader, and writes buffer (bounded)
/// until POLLOUT.
///
/// Robustness contract (tests/serve_overload_test.cc): malformed frames,
/// oversized payloads, truncated writes, slow-loris clients, and
/// mid-request disconnects each close at most their own connection —
/// counted in the registry, observable per connection via a detached
/// trace span — and never take down the server or corrupt another
/// connection's stream.
class PplServer {
 public:
  PplServer(ServerOptions options, obs::MetricsRegistry* metrics = nullptr,
            obs::TraceContext* trace = nullptr);
  ~PplServer();

  PplServer(const PplServer&) = delete;
  PplServer& operator=(const PplServer&) = delete;

  /// Binds, starts the executor over copies of `network`/`data`, and
  /// spawns the loop thread.
  Status Start(const PdmsNetwork& network, const Database& data);

  /// Stops accepting, drains in-flight requests, joins the loop thread,
  /// and closes every connection. Idempotent.
  void Stop();

  /// The bound port (valid after Start; resolves port 0 to the actual
  /// ephemeral port).
  uint16_t port() const { return bound_port_; }
  bool running() const { return running_.load(); }

  RequestExecutor* executor() { return executor_.get(); }
  const ServerOptions& options() const { return options_; }

  /// The full stats snapshot served to kStatsRequest frames: the
  /// executor's rolling/admission/remote-health sections plus the
  /// metrics registry and server-level counts. Loop thread, or after
  /// Stop (the ops daemon prints a final snapshot on graceful shutdown).
  std::string StatsJson() const;

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    wire::FrameReader reader;
    /// Outbound bytes not yet accepted by the kernel.
    std::string out;
    size_t out_offset = 0;
    /// Slow-loris bookkeeping: set while `reader` holds a partial frame,
    /// with the stopwatch started when the partial began.
    bool partial_pending = false;
    WallTimer partial_since;
    /// Detached span covering the connection's lifetime (loop thread
    /// only; kNoSpan when tracing is off).
    obs::SpanId span = obs::kNoSpan;
    uint64_t frames_in = 0;
    uint64_t frames_out = 0;

    explicit Connection(wire::Limits limits) : reader(limits) {}
  };

  void Loop();
  void AcceptNew();
  /// Reads whatever is available, assembles and dispatches frames.
  void HandleReadable(Connection* conn);
  Status DispatchFrame(Connection* conn, const wire::Frame& frame);
  void HandleScan(Connection* conn, const wire::Frame& frame);
  /// Queues bytes and flushes as much as the socket accepts.
  void QueueWrite(Connection* conn, std::string bytes);
  bool FlushWrites(Connection* conn);
  void CloseConnection(uint64_t conn_id, const char* reason);
  void DrainCompletions();
  /// Encodes `answer`, or — when its payload exceeds the frame cap both
  /// ends share (`limits.max_payload_bytes`) — a kResourceExhausted error
  /// answer naming both sizes (`serve.oversized_answers`).
  std::string EncodeAnswerWithinCap(const wire::AnswerFrame& answer);
  double NextDeadlineMs() const;

  ServerOptions options_;
  obs::MetricsRegistry* metrics_;  // not owned; may be null
  obs::TraceContext* trace_;       // not owned; loop thread only; nullable
  std::unique_ptr<RequestExecutor> executor_;
  Database database_;  // served to kScanRequest frames

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;   // self-pipe: workers signal completions
  int wake_write_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  bool started_ = false;

  uint64_t next_conn_id_ = 1;
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;

  std::mutex completions_mu_;
  std::vector<ServeOutcome> completions_;
};

}  // namespace serve
}  // namespace pdms

#endif  // PDMS_SERVE_SERVER_H_
