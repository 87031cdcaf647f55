#ifndef KBOOST_NET_SERVER_H_
#define KBOOST_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/wire.h"
#include "src/serve/boost_service.h"
#include "src/util/status.h"
#include "src/util/sync.h"

namespace kboost {

/// How a KboostServer listens and schedules work.
struct ServerOptions {
  /// Address to bind; loopback by default so a daemon started for a bench
  /// never listens on the open network unless asked to.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Worker threads draining the dispatch queue into BoostService::Solve.
  int num_workers = 2;
  /// Bounded dispatch queue between the event loop and the workers. A query
  /// arriving while the queue is full is answered immediately with a typed
  /// kUnavailable reply — the connection-level reject — instead of piling
  /// onto a saturated process. (The BoostService's own admission budget,
  /// when configured, is a second, finer gate inside Solve.)
  size_t max_dispatch_queue = 64;
  /// Decoder bound on a frame's declared body length; larger declarations
  /// are rejected typed and the connection closed.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Accepted connections beyond this are sent one kUnavailable error frame
  /// and closed.
  size_t max_connections = 256;
  /// Graceful-shutdown drain budget: in-flight solves get this long to
  /// finish; past it they are cooperatively cancelled (and answered
  /// kUnavailable). Queued-but-unstarted requests are answered kUnavailable
  /// immediately.
  uint64_t drain_deadline_ms = 2000;
  /// Whether a SHUTDOWN admin frame from a client triggers graceful
  /// shutdown (operators may prefer signals only).
  bool allow_remote_shutdown = true;
};

/// Point-in-time serving-process counters (distinct from the
/// BoostService's per-pool Stats(): these count wire-level events).
struct ServerCounters {
  uint64_t connections_accepted = 0;
  uint64_t active_connections = 0;  ///< gauge
  uint64_t frames_received = 0;
  uint64_t protocol_errors = 0;  ///< error frames sent before closing
  uint64_t queries_dispatched = 0;
  uint64_t unavailable_rejects = 0;  ///< typed queue-full/draining rejects
  uint64_t admin_frames = 0;         ///< STATS / REFRESH / SHUTDOWN
};

/// The kboostd serving front-end: exposes one BoostService over TCP with
/// the length-prefixed binary protocol of src/net/wire.h.
///
/// Threading model: one event-loop thread owns the listening socket, every
/// connection's input buffering and frame extraction (epoll on Linux, poll
/// elsewhere), and feeds complete query/refresh frames through a bounded
/// dispatch queue to `num_workers` worker threads, which call
/// BoostService::Solve and write the reply back on the request's
/// connection. One request is in flight per connection at a time (the
/// blocking client's contract); pipelined bytes wait in the connection
/// buffer. STATS is answered inline on the event loop (it is one lock-free
/// snapshot), REFRESH runs on a worker (pool preparation is seconds), and
/// SHUTDOWN triggers the graceful drain.
///
/// Per-request deadlines resolve through BoostService's single-budget
/// deadline path: the wire deadline_ms lands in BoostRequest::deadline_ms,
/// which Solve() converts once at entry to an absolute deadline covering
/// admission wait AND solve — dispatch-queue wait on this side of the call
/// is covered by the same budget because the worker passes the wire value
/// through untouched and the clock starts at Solve() entry; socket read
/// time is the client's own cost. Every overload outcome (shed, deadline
/// miss, degraded, shutdown reject) travels as a typed reply frame; a
/// connection is only ever closed without a reply when the peer itself
/// vanished or sent bytes that do not parse as a frame (and even then an
/// error frame is attempted first).
///
/// Graceful shutdown (RequestShutdown, a SHUTDOWN frame, or an installed
/// SIGINT/SIGTERM handler): the acceptor closes first, queued-but-unstarted
/// requests are answered kUnavailable, in-flight solves get
/// `drain_deadline_ms` to finish before cooperative cancellation, workers
/// are joined, and every connection is closed. Admission slots cannot leak:
/// they are RAII tickets inside Solve, and every dispatched request runs
/// Solve to completion (normally or cancelled) before its worker exits.
class KboostServer {
 public:
  /// Binds, listens and starts the event-loop and worker threads. `service`
  /// must outlive the server. Typed errors for bind/listen failures
  /// (kUnavailable when the address is in use).
  static StatusOr<std::unique_ptr<KboostServer>> Start(
      BoostService* service, const ServerOptions& options);

  /// Graceful shutdown + join, if still running.
  ~KboostServer();

  /// The actual bound port (useful with options.port = 0).
  uint16_t port() const { return port_; }

  /// Requests graceful shutdown and returns immediately. Async-signal-safe
  /// apart from being callable from any thread: it is one atomic store and
  /// one write() to the event loop's wake pipe.
  void RequestShutdown();

  /// RequestShutdown() + Wait().
  void Shutdown();

  /// Blocks until the server has fully shut down (event loop exited,
  /// workers joined, all connections closed).
  void Wait();

  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }
  /// True once Wait() would return without blocking.
  bool finished() const { return finished_.load(std::memory_order_acquire); }

  /// Installs SIGINT/SIGTERM handlers that RequestShutdown() this server
  /// (at most one server per process may install them; FailedPrecondition
  /// otherwise). The handler is one async-signal-safe write to the wake
  /// pipe. Handlers are restored when this server is destroyed.
  Status InstallSignalHandlers();

  ServerCounters counters() const;

 private:
  struct Connection;

  /// One dispatched request: the connection it answers on, the echoed id,
  /// and the decoded query/refresh payload. Complete here (not in the .cc)
  /// because the dispatch deque holds items by value.
  struct WorkItem {
    std::shared_ptr<Connection> conn;
    uint32_t request_id = 0;
    bool is_refresh = false;
    WireQuery query;
    WireRefresh refresh;
  };

  KboostServer(BoostService* service, const ServerOptions& options)
      : service_(service), options_(options) {}

  Status Listen();
  void EventLoop();
  void WorkerLoop();

  // Event-loop internals (called only from the event-loop thread).
  void AcceptNew();
  void ReadFrom(const std::shared_ptr<Connection>& conn);
  void ProcessBuffered(const std::shared_ptr<Connection>& conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const FrameHeader& header, const uint8_t* body);
  void FailConnection(const std::shared_ptr<Connection>& conn,
                      uint32_t request_id, const Status& error);
  void CloseConnection(int fd);
  void HandleCompletions();
  void UpdateReadInterest(const std::shared_ptr<Connection>& conn);
  void BeginDrain();

  // Worker-side reply path.
  void WriteReply(const std::shared_ptr<Connection>& conn,
                  const std::string& frame);
  void CompleteWork(const std::shared_ptr<Connection>& conn);

  BoostService* service_;
  const ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;

  // ---- The wake pipe and the drain handshake -------------------------------
  //
  // The event loop sleeps in epoll/poll; everything that must get its
  // attention writes ONE tagged byte to this self-pipe instead of touching
  // loop state directly:
  //   'c' — a worker finished a request (completed_fds_ has its fd),
  //   'q' — some thread called RequestShutdown(),
  //   'T' — the installed SIGINT/SIGTERM handler fired (the only operation
  //         a signal context performs is this async-signal-safe write()).
  // The loop drains the pipe, folds 'T' into shutdown_requested_, and acts
  // on its OWN thread — so connection/drain state needs no lock and no
  // signal-safety gymnastics. Shutdown then proceeds in one direction:
  //   shutdown_requested_ → BeginDrain() (close acceptor, set draining_) →
  //   outstanding_ reaches 0 (past drain_deadline_ms, drain_cancel_ is
  //   raised for every solve still to poll it) → stop_workers_ under
  //   queue_mutex_ →
  //   workers joined → connections closed → finished_.
  // No step is ever reversed, which is why each flag can be an independent
  // atomic rather than multi-field state under one lock.
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  std::thread io_thread_;
  std::vector<std::thread> workers_;

  // Dispatch queue between the event loop and workers.
  Mutex queue_mutex_;
  CondVar queue_cv_;
  std::deque<WorkItem> queue_ KB_GUARDED_BY(queue_mutex_);
  bool stop_workers_ KB_GUARDED_BY(queue_mutex_) = false;

  // Completion notifications back to the event loop.
  Mutex completed_mutex_;
  std::vector<int> completed_fds_ KB_GUARDED_BY(completed_mutex_);

  // Event-loop-owned connection registry (no lock by design: only the event
  // loop thread touches the map and the outstanding_ counter, from EventLoop
  // and the helpers it calls; workers hold shared_ptr<Connection> but never
  // the map. Thread ownership is invisible to -Wthread-safety, so the
  // contract is documented here and enforced by keeping every accessor
  // private to the event-loop section above).
  std::map<int, std::shared_ptr<Connection>> connections_;
  size_t outstanding_ = 0;  ///< dispatched, not yet completed (event loop)

  // One-way lifecycle flags (see the drain-handshake comment above). Each is
  // set-once-and-sticky, read with one relaxed/acquire load — none of them
  // guards other data, so none is a pseudo-lock.
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> draining_{false};
  /// Cooperative cancel flag handed to every dispatched Solve; set when the
  /// drain deadline passes so in-flight selections stop at their next poll.
  std::atomic<bool> drain_cancel_{false};
  std::atomic<bool> finished_{false};
  bool signal_handlers_installed_ = false;  ///< main-thread-owned (Start/dtor)

  Mutex join_mutex_;  // serializes Wait() callers
  bool joined_ KB_GUARDED_BY(join_mutex_) = false;

  // Counters (relaxed; read by counters()).
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> dispatched_{0};
  std::atomic<uint64_t> unavailable_rejects_{0};
  std::atomic<uint64_t> admin_frames_{0};
  std::atomic<uint64_t> active_{0};
};

}  // namespace kboost

#endif  // KBOOST_NET_SERVER_H_
