#include "service/server.hpp"

#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fault.hpp"
#include "service/json.hpp"
#include "service/net.hpp"
#include "service/protocol.hpp"
#include "service/tenant.hpp"

namespace fastqaoa::service {

namespace {

using SteadyClock = std::chrono::steady_clock;

// Self-pipe: the write end is the only thing the signal handler touches.
std::atomic<int> g_signal_pipe_wr{-1};

extern "C" void daemon_signal_handler(int /*signo*/) {
  const int fd = g_signal_pipe_wr.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    // write() is async-signal-safe; a full pipe just means a wakeup is
    // already pending.
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

/// Connection ids ready for a pump: worker threads post here from progress
/// close hooks (sync job finished) and subscription notifies (stream event
/// landed), then poke the event loop awake through a non-blocking pipe.
/// Stale ids (connection already closed) are simply ignored at drain time.
class ReadyQueue {
 public:
  void set_wake_fd(int fd) noexcept { wake_fd_ = fd; }

  void post(std::uint64_t conn_id) {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      wake = ids_.empty();
      ids_.push_back(conn_id);
    }
    if (wake && wake_fd_ >= 0) {
      const char byte = 1;
      // Non-blocking pipe: EAGAIN means a wakeup is already pending.
      [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &byte, 1);
    }
  }

  std::vector<std::uint64_t> drain() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::uint64_t> out;
    out.swap(ids_);
    return out;
  }

 private:
  std::mutex mu_;
  std::vector<std::uint64_t> ids_;
  int wake_fd_ = -1;
};

/// One connection's state machine. The loop thread owns everything here;
/// worker threads only ever touch the ReadyQueue.
struct Conn {
  int fd = -1;
  std::uint64_t id = 0;   ///< epoll key (and ReadyQueue token)
  std::uint64_t seq = 0;  ///< accept order, 1-based (fault discriminator)
  RequestContext ctx;

  std::string rbuf;                 ///< bytes not yet split into lines
  std::deque<std::string> lines;    ///< complete request lines awaiting serve
  std::string wbuf;                 ///< pending output
  std::size_t woff = 0;             ///< wbuf bytes already sent
  std::uint32_t interest = 0;       ///< current epoll event mask
  bool peer_eof = false;
  bool simulated_stall = false;     ///< net.stall_reader: pretend EAGAIN

  enum class Mode { Idle, WaitJob, Stream } mode = Mode::Idle;
  std::shared_ptr<Job> wait_job;    ///< WaitJob: sync job being awaited
  std::shared_ptr<Job> stream_job;  ///< Stream: job being watched
  ProgressChannel::Subscription sub;
  int throttle_ms = 0;
  SteadyClock::time_point next_stream_at{};

  SteadyClock::time_point last_activity{};
  SteadyClock::time_point last_write_progress{};

  [[nodiscard]] std::size_t pending_out() const noexcept {
    return wbuf.size() - woff;
  }
};

/// Best-effort atomic rewrite of the Prometheus text file (scrape targets
/// tolerate a stale file better than a torn one).
void write_prometheus_file(Service& service, const std::string& path) {
  try {
    runtime::atomic_write_file(path, metrics_prometheus(service),
                               "daemon_prometheus");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qaoa_serve: prometheus write failed: %s\n",
                 e.what());
  }
}

/// The whole front end: listeners, connections, timers, drain. One instance
/// per run_daemon call; runs on the calling thread.
class EventLoop {
 public:
  EventLoop(Service& service, const DaemonOptions& options, int signal_rfd,
            const int* listen_fds, int n_listeners)
      : service_(service),
        opts_(options),
        signal_rfd_(signal_rfd),
        n_listeners_(n_listeners) {
    for (int i = 0; i < n_listeners; ++i) listen_fds_[i] = listen_fds[i];
  }

  ~EventLoop() {
    for (auto& [id, c] : conns_) close_fd(c->fd);
    conns_.clear();
    if (epoll_fd_ >= 0) close_fd(epoll_fd_);
    if (wake_pipe_[0] >= 0) close_fd(wake_pipe_[0]);
    if (wake_pipe_[1] >= 0) close_fd(wake_pipe_[1]);
  }

  /// Returns 0 after a clean drain, 2 on a setup failure.
  int run() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      std::fprintf(stderr, "qaoa_serve: epoll_create1: %s\n",
                   std::strerror(errno));
      return 2;
    }
    if (::pipe(wake_pipe_) != 0) {
      std::fprintf(stderr, "qaoa_serve: pipe: %s\n", std::strerror(errno));
      return 2;
    }
    set_nonblocking(wake_pipe_[0], true);
    set_nonblocking(wake_pipe_[1], true);
    ready_.set_wake_fd(wake_pipe_[1]);

    add_watch(signal_rfd_, kKeySignal, EPOLLIN);
    add_watch(wake_pipe_[0], kKeyWake, EPOLLIN);
    for (int i = 0; i < n_listeners_; ++i) {
      set_nonblocking(listen_fds_[i], true);
      add_watch(listen_fds_[i], kKeyListener0 + static_cast<std::uint64_t>(i),
                EPOLLIN);
    }

    const bool periodic = !opts_.prometheus_path.empty();
    auto last_metrics = SteadyClock::now();
    if (periodic) write_prometheus_file(service_, opts_.prometheus_path);

    bool drain = false;
    while (!drain) {
      epoll_event events[64];
      const int rc = ::epoll_wait(epoll_fd_, events, 64, kTickMs);
      if (rc < 0) {
        if (errno == EINTR) continue;
        std::fprintf(stderr, "qaoa_serve: epoll_wait: %s\n",
                     std::strerror(errno));
        break;  // fall through to drain: never exit without flushing
      }
      for (int i = 0; i < rc && !drain; ++i) {
        const std::uint64_t key = events[i].data.u64;
        const std::uint32_t ev = events[i].events;
        if (key == kKeySignal) {
          drain = true;
        } else if (key == kKeyWake) {
          drain_pipe(wake_pipe_[0]);
        } else if (key >= kKeyListener0 && key < kKeyListener0 + 2) {
          accept_burst(static_cast<int>(key - kKeyListener0));
        } else {
          auto it = conns_.find(key);
          if (it == conns_.end()) continue;  // already closed this round
          Conn* c = it->second.get();
          if ((ev & (EPOLLHUP | EPOLLERR)) != 0 && (ev & EPOLLIN) == 0 &&
              c->pending_out() == 0) {
            close_conn(c->id);
            continue;
          }
          bool alive = true;
          if ((ev & EPOLLOUT) != 0) alive = on_writable(c);
          if (alive && (ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
            on_readable(c);
          }
        }
      }
      if (drain) break;

      // Worker-thread completions (sync jobs, stream events).
      for (const std::uint64_t id : ready_.drain()) {
        auto it = conns_.find(id);
        if (it != conns_.end()) pump(it->second.get());
      }

      housekeeping();

      if (periodic) {
        const auto now = SteadyClock::now();
        if (std::chrono::duration<double>(now - last_metrics).count() >=
            opts_.metrics_interval_seconds) {
          write_prometheus_file(service_, opts_.prometheus_path);
          last_metrics = now;
        }
      }
    }

    drain_and_close();
    return 0;
  }

 private:
  static constexpr std::uint64_t kKeySignal = 0;
  static constexpr std::uint64_t kKeyWake = 1;
  static constexpr std::uint64_t kKeyListener0 = 2;
  static constexpr std::uint64_t kFirstConnId = 16;
  static constexpr int kTickMs = 100;
  static constexpr std::size_t kReadChunk = 64 * 1024;

  // ---- epoll plumbing -----------------------------------------------------

  void add_watch(int fd, std::uint64_t key, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = key;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      throw Error(std::string("epoll_ctl(ADD): ") + std::strerror(errno));
    }
  }

  static void drain_pipe(int fd) {
    char buf[256];
    while (::read(fd, buf, sizeof(buf)) > 0) {
    }
  }

  /// Recompute the connection's epoll interest from its buffer state:
  /// EPOLLIN while we are willing to buffer more input, EPOLLOUT only while
  /// output is pending.
  void update_interest(Conn* c) {
    std::uint32_t want = 0;
    const bool read_more = !c->peer_eof &&
                           c->lines.size() < opts_.max_pipeline &&
                           c->rbuf.size() <= opts_.max_line_bytes;
    if (read_more) want |= EPOLLIN;
    if (c->pending_out() > 0) want |= EPOLLOUT;
    if (want == c->interest) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = c->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev) == 0) {
      c->interest = want;
    }
  }

  // ---- accept path --------------------------------------------------------

  void accept_burst(int listener) {
    const int lfd = listen_fds_[listener];
    bool shed_tried = false;
    for (;;) {
      const int fd = ::accept4(lfd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if (errno == EMFILE || errno == ENFILE) {
          // fd pressure: shed the oldest idle connection to make room, then
          // retry once. If nothing is sheddable, back off until next tick.
          if (!shed_tried && shed_oldest_idle()) {
            shed_tried = true;
            continue;
          }
          return;
        }
        return;  // other transient accept failure
      }
      const std::uint64_t seq = ++accept_seq_;
      if (FASTQAOA_FAULT_FIRE("net.accept_fail",
                              static_cast<long long>(seq))) {
        close_fd(fd);  // simulated transient accept failure
        continue;
      }
      if (conns_.size() >= opts_.max_connections) {
        service_.frontend.rejected_conn_limit.fetch_add(
            1, std::memory_order_relaxed);
        const std::string line =
            error_response("too_many_connections",
                           "connection limit reached, try again later")
                .dump() +
            "\n";
        [[maybe_unused]] const ssize_t n =
            ::send(fd, line.data(), line.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
        close_fd(fd);
        continue;
      }
      if (opts_.sndbuf_bytes > 0) set_send_buffer(fd, opts_.sndbuf_bytes);

      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->id = next_conn_id_++;
      conn->seq = seq;
      conn->ctx.trusted = false;  // socket clients must present keys
      conn->last_activity = SteadyClock::now();
      conn->last_write_progress = conn->last_activity;
      if (FASTQAOA_FAULT_FIRE("net.stall_reader",
                              static_cast<long long>(seq))) {
        conn->simulated_stall = true;  // peer "never drains": writes stall
      }
      Conn* c = conn.get();
      conns_.emplace(c->id, std::move(conn));
      try {
        add_watch(c->fd, c->id, EPOLLIN);
        c->interest = EPOLLIN;
      } catch (const std::exception&) {
        close_fd(c->fd);
        conns_.erase(c->id);
        continue;
      }
      service_.frontend.accepted.fetch_add(1, std::memory_order_relaxed);
      service_.frontend.active.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Shed the least-recently-active fully idle connection (EMFILE relief).
  bool shed_oldest_idle() {
    Conn* victim = nullptr;
    for (auto& [id, c] : conns_) {
      if (c->mode != Conn::Mode::Idle || !c->lines.empty() ||
          c->pending_out() != 0) {
        continue;
      }
      if (victim == nullptr || c->last_activity < victim->last_activity) {
        victim = c.get();
      }
    }
    if (victim == nullptr) return false;
    service_.frontend.shed_fd_pressure.fetch_add(1,
                                                 std::memory_order_relaxed);
    evict(victim, "shed_fd_pressure",
          "connection shed under file-descriptor pressure");
    return true;
  }

  // ---- read path ----------------------------------------------------------

  void on_readable(Conn* c) {
    char buf[kReadChunk];
    for (;;) {
      if (c->lines.size() >= opts_.max_pipeline) break;  // backpressure
      const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_conn(c->id);  // peer reset
        return;
      }
      if (n == 0) {
        c->peer_eof = true;
        break;
      }
      c->last_activity = SteadyClock::now();
      if (FASTQAOA_FAULT_FIRE("net.drop_connection",
                              static_cast<long long>(c->seq))) {
        close_conn(c->id);  // simulated mid-frame connection drop
        return;
      }
      c->rbuf.append(buf, static_cast<std::size_t>(n));
      const bool oversized_line = !split_lines(c);
      // Reject past max_line_bytes whether the line is still accumulating
      // (the unbounded-buffering guard) or arrived complete in one read.
      if (oversized_line || c->rbuf.size() > opts_.max_line_bytes) {
        service_.frontend.evicted_oversize.fetch_add(
            1, std::memory_order_relaxed);
        send_best_effort(
            c, error_response("bad_request",
                              "request line exceeds " +
                                  std::to_string(opts_.max_line_bytes) +
                                  " bytes")
                   .dump());
        close_conn(c->id);
        return;
      }
    }
    if (c->peer_eof && !c->rbuf.empty()) {
      // Tolerate a missing trailing newline before EOF (curl-style).
      c->lines.push_back(std::move(c->rbuf));
      c->rbuf.clear();
    }
    pump(c);
  }

  /// Extract complete lines from the read buffer. Returns false when a
  /// completed line exceeds max_line_bytes (the caller evicts).
  bool split_lines(Conn* c) {
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = c->rbuf.find('\n', start);
      if (nl == std::string::npos) break;
      if (nl - start > opts_.max_line_bytes) return false;
      if (nl > start) {
        c->lines.emplace_back(c->rbuf, start, nl - start);
      }
      start = nl + 1;
    }
    if (start > 0) c->rbuf.erase(0, start);
    return true;
  }

  // ---- write path ---------------------------------------------------------

  /// Push as much pending output as the socket accepts. Returns false when
  /// the connection died (and was closed) in the attempt.
  bool try_flush(Conn* c) {
    while (c->woff < c->wbuf.size()) {
      if (c->simulated_stall) break;  // net.stall_reader: kernel "full"
      std::size_t len = c->wbuf.size() - c->woff;
      if (FASTQAOA_FAULT_FIRE("net.short_write",
                              static_cast<long long>(c->seq))) {
        len = 1;  // simulated short write: one byte this pass
      }
      std::size_t n = 0;
      try {
        n = write_some(c->fd, c->wbuf.data() + c->woff, len);
      } catch (const std::exception&) {
        close_conn(c->id);  // peer gone mid-response
        return false;
      }
      if (n == 0) break;  // kernel buffer full
      c->woff += n;
      c->last_write_progress = SteadyClock::now();
    }
    if (c->woff == c->wbuf.size()) {
      c->wbuf.clear();
      c->woff = 0;
    } else if (c->woff > (1u << 20)) {
      c->wbuf.erase(0, c->woff);
      c->woff = 0;
    }
    return true;
  }

  /// Queue one response line. Returns false when the connection died.
  bool send_line(Conn* c, const std::string& line) {
    // The stall clock starts when output first becomes pending, not from
    // whenever the last byte happened to flow.
    if (c->pending_out() == 0) c->last_write_progress = SteadyClock::now();
    c->wbuf += line;
    c->wbuf += '\n';
    return try_flush(c);
  }

  /// One best-effort non-blocking write, used on paths that close the
  /// connection right after (eviction notices, reject-at-accept).
  void send_best_effort(Conn* c, const std::string& line) {
    const std::string framed = line + "\n";
    [[maybe_unused]] const ssize_t n = ::send(
        c->fd, framed.data(), framed.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  }

  bool on_writable(Conn* c) {
    const std::uint64_t id = c->id;
    if (!try_flush(c)) return false;
    pump(c);  // may close (and free) the connection
    return conns_.count(id) != 0;
  }

  // ---- the FSM pump -------------------------------------------------------

  /// Advance a connection as far as it can go right now: deliver a finished
  /// sync job, stream subscription events, then serve pipelined request
  /// lines — stopping at backpressure (full write buffer), an unfinished
  /// job, or an empty input queue.
  void pump(Conn* c) {
    const std::uint64_t id = c->id;
    for (;;) {
      if (conns_.count(id) == 0) return;  // closed underneath us
      if (c->mode == Conn::Mode::WaitJob) {
        if (!c->wait_job->terminal()) break;
        Json j = job_to_json(*c->wait_job);
        j.set("ok", Json(true));
        c->wait_job.reset();
        c->mode = Conn::Mode::Idle;
        if (!send_line(c, j.dump())) return;
        continue;
      }
      if (c->mode == Conn::Mode::Stream) {
        if (!pump_stream(c)) return;
        if (c->mode == Conn::Mode::Stream) break;  // waiting on events
        continue;
      }
      // Idle: serve the next pipelined request line.
      if (c->lines.empty()) break;
      if (c->pending_out() >= opts_.write_buffer_cap) break;
      const std::string line = std::move(c->lines.front());
      c->lines.pop_front();
      if (!handle_line(c, line)) return;
    }
    if (c->peer_eof && c->mode == Conn::Mode::Idle && c->lines.empty() &&
        c->pending_out() == 0) {
      close_conn(id);
      return;
    }
    update_interest(c);
  }

  /// Move subscription events into the write buffer. Returns false when the
  /// connection died. Leaves mode == Idle once the terminal event is
  /// queued.
  bool pump_stream(Conn* c) {
    for (;;) {
      if (c->pending_out() >= opts_.write_buffer_cap) return true;
      const bool closed = c->stream_job->progress.closed();
      if (c->throttle_ms > 0 && !closed &&
          SteadyClock::now() < c->next_stream_at) {
        return true;  // housekeeping re-pumps when the throttle expires
      }
      std::string line;
      if (!c->sub.try_next(line)) {
        if (c->sub.finished()) {
          end_stream(c);
        }
        return true;
      }
      c->next_stream_at =
          SteadyClock::now() + std::chrono::milliseconds(c->throttle_ms);
      bool terminal = false;
      line = stamp_terminal_event(line, c->sub.dropped(), &terminal);
      if (!send_line(c, line)) return false;
      if (terminal) {
        end_stream(c);
        return true;
      }
    }
  }

  void end_stream(Conn* c) {
    c->sub.detach();
    c->sub = ProgressChannel::Subscription();
    c->stream_job.reset();
    c->throttle_ms = 0;
    c->mode = Conn::Mode::Idle;
  }

  /// Serve one request line: parse, authenticate, route. Job verbs and
  /// subscribe park the connection in WaitJob/Stream instead of blocking;
  /// everything else dispatches inline. Returns false when the connection
  /// died while writing.
  bool handle_line(Conn* c, const std::string& line) {
    Json request;
    try {
      request = Json::parse(line);
    } catch (const std::exception& e) {
      return send_line(
          c, error_response("bad_request",
                            std::string("parse error: ") + e.what())
                 .dump());
    }
    std::string op;
    if (const Json* v = request.find("op"); v != nullptr && v->is_string()) {
      op = v->as_string();
    }
    if (op == "subscribe") {
      const Json denied = check_auth(service_, request, op, c->ctx);
      if (!denied.is_null()) return send_line(c, denied.dump());
      std::shared_ptr<Job> job;
      int throttle_ms = 0;
      Json ack = subscribe_attach(service_, request, &job, &throttle_ms);
      if (!send_line(c, ack.dump())) return false;
      if (job == nullptr) return true;  // bad request: error already sent
      c->stream_job = std::move(job);
      c->sub = c->stream_job->progress.subscribe();
      c->throttle_ms = throttle_ms;
      c->next_stream_at =
          SteadyClock::now() + std::chrono::milliseconds(c->throttle_ms);
      c->mode = Conn::Mode::Stream;
      c->sub.set_notify([q = &ready_, id = c->id] { q->post(id); });
      return true;
    }
    if (is_job_op(op)) {
      const Json denied = check_auth(service_, request, op, c->ctx);
      if (!denied.is_null()) return send_line(c, denied.dump());
      std::shared_ptr<Job> job;
      Json response;
      try {
        response = submit_job_request(service_, request, c->ctx.tenant, &job);
      } catch (const std::exception& e) {
        return send_line(c, error_response("bad_request", e.what()).dump());
      }
      if (job == nullptr) return send_line(c, response.dump());
      // Sync-accepted: answer when the job's progress channel closes (every
      // terminal path closes it), without parking a thread in wait().
      c->wait_job = std::move(job);
      c->mode = Conn::Mode::WaitJob;
      c->wait_job->progress.add_close_hook(
          [q = &ready_, id = c->id] { q->post(id); });
      return true;
    }
    return send_line(c, handle_request(service_, request, c->ctx).dump());
  }

  // ---- timeouts, eviction, close ------------------------------------------

  void housekeeping() {
    const auto now = SteadyClock::now();
    std::vector<std::uint64_t> slow;
    std::vector<std::uint64_t> idle;
    std::vector<std::uint64_t> throttled;
    for (auto& [id, c] : conns_) {
      if (c->pending_out() > 0 && opts_.write_timeout_seconds > 0 &&
          std::chrono::duration<double>(now - c->last_write_progress)
                  .count() >= opts_.write_timeout_seconds) {
        slow.push_back(id);
        continue;
      }
      if (c->mode == Conn::Mode::Idle && c->lines.empty() &&
          c->pending_out() == 0 && opts_.idle_timeout_seconds > 0 &&
          std::chrono::duration<double>(now - c->last_activity).count() >=
              opts_.idle_timeout_seconds) {
        idle.push_back(id);
        continue;
      }
      if (c->mode == Conn::Mode::Stream && c->throttle_ms > 0) {
        throttled.push_back(id);  // re-pump: throttle may have expired
      }
    }
    for (const std::uint64_t id : slow) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      service_.frontend.evicted_slow.fetch_add(1, std::memory_order_relaxed);
      evict(it->second.get(), "evicted",
            "client too slow: write stalled past the timeout");
    }
    for (const std::uint64_t id : idle) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      service_.frontend.evicted_idle.fetch_add(1, std::memory_order_relaxed);
      evict(it->second.get(), "idle_timeout",
            "connection idle past the timeout");
    }
    for (const std::uint64_t id : throttled) {
      auto it = conns_.find(id);
      if (it != conns_.end()) pump(it->second.get());
    }
  }

  /// Drop a connection with a structured (best-effort) error notice,
  /// cancelling any sync job it was the only waiter of.
  void evict(Conn* c, const char* code, const char* message) {
    if (c->wait_job != nullptr) {
      service_.cancel(c->wait_job->id);  // no one is listening anymore
    }
    send_best_effort(c, error_response(code, message).dump());
    close_conn(c->id);
  }

  void close_conn(std::uint64_t id) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    Conn* c = it->second.get();
    if (c->sub.valid()) c->sub.detach();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
    close_fd(c->fd);
    conns_.erase(it);
    service_.frontend.closed.fetch_add(1, std::memory_order_relaxed);
    service_.frontend.active.fetch_sub(1, std::memory_order_relaxed);
  }

  // ---- drain --------------------------------------------------------------

  /// SIGTERM path: stop accepting, drain the service (all jobs reach a
  /// terminal state and every progress channel closes), render every
  /// parked response, then flush what the peers will accept within a
  /// bounded deadline. Connections, unlike jobs, are expendable at this
  /// point — a peer that will not drain its socket is closed.
  void drain_and_close() {
    if (opts_.verbose) {
      std::fprintf(stderr, "qaoa_serve: draining (queued jobs cancelled, "
                           "running jobs finishing)\n");
    }
    for (int i = 0; i < n_listeners_; ++i) close_fd(listen_fds_[i]);
    n_listeners_ = 0;
    ::unlink(opts_.socket_path.c_str());
    service_.begin_drain();
    service_.shutdown();  // every in-flight job delivers its result

    // Every channel is closed now, so each pump reaches quiescence: parked
    // sync responses render, streams drain to their terminal event
    // (throttles are moot once the channel is closed).
    std::vector<std::uint64_t> ids;
    ids.reserve(conns_.size());
    for (auto& [id, c] : conns_) ids.push_back(id);
    for (const std::uint64_t id : ids) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Conn* c = it->second.get();
      c->throttle_ms = 0;
      pump(c);
    }

    // Bounded flush: give peers a few seconds to take their last bytes.
    const auto deadline = SteadyClock::now() + std::chrono::seconds(5);
    for (;;) {
      std::vector<std::uint64_t> pending;
      for (auto& [id, c] : conns_) {
        if (c->pending_out() > 0 && !c->simulated_stall) pending.push_back(id);
      }
      if (pending.empty() || SteadyClock::now() >= deadline) break;
      for (const std::uint64_t id : pending) {
        auto it = conns_.find(id);
        if (it != conns_.end()) try_flush(it->second.get());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    while (!conns_.empty()) close_conn(conns_.begin()->first);
  }

  Service& service_;
  const DaemonOptions& opts_;
  int signal_rfd_;
  int listen_fds_[2] = {-1, -1};
  int n_listeners_ = 0;
  int epoll_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  ReadyQueue ready_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = kFirstConnId;
  std::uint64_t accept_seq_ = 0;
};

}  // namespace

std::string metrics_document(const Service& service) {
  Json doc = Json::object();
  doc.set("service", stats_to_json(service.stats()));
  doc.set("engine", Json::parse(obs::global_snapshot().to_json()));
  return doc.dump() + "\n";
}

int run_daemon(const DaemonOptions& options) {
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "qaoa_serve: --socket path is required\n");
    return 2;
  }

  ServiceConfig service_config = options.service;
  if (!options.tenants_path.empty()) {
    try {
      service_config.tenants = load_tenant_config(options.tenants_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "qaoa_serve: --tenants: %s\n", e.what());
      return 2;
    }
  }

  int listen_fds[2] = {-1, -1};
  int n_listeners = 0;
  int tcp_port = -1;
  try {
    listen_fds[n_listeners++] = listen_unix(options.socket_path);
    if (options.tcp_port >= 0) {
      listen_fds[n_listeners++] = listen_tcp(options.tcp_port, &tcp_port);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qaoa_serve: %s\n", e.what());
    for (int i = 0; i < n_listeners; ++i) close_fd(listen_fds[i]);
    return 2;
  }

  int signal_pipe[2] = {-1, -1};
  if (::pipe(signal_pipe) != 0) {
    std::fprintf(stderr, "qaoa_serve: pipe: %s\n", std::strerror(errno));
    for (int i = 0; i < n_listeners; ++i) close_fd(listen_fds[i]);
    return 2;
  }
  set_nonblocking(signal_pipe[0], true);
  g_signal_pipe_wr.store(signal_pipe[1], std::memory_order_relaxed);

  struct sigaction sa{};
  sa.sa_handler = daemon_signal_handler;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  int rc = 0;
  {
    // The event loop (and its ReadyQueue) must outlive nothing: worker
    // threads post readiness from progress callbacks until the Service's
    // shutdown() inside drain_and_close() joins them, which happens while
    // the loop object is alive. Service is declared first so it is
    // destroyed last.
    Service service(service_config);

    if (options.verbose) {
      std::fprintf(stderr, "qaoa_serve: listening on %s",
                   options.socket_path.c_str());
      if (tcp_port >= 0) std::fprintf(stderr, " and 127.0.0.1:%d", tcp_port);
      std::fprintf(stderr, " (workers=%d, queue=%zu",
                   service_config.workers, service_config.queue_high_water);
      if (!service_config.tenants.empty()) {
        std::fprintf(stderr, ", tenants=%zu", service_config.tenants.size());
      }
      std::fprintf(stderr, ")\n");
    }

    {
      EventLoop loop(service, options, signal_pipe[0], listen_fds,
                     n_listeners);
      rc = loop.run();
      if (rc != 0) {
        // Setup failure inside the loop: still drain the service cleanly.
        for (int i = 0; i < n_listeners; ++i) close_fd(listen_fds[i]);
        ::unlink(options.socket_path.c_str());
        service.begin_drain();
        service.shutdown();
      }
    }

    if (!options.metrics_path.empty()) {
      try {
        runtime::atomic_write_file(options.metrics_path,
                                   metrics_document(service),
                                   "daemon_metrics");
      } catch (const std::exception& e) {
        std::fprintf(stderr, "qaoa_serve: metrics flush failed: %s\n",
                     e.what());
      }
    }
    if (!options.prometheus_path.empty()) {
      write_prometheus_file(service, options.prometheus_path);
    }
    if (options.verbose && rc == 0) {
      std::fprintf(stderr, "qaoa_serve: drained, bye\n");
    }
  }

  g_signal_pipe_wr.store(-1, std::memory_order_relaxed);
  close_fd(signal_pipe[0]);
  close_fd(signal_pipe[1]);
  return rc;
}

}  // namespace fastqaoa::service
