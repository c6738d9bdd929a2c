#pragma once
/// \file progress.hpp
/// Per-job progress fan-out with slow-subscriber protection.
///
/// A worker running a job publishes NDJSON event lines into its job's
/// ProgressChannel; any number of subscribers (one per `subscribe`
/// connection) each own a *bounded* event queue. The publisher never
/// blocks and never allocates per subscriber count on the hot path beyond
/// the queue append: when a subscriber's queue is full the channel drops
/// that subscriber's *oldest* event and counts the drop — a stalled client
/// loses intermediate events, never the terminal one, and can never block
/// a worker or job completion.
///
/// close() publishes the terminal line and latches it: subscribers that
/// attach after the job finished still receive exactly the terminal event,
/// so `watch` on a completed job degrades gracefully instead of hanging.
///
/// The channel is always compiled (it is product behavior, not
/// profiling); the optional drop counter hook lets the service surface
/// total drops in stats() whether or not metrics are enabled.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fastqaoa::service {

struct ProgressInner;     // shared channel state (progress.cpp)
struct ProgressSubState;  // one subscriber's bounded queue (progress.cpp)

class ProgressChannel {
 public:
  ProgressChannel();

  /// Set the per-subscriber queue bound and the (optional) service-wide
  /// drop counter. Call before the job becomes visible to subscribers.
  void configure(std::size_t queue_cap,
                 std::atomic<std::uint64_t>* drop_counter) noexcept;

  /// Publisher side (worker thread). No-op after close().
  void publish(const std::string& line);

  /// Publish the terminal line and close the channel. Idempotent (the
  /// first close wins). Late subscribers still receive the terminal line.
  void close(const std::string& final_line);

  [[nodiscard]] bool closed() const;

  /// Register a callback that fires exactly once when the channel closes
  /// (i.e. when the job reaches a terminal state). If the channel is
  /// already closed the hook runs inline, on the caller's thread; otherwise
  /// it runs on the closing (worker) thread, outside the channel lock.
  /// This is how the event-loop front end learns a sync-waited job
  /// finished without parking a thread in Service::wait().
  void add_close_hook(std::function<void()> hook);

  /// Total events dropped across all subscribers over the channel's life.
  [[nodiscard]] std::uint64_t dropped() const;

  class Subscription {
   public:
    Subscription() = default;

    /// Non-blocking read: returns true with a line when one is ready
    /// (terminal line last), false when nothing is pending right now.
    /// Pair with set_notify() to learn when to poll again.
    bool try_next(std::string& line);

    /// True once the stream is exhausted: channel closed, queue drained,
    /// terminal line delivered. try_next() never yields again.
    [[nodiscard]] bool finished() const;

    /// Install a wakeup callback invoked (outside the channel lock, on the
    /// publisher's thread) whenever a new event lands in this subscriber's
    /// queue or the channel closes. The event-loop front end posts a
    /// readiness token from here and then drains with try_next().
    void set_notify(std::function<void()> fn);

    /// Remove this subscriber from the channel (publishes stop landing in
    /// its queue, the notify callback is cleared). Idempotent; used when a
    /// connection is evicted or closed mid-stream so the channel does not
    /// retain dead queues for the daemon's lifetime.
    void detach();

    /// Events dropped from *this* subscriber's queue so far.
    [[nodiscard]] std::uint64_t dropped() const;

    [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

   private:
    friend class ProgressChannel;
    std::shared_ptr<ProgressInner> inner_;
    std::shared_ptr<ProgressSubState> state_;
  };

  [[nodiscard]] Subscription subscribe();

 private:
  std::shared_ptr<ProgressInner> inner_;
};

}  // namespace fastqaoa::service
