#include "service/progress.hpp"

#include <utility>

namespace fastqaoa::service {

struct ProgressSubState {
  std::deque<std::string> queue;
  std::uint64_t dropped = 0;
  bool final_delivered = false;
  /// Wakeup callback for event-loop subscribers; invoked outside the
  /// channel lock so it may take other locks (ReadyQueue, pipes) freely.
  std::function<void()> notify;
};

struct ProgressInner {
  std::mutex mu;
  std::vector<std::shared_ptr<ProgressSubState>> subs;
  std::vector<std::function<void()>> close_hooks;
  std::size_t cap = 256;
  std::atomic<std::uint64_t>* drop_counter = nullptr;
  std::uint64_t total_dropped = 0;
  bool closed = false;
  bool has_final = false;
  std::string final_line;
};

namespace {

/// Snapshot the notify callbacks under the lock so they can run outside it
/// (a callback may re-enter channel APIs or take unrelated locks).
std::vector<std::function<void()>> collect_notifies(const ProgressInner& in) {
  std::vector<std::function<void()>> fns;
  for (const auto& sub : in.subs) {
    if (sub->notify) fns.push_back(sub->notify);
  }
  return fns;
}

}  // namespace

ProgressChannel::ProgressChannel() : inner_(std::make_shared<ProgressInner>()) {}

void ProgressChannel::configure(
    std::size_t queue_cap, std::atomic<std::uint64_t>* drop_counter) noexcept {
  std::lock_guard<std::mutex> lock(inner_->mu);
  inner_->cap = queue_cap == 0 ? 1 : queue_cap;
  inner_->drop_counter = drop_counter;
}

void ProgressChannel::publish(const std::string& line) {
  ProgressInner& in = *inner_;
  std::vector<std::function<void()>> wakeups;
  {
    std::lock_guard<std::mutex> lock(in.mu);
    if (in.closed) return;
    for (const auto& sub : in.subs) {
      if (sub->queue.size() >= in.cap) {
        sub->queue.pop_front();
        ++sub->dropped;
        ++in.total_dropped;
        if (in.drop_counter != nullptr) {
          in.drop_counter->fetch_add(1, std::memory_order_relaxed);
        }
      }
      sub->queue.push_back(line);
    }
    wakeups = collect_notifies(in);
  }
  for (const auto& fn : wakeups) fn();
}

void ProgressChannel::close(const std::string& final_line) {
  ProgressInner& in = *inner_;
  std::vector<std::function<void()>> wakeups;
  std::vector<std::function<void()>> hooks;
  {
    std::lock_guard<std::mutex> lock(in.mu);
    if (in.closed) return;
    in.closed = true;
    in.has_final = true;
    in.final_line = final_line;
    wakeups = collect_notifies(in);
    hooks.swap(in.close_hooks);
  }
  for (const auto& fn : wakeups) fn();
  for (const auto& fn : hooks) fn();
}

bool ProgressChannel::closed() const {
  std::lock_guard<std::mutex> lock(inner_->mu);
  return inner_->closed;
}

void ProgressChannel::add_close_hook(std::function<void()> hook) {
  if (!hook) return;
  {
    std::lock_guard<std::mutex> lock(inner_->mu);
    if (!inner_->closed) {
      inner_->close_hooks.push_back(std::move(hook));
      return;
    }
  }
  hook();  // already closed: fire inline, outside the lock
}

std::uint64_t ProgressChannel::dropped() const {
  std::lock_guard<std::mutex> lock(inner_->mu);
  return inner_->total_dropped;
}

ProgressChannel::Subscription ProgressChannel::subscribe() {
  Subscription sub;
  sub.inner_ = inner_;
  sub.state_ = std::make_shared<ProgressSubState>();
  std::lock_guard<std::mutex> lock(inner_->mu);
  // A post-close subscriber gets no backlog, just the latched terminal
  // line (delivered by try_next()); a live one starts with an empty queue.
  if (!inner_->closed) inner_->subs.push_back(sub.state_);
  return sub;
}

bool ProgressChannel::Subscription::try_next(std::string& line) {
  if (inner_ == nullptr) return false;
  ProgressInner& in = *inner_;
  std::lock_guard<std::mutex> lock(in.mu);
  if (!state_->queue.empty()) {
    line = std::move(state_->queue.front());
    state_->queue.pop_front();
    return true;
  }
  if (in.closed && in.has_final && !state_->final_delivered) {
    state_->final_delivered = true;
    line = in.final_line;
    return true;
  }
  return false;
}

bool ProgressChannel::Subscription::finished() const {
  if (inner_ == nullptr) return true;
  ProgressInner& in = *inner_;
  std::lock_guard<std::mutex> lock(in.mu);
  return in.closed && state_->queue.empty() &&
         (!in.has_final || state_->final_delivered);
}

void ProgressChannel::Subscription::set_notify(std::function<void()> fn) {
  if (inner_ == nullptr || state_ == nullptr) return;
  bool fire_now = false;
  {
    std::lock_guard<std::mutex> lock(inner_->mu);
    state_->notify = std::move(fn);
    // Events (or the close) may have landed before the callback was
    // installed; fire once immediately so nothing is missed.
    fire_now = state_->notify &&
               (!state_->queue.empty() || inner_->closed);
  }
  if (fire_now) state_->notify();
}

void ProgressChannel::Subscription::detach() {
  if (inner_ == nullptr || state_ == nullptr) return;
  std::lock_guard<std::mutex> lock(inner_->mu);
  state_->notify = nullptr;
  auto& subs = inner_->subs;
  for (auto it = subs.begin(); it != subs.end(); ++it) {
    if (*it == state_) {
      subs.erase(it);
      break;
    }
  }
}

std::uint64_t ProgressChannel::Subscription::dropped() const {
  if (inner_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(inner_->mu);
  return state_->dropped;
}

}  // namespace fastqaoa::service
