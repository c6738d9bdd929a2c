#pragma once
/// \file error.hpp
/// Error reporting. Public API entry points validate their inputs with
/// FASTQAOA_CHECK (always on); internal invariants use FASTQAOA_ASSERT
/// (compiled out in release builds).

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace fastqaoa {

/// Exception thrown on invalid arguments or violated preconditions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what)
      : std::runtime_error(what), message_(what) {}
  Error(const std::string& what, std::string message)
      : std::runtime_error(what), message_(std::move(message)) {}

  /// The reason alone. For a failed FASTQAOA_CHECK this is its message,
  /// without the check expression and source location what() carries;
  /// it is what the service shows a client.
  [[nodiscard]] const std::string& message() const noexcept {
    return message_;
  }

 private:
  std::string message_;
};

namespace detail {
[[noreturn]] inline void throw_check_failure(const char* expr, const char* file,
                                             int line,
                                             const std::string& message) {
  std::ostringstream os;
  os << "fastqaoa check failed: (" << expr << ") at " << file << ":" << line;
  if (!message.empty()) os << " — " << message;
  throw Error(os.str(), message.empty() ? std::string("check failed: ") + expr
                                        : message);
}
}  // namespace detail

}  // namespace fastqaoa

/// Validate a user-facing precondition; throws fastqaoa::Error on failure.
#define FASTQAOA_CHECK(cond, message)                                  \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ::fastqaoa::detail::throw_check_failure(#cond, __FILE__,         \
                                              __LINE__, (message));    \
    }                                                                  \
  } while (false)

/// Internal invariant; active only in debug builds.
#ifndef NDEBUG
#define FASTQAOA_ASSERT(cond, message) FASTQAOA_CHECK(cond, message)
#else
#define FASTQAOA_ASSERT(cond, message) \
  do {                                 \
  } while (false)
#endif
