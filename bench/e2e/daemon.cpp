#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "e2e.hpp"
#include "service/client.hpp"

namespace e2e {

using fastqaoa::Error;
using fastqaoa::service::Client;

Daemon::Daemon(const std::string& serve_path, const std::string& socket_path,
               const std::string& log_path, bool pinned_malloc)
    : socket_(socket_path) {
  ::unlink(socket_path.c_str());
  std::vector<std::string> args = {serve_path, "--socket=" + socket_path,
                                   "--workers=2", "--quiet"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  // The environment is built before fork: setenv is not safe in the child.
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (!pinned_malloc || std::string(*e).rfind("GLIBC_TUNABLES=", 0) != 0) {
      env.emplace_back(*e);
    }
  }
  if (pinned_malloc) {
    env.emplace_back("GLIBC_TUNABLES=glibc.malloc.mmap_threshold=32768");
  }
  std::vector<char*> envp;
  for (std::string& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);

  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  FASTQAOA_CHECK(log_fd >= 0, "cannot open daemon log " + log_path);
  pid_ = ::fork();
  if (pid_ == 0) {
    // Only async-signal-safe calls between fork and exec. The daemon gets
    // SIGTERM if qaoa_e2e dies, so no run leaves it behind.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(log_fd);
  FASTQAOA_CHECK(pid_ > 0, "fork failed");
  FASTQAOA_CHECK(::clock_getcpuclockid(pid_, &cpu_clock_) == 0,
                 "no CPU clock for qaoa_serve");
}

Daemon::~Daemon() {
  if (pid_ > 0) stop();
}

void Daemon::wait_ready() {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  Json ping = Json::object();
  ping.set("op", Json("ping"));
  for (;;) {
    try {
      Client c = Client::connect_unix(socket_);
      if (c.request(ping).at("ok").as_bool()) return;
    } catch (const std::exception&) {
      // Not listening yet.
    }
    int status = 0;
    FASTQAOA_CHECK(::waitpid(pid_, &status, WNOHANG) == 0,
                   "qaoa_serve exited during start-up");
    FASTQAOA_CHECK(std::chrono::steady_clock::now() < deadline,
                   "qaoa_serve did not answer a ping within 20 s");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

double Daemon::cpu_seconds() const {
  timespec ts{};
  FASTQAOA_CHECK(::clock_gettime(cpu_clock_, &ts) == 0,
                 "cannot read qaoa_serve's CPU clock");
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Daemon::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // KiB -> MB
    }
  }
  throw Error("VmHWM not found for pid " + std::to_string(pid_));
}

int Daemon::stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  ::unlink(socket_.c_str());
  return status;
}

}  // namespace e2e
