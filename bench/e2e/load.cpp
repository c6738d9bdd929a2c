#include <chrono>
#include <limits>

#include "common/error.hpp"
#include "e2e.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"

namespace e2e {

using fastqaoa::service::Client;
using clk = std::chrono::steady_clock;

namespace {

double ms_between(clk::time_point a, clk::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Send one request and read its reply; the daemon's CPU clock is read
/// around the round trip.
Sample send_one(Client& client, const JobSpec& spec, const Daemon& daemon) {
  const Json request = fastqaoa::service::job_spec_to_json(spec);
  Sample s;
  s.request_bytes = request.dump().size() + 1;
  const double cpu0 = daemon.cpu_seconds();
  const clk::time_point t0 = clk::now();
  client.send(request);
  std::string line;
  FASTQAOA_CHECK(client.read_line(line), "daemon closed the connection");
  s.rtt_ms = ms_between(t0, clk::now());
  s.cpu_ms = (daemon.cpu_seconds() - cpu0) * 1e3;
  s.response_bytes = line.size() + 1;
  s.response = Json::parse(line);
  const Json* ok = s.response.find("ok");
  const Json* state = s.response.find("state");
  s.ok = ok != nullptr && ok->as_bool() && state != nullptr &&
         state->as_string() == "done";
  if (s.ok) {
    const Json& r = s.response.at("result");
    s.server_s = r.at("seconds").as_double();
    s.cache_hit = r.at("cache_hit").as_bool();
  }
  return s;
}

}  // namespace

LoadResult run_closed(const Daemon& daemon, double seconds,
                      std::uint64_t max_requests, const Stream& stream) {
  LoadResult out;
  const clk::time_point start = clk::now();
  const clk::time_point deadline =
      start + std::chrono::duration_cast<clk::duration>(
                  std::chrono::duration<double>(seconds));
  const std::uint64_t limit = max_requests > 0
                                  ? max_requests
                                  : std::numeric_limits<std::uint64_t>::max();
  clk::time_point last_reply = start;
  try {
    Client client = Client::connect_unix(daemon.socket());
    last_reply = clk::now();
    for (std::uint64_t index = 0; index < limit && clk::now() < deadline;
         ++index) {
      const JobSpec spec = stream.make(index);
      const clk::time_point sent = clk::now();
      ++out.attempted;
      Sample s = send_one(client, spec, daemon);
      s.index = index;
      s.lag_ms = ms_between(last_reply, sent);
      last_reply = clk::now();
      if (!s.ok) ++out.failed;
      if (!stream.keep(index)) s.response = Json();
      out.samples.push_back(std::move(s));
    }
  } catch (const std::exception&) {
    // A transport failure ends the phase; the request counts failed.
    ++out.failed;
  }
  out.elapsed_s = std::chrono::duration<double>(last_reply - start).count();
  return out;
}

}  // namespace e2e
