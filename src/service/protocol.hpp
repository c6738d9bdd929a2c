#pragma once
/// \file protocol.hpp
/// The wire protocol: newline-delimited JSON request/response messages.
///
/// One request object per line, one response object per line, in order.
/// Job verbs (evaluate, gradient, find_angles, sample) either block until
/// the result is ready (the default) or, with "async": true, return the
/// assigned job id immediately for later "status" polling. Control verbs:
/// "status", "cancel", "stats", "ping", "metrics".
///
/// "subscribe" is the one verb that breaks the one-line-per-request rule:
/// it streams NDJSON progress events (an ack, then one line per
/// angle-finding round, then a terminal "done" event) until the job
/// finishes. The daemon's event loop admits it with subscribe_attach() and
/// streams the job's progress channel; handle_request() refuses it.
///
/// Responses always carry "ok". Failures look like
///   {"ok":false,"error":{"code":"overloaded","message":...,"queue_depth":N}}
/// with stable codes: "overloaded" (queue at its high-water mark — back off
/// and retry), "over_quota" (tenant rate/concurrency quota tripped; carries
/// "retry_after_ms"), "draining" (daemon is shutting down), "bad_request",
/// "unknown_job", "unauthorized" (tenants configured and no valid key).
///
/// Multi-tenancy: when the daemon was given a tenant file, clients
/// authenticate once per connection with {"op":"auth","key":"..."} (or put
/// "key" on any request); every subsequent request runs as that tenant.
/// Without a tenant file no key is required and everything maps to the
/// default tenant — the protocol is fully backward compatible.
///
/// handle_request() is the single server-side dispatcher — the daemon's
/// event loop and the in-process tests route through the same function, so
/// the protocol is tested without a socket in the loop.

#include <exception>
#include <string>
#include <string_view>

#include "service/job.hpp"
#include "service/json.hpp"
#include "service/service.hpp"

namespace fastqaoa::service {

/// Parse a job request ("op" + spec fields) into a JobSpec.
/// Throws fastqaoa::Error naming the offending field.
JobSpec job_spec_from_json(const Json& request);

/// Client-side: render a JobSpec as a request object (without "async").
Json job_spec_to_json(const JobSpec& spec);

/// Snapshot a job as the protocol's job object:
/// {"id":..,"op":..,"state":..,"result":{...}} (result present only once
/// terminal; failed jobs carry "error" instead).
Json job_to_json(const Job& job);

Json stats_to_json(const ServiceStats& stats);

Json error_response(std::string_view code, std::string_view message);

/// What a client is told about a failed request: a fastqaoa::Error's
/// message() (no check expression, no source path), else what().
[[nodiscard]] std::string client_message(const std::exception& e);

/// True when `op` names one of the job verbs (evaluate, batch_evaluate,
/// gradient, find_angles, sample) — the verbs the daemon's event loop
/// routes through submit_job_request() instead of handle_request().
[[nodiscard]] bool is_job_op(const std::string& op);

/// Render the merged engine observability snapshot (counters and
/// histograms) plus the service-level gauges/counters in Prometheus text
/// exposition format. This is what the "metrics" verb and the daemon's
/// --metrics-file writer both serve.
[[nodiscard]] std::string metrics_prometheus(Service& service);

/// Per-connection protocol state: the authenticated tenant identity. The
/// daemon keeps one per connection; in-process callers use the default
/// (trusted, default-tenant) context.
struct RequestContext {
  std::string tenant;         ///< resolved tenant name ("" = default)
  bool authenticated = false; ///< a valid key was presented
  /// In-process dispatchers are trusted and bypass key checks even when
  /// tenants are configured; the daemon sets this false.
  bool trusted = true;
};

/// Dispatch one parsed request against a service and produce the response.
/// Never throws: malformed requests become "bad_request" responses.
Json handle_request(Service& service, const Json& request);

/// Tenant-aware variant: authenticates ("auth" op or a per-request "key"),
/// enforces key checks when the service has tenants configured and the
/// context is untrusted, and tags submitted jobs with ctx.tenant.
Json handle_request(Service& service, const Json& request,
                    RequestContext& ctx);

/// Apply authentication for one request: resolves a per-request "key"
/// field into ctx (counting failures), and — when the service has tenants
/// configured and ctx is untrusted — rejects unauthenticated non-ping
/// requests. Returns a null Json when the request may proceed, or the
/// error response to send. The daemon calls this before its specially
/// routed verbs (job ops, subscribe); handle_request() applies it
/// internally.
Json check_auth(Service& service, const Json& request, const std::string& op,
                RequestContext& ctx);

/// Admission half of a job verb, shared by the blocking dispatcher and the
/// daemon's event loop: parse the spec, tag it with `tenant`, submit.
/// On rejection or an async ack the complete response is returned and
/// *out_job stays null. For an accepted synchronous job, *out_job is set
/// and the returned Json is null — the caller chooses how to wait
/// (Service::wait() for blocking callers; a progress close hook for the
/// event loop, which must then render job_to_json itself).
Json submit_job_request(Service& service, const Json& request,
                        const std::string& tenant,
                        std::shared_ptr<Job>* out_job);

/// Admission half of "subscribe": parse the id and the optional
/// "throttle_ms" (an integer, clamped to [0, 10000]; the subscriber then
/// takes at most one event per throttle_ms while the job runs), attach
/// *out_job and set *out_throttle_ms. Returns the ack, or a bad_request /
/// unknown_job error response leaving both outputs untouched. The caller
/// owns streaming the events.
Json subscribe_attach(Service& service, const Json& request,
                      std::shared_ptr<Job>* out_job, int* out_throttle_ms);

/// Stamp a subscriber's terminal "done" line with its drop count.
[[nodiscard]] std::string stamp_terminal_event(const std::string& line,
                                               std::uint64_t dropped_events,
                                               bool* is_terminal);

/// Convenience: parse `line`, dispatch, and serialize the response.
std::string handle_request_line(Service& service, const std::string& line);

}  // namespace fastqaoa::service
