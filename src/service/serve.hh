/**
 * @file
 * `sunstone serve`: the long-lived front end that proves the service
 * core (DESIGN.md §16). Speaks newline-delimited JSON over
 * stdin/stdout — one MappingRequest object per input line, one
 * MappingResponse object per output line, in order. A `{"kind":
 * "health"}` request is the metrics/health scrape.
 *
 * Lifecycle: requests are served until stdin reaches EOF or a
 * SIGINT/SIGTERM arrives. The first signal cancels the in-flight
 * search cooperatively (its response is still written, stop reason
 * "cancelled") and begins a clean shutdown; stdin is read through
 * poll() so a signal also interrupts an idle server blocked on input.
 * On shutdown the final health document is written to --metrics-json
 * when configured, and the exit status is 0 — a signalled shutdown is
 * the normal way to stop a server, not an error.
 *
 * Malformed input lines produce an ok=false error response and the
 * server keeps going; SUNSTONE_FATAL raised by a bad request is
 * captured per request (ScopedFatalCapture) instead of exiting. A line
 * longer than 1 MiB gets one ok=false response and is dropped up to
 * its newline, so input memory stays bounded.
 */

#ifndef SUNSTONE_SERVICE_SERVE_HH
#define SUNSTONE_SERVICE_SERVE_HH

#include <string>

#include "service/session.hh"

namespace sunstone {
namespace service {

/** `sunstone serve` configuration. */
struct ServeOptions
{
    /** Session knobs (threads, warm-start store, queue capacity). */
    SessionOptions session;

    /** Final health/metrics document written on shutdown; empty skips. */
    std::string metricsPath;

    /** Input fd (the tests point this at a pipe). */
    int inputFd = 0;
};

/** Runs the serve loop to completion. @return the process exit code. */
int runServe(ServeOptions opts);

} // namespace service
} // namespace sunstone

#endif // SUNSTONE_SERVICE_SERVE_HH
