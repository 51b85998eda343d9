// Span recording for the traced run.
//
// Spans are recorded by the benchmark's own code around its calls into the
// program's layers (ClientStub::call, Transport::round_trip, the client
// socket, ServiceRuntime::handle, the operation and quality handlers). Each
// span carries the id of the call it belongs to; the id travels from client
// to server in a request header, so the server-side spans of a call join the
// client-side ones. Spans are kept in per-thread memory and only read after
// the run, once every thread that wrote them has been joined.
//
// With tracing off (the untraced run) no call gets an id and ScopedSpan
// reads no clock: the untraced run pays one thread-local load per boundary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// CPU time consumed by the calling thread, in nanoseconds.
std::uint64_t thread_cpu_ns();

/// The layer boundaries the benchmark records. Each name has one fixed
/// parent, so a span's parent within its call is known from its name.
enum class SpanName : std::uint8_t {
  kCall,       // ClientStub::call                    (client thread)
  kRoundTrip,  // Transport::round_trip               (client thread)
  kWrite,      // client socket write                 (client thread)
  kRead,       // client socket read, incl. waiting   (client thread)
  kHandle,     // ServiceRuntime::handle              (server worker)
  kApp,        // registered operation handler        (server worker)
  kQos,        // quality handler                     (server worker)
  kNone,
};

struct Span {
  std::uint64_t call_id = 0;
  std::uint64_t start_ns = 0;  // common/clock.h steady_now_ns()
  std::uint64_t end_ns = 0;
  std::uint64_t cpu_ns = 0;    // thread CPU time spent inside the span
  SpanName name = SpanName::kNone;
};

/// Name of the request header carrying the call id (traced run only).
inline constexpr const char* kCallIdHeader = "X-E2E-Call-Id";

/// Turns recording on for the traced run. Set before any load thread
/// starts; never changed while they run.
void set_tracing(bool on);

/// Starts a traced call on this thread and returns its id, or returns 0
/// (an untraced call) when tracing is off or this thread's quota of traced
/// calls is used up. The quota bounds the span memory of one run.
std::uint64_t begin_call();
/// Clears this thread's current call.
void end_call();
/// The call this thread is working for (0 = untraced).
std::uint64_t current_call();

/// Makes `id` this thread's current call for the scope (server side: the
/// id read from the request header).
class CallScope {
 public:
  explicit CallScope(std::uint64_t id);
  ~CallScope();
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;
};

/// Records one span of the current call; records nothing in an untraced
/// call.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint64_t call_id_;
  SpanName name_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t start_cpu_ns_ = 0;
};

/// Every span recorded so far, from all threads. Call only after the
/// threads that recorded them have been joined.
std::vector<Span> collect_spans();

/// Writes spans as tab-separated lines: call, name, parent, start, end, cpu.
void write_spans(const std::vector<Span>& spans, const std::string& path);

/// Per-call layer times derived from the spans of complete calls (a call is
/// complete when its ClientStub::call, round-trip and handler spans were all
/// recorded). Means over those calls, in microseconds.
struct LayerTimes {
  std::uint64_t calls = 0;
  double client_self_us = 0;      // call − round trip
  double client_self_cpu_us = 0;
  double exchange_us = 0;         // round trip − server handler
  double runtime_self_us = 0;     // handler − (app + quality handler)
  double runtime_self_cpu_us = 0;
  double app_us = 0;
  double app_cpu_us = 0;
  double qos_us = 0;
  double qos_cpu_us = 0;
  double client_write_us = 0;
  double client_read_wait_us = 0;
};
LayerTimes layer_times(std::vector<Span> spans);

}  // namespace e2e
