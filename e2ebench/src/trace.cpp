#include "trace.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common/clock.h"

namespace e2e {

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  // sbqlint:allow(clock-discipline): common/clock.h has no thread-CPU clock yet; this helper is the benchmark's only read of one
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

namespace {

constexpr int kSpanNames = static_cast<int>(SpanName::kNone);

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kCall: return "core.client_call";
    case SpanName::kRoundTrip: return "core.round_trip";
    case SpanName::kWrite: return "net.client_write";
    case SpanName::kRead: return "net.client_read";
    case SpanName::kHandle: return "core.runtime_handle";
    case SpanName::kApp: return "app.handler";
    case SpanName::kQos: return "qos.handler";
    case SpanName::kNone: break;
  }
  return "-";
}

SpanName span_parent(SpanName name) {
  switch (name) {
    case SpanName::kRoundTrip: return SpanName::kCall;
    case SpanName::kWrite:
    case SpanName::kRead:
    case SpanName::kHandle: return SpanName::kRoundTrip;
    case SpanName::kApp:
    case SpanName::kQos: return SpanName::kHandle;
    default: return SpanName::kNone;
  }
}

// Bounds one thread's span memory: a traced small-call run records about
// eight spans per call, 40 bytes each.
constexpr std::uint64_t kTracedCallsPerThread = 100'000;

struct ThreadBuffer {
  std::vector<Span> spans;
  std::uint64_t traced_calls = 0;
};

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_call{1};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_buffers_mu

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local std::uint64_t t_call = 0;

ThreadBuffer& buffer() {
  if (t_buffer == nullptr) {
    auto fresh = std::make_unique<ThreadBuffer>();
    fresh->spans.reserve(1u << 16);
    std::lock_guard lock(g_buffers_mu);
    g_buffers.push_back(std::move(fresh));
    t_buffer = g_buffers.back().get();
  }
  return *t_buffer;
}

/// Length of [start, end) not covered by the union of `children` (each
/// clipped to the parent): a span's self time.
std::uint64_t self_ns(std::uint64_t start, std::uint64_t end,
                      std::vector<std::pair<std::uint64_t, std::uint64_t>> children) {
  std::sort(children.begin(), children.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = start;  // covered up to here
  for (auto [cs, ce] : children) {
    cs = std::clamp(cs, start, end);
    ce = std::clamp(ce, start, end);
    if (ce <= reach) continue;
    covered += ce - std::max(cs, reach);
    reach = ce;
  }
  return (end - start) - covered;
}

bool wants_cpu(SpanName name) {
  // Socket spans are waits; their wall time is what they measure.
  return name != SpanName::kRead && name != SpanName::kWrite;
}

}  // namespace

void set_tracing(bool on) { g_tracing.store(on); }

std::uint64_t begin_call() {
  t_call = 0;
  if (!g_tracing.load(std::memory_order_relaxed)) return 0;
  ThreadBuffer& buf = buffer();
  if (buf.traced_calls >= kTracedCallsPerThread) return 0;
  ++buf.traced_calls;
  t_call = g_next_call.fetch_add(1, std::memory_order_relaxed);
  return t_call;
}

void end_call() { t_call = 0; }
std::uint64_t current_call() { return t_call; }

CallScope::CallScope(std::uint64_t id) { t_call = id; }
CallScope::~CallScope() { t_call = 0; }

ScopedSpan::ScopedSpan(SpanName name) : call_id_(t_call), name_(name) {
  if (call_id_ == 0) return;
  if (wants_cpu(name_)) start_cpu_ns_ = thread_cpu_ns();
  start_ns_ = sbq::steady_now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (call_id_ == 0) return;
  Span span;
  span.end_ns = sbq::steady_now_ns();
  if (wants_cpu(name_)) span.cpu_ns = thread_cpu_ns() - start_cpu_ns_;
  span.call_id = call_id_;
  span.start_ns = start_ns_;
  span.name = name_;
  buffer().spans.push_back(span);
}

std::vector<Span> collect_spans() {
  std::vector<Span> all;
  std::lock_guard lock(g_buffers_mu);
  for (const auto& buf : g_buffers) {
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
  }
  return all;
}

void write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write spans to " + path);
  std::fprintf(out, "call\tname\tparent\tstart_ns\tend_ns\tcpu_ns\n");
  for (const Span& s : spans) {
    std::fprintf(out, "%llu\t%s\t%s\t%llu\t%llu\t%llu\n",
                 static_cast<unsigned long long>(s.call_id), span_name(s.name),
                 span_name(span_parent(s.name)),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.cpu_ns));
  }
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write spans to " + path);
}

LayerTimes layer_times(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.call_id != b.call_id ? a.call_id < b.call_id : a.start_ns < b.start_ns;
  });
  LayerTimes t;
  constexpr double kUs = 1e-3;
  for (std::size_t i = 0; i < spans.size();) {
    std::size_t j = i;
    while (j < spans.size() && spans[j].call_id == spans[i].call_id) ++j;
    const Span* by_name[kSpanNames] = {};
    int counts[kSpanNames] = {};
    std::uint64_t write_ns = 0;
    std::uint64_t read_ns = 0;
    for (std::size_t k = i; k < j; ++k) {
      const auto n = static_cast<int>(spans[k].name);
      by_name[n] = &spans[k];
      ++counts[n];
      if (spans[k].name == SpanName::kWrite) write_ns += spans[k].end_ns - spans[k].start_ns;
      if (spans[k].name == SpanName::kRead) read_ns += spans[k].end_ns - spans[k].start_ns;
    }
    i = j;
    const Span* call = by_name[static_cast<int>(SpanName::kCall)];
    const Span* rt = by_name[static_cast<int>(SpanName::kRoundTrip)];
    const Span* handle = by_name[static_cast<int>(SpanName::kHandle)];
    if (call == nullptr || rt == nullptr || handle == nullptr ||
        counts[static_cast<int>(SpanName::kCall)] != 1 ||
        counts[static_cast<int>(SpanName::kRoundTrip)] != 1 ||
        counts[static_cast<int>(SpanName::kHandle)] != 1) {
      continue;  // incomplete: a span of the call was not recorded
    }
    const Span* app = by_name[static_cast<int>(SpanName::kApp)];
    const Span* qos = by_name[static_cast<int>(SpanName::kQos)];
    ++t.calls;
    t.client_self_us += kUs * static_cast<double>(
        self_ns(call->start_ns, call->end_ns, {{rt->start_ns, rt->end_ns}}));
    t.client_self_cpu_us += kUs * (static_cast<double>(call->cpu_ns) -
                                   static_cast<double>(rt->cpu_ns));
    t.exchange_us += kUs * static_cast<double>(
        self_ns(rt->start_ns, rt->end_ns, {{handle->start_ns, handle->end_ns}}));
    std::vector<std::pair<std::uint64_t, std::uint64_t>> handler_children;
    double handler_children_cpu = 0;
    for (const Span* child : {app, qos}) {
      if (child == nullptr) continue;
      handler_children.emplace_back(child->start_ns, child->end_ns);
      handler_children_cpu += static_cast<double>(child->cpu_ns);
    }
    t.runtime_self_us += kUs * static_cast<double>(
        self_ns(handle->start_ns, handle->end_ns, handler_children));
    t.runtime_self_cpu_us +=
        kUs * (static_cast<double>(handle->cpu_ns) - handler_children_cpu);
    if (app != nullptr) {
      t.app_us += kUs * static_cast<double>(app->end_ns - app->start_ns);
      t.app_cpu_us += kUs * static_cast<double>(app->cpu_ns);
    }
    if (qos != nullptr) {
      t.qos_us += kUs * static_cast<double>(qos->end_ns - qos->start_ns);
      t.qos_cpu_us += kUs * static_cast<double>(qos->cpu_ns);
    }
    t.client_write_us += kUs * static_cast<double>(write_ns);
    t.client_read_wait_us += kUs * static_cast<double>(read_ns);
  }
  if (t.calls > 0) {
    const auto n = static_cast<double>(t.calls);
    for (double* v : {&t.client_self_us, &t.client_self_cpu_us, &t.exchange_us,
                      &t.runtime_self_us, &t.runtime_self_cpu_us, &t.app_us,
                      &t.app_cpu_us, &t.qos_us, &t.qos_cpu_us, &t.client_write_us,
                      &t.client_read_wait_us}) {
      *v /= n;
    }
  }
  return t;
}

}  // namespace e2e
