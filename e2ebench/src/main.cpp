// e2ebench — the real-stack SOAP-bin / SOAP-binQ benchmark.
//
// One process per workload: it hosts the event serving front
// (http::FrontMode::kEvent) with a ServiceRuntime behind it and drives it
// over loopback TCP from ClientStubs compiled from the benchmark's WSDL.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 repeats the same load
// with span recording on and prints the per-layer metrics instead. The last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/client.h"
#include "floors.h"
#include "net/sim_clock.h"
#include "service.h"
#include "trace.h"

namespace {

using e2e::SpanName;

/// How many times a run sets the stack up; setup_s is the median.
constexpr int kSetups = 5;
/// binq_imaging's offered load, well below what the 1-worker server
/// sustains (about a quarter of its capacity; see README). A 20 s window
/// or longer gives the 1000 samples a p99 needs.
constexpr double kImagingRatePerS = 50.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  auto rank = static_cast<std::size_t>(p * static_cast<double>(sorted.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double process_cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct ThreadResult {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;  // open loop: send time minus due time
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t queued_at_close = 0;  // open loop: due in the window, sent after it
  std::uint64_t end_ns = 0;           // when the thread's last call returned
  std::string first_error;
};

/// Process CPU time and completed calls at one instant of the window.
struct Sample {
  std::uint64_t ns = 0;
  double cpu_us = 0;
  std::uint64_t completed = 0;
};

struct LoadResult {
  std::vector<ThreadResult> threads;
  std::vector<Sample> samples;  // the window's start, then once a second
  double window_s = 0;          // start to the last call's return
  double cpu_us = 0;            // over the whole window
};

/// One call through the stub, timed from `timed_from_ns`; returns whether
/// it passed the oracle.
bool one_call(e2e::Workload& w, sbq::core::ClientStub& stub, const std::string& op, int c,
              std::uint64_t i, ThreadResult& r, std::uint64_t timed_from_ns,
              std::atomic<std::uint64_t>& completed) {
  ++r.attempted;
  e2e::begin_call();
  sbq::pbio::Value result;
  bool ok = false;
  try {
    {
      const e2e::ScopedSpan span(SpanName::kCall);
      result = stub.call(op, w.input(c, i));
    }
    const std::uint64_t done_ns = sbq::steady_now_ns();
    e2e::end_call();
    ok = w.check(c, i, result, stub);
    if (ok) {
      r.latency_ms.push_back(static_cast<double>(done_ns - timed_from_ns) / 1e6);
      completed.fetch_add(1, std::memory_order_relaxed);
    } else if (r.first_error.empty()) {
      r.first_error = "oracle check failed";
    }
  } catch (const std::exception& e) {
    e2e::end_call();
    if (r.first_error.empty()) r.first_error = e.what();
  }
  if (!ok) ++r.failed;
  return ok;
}

/// Runs `body(thread index, window start, window end)` on `n` load threads
/// for the window, sampling CPU time and completed calls once a second from
/// this thread, and joins them.
template <typename Body>
LoadResult run_window(int n, double seconds, Body body) {
  LoadResult out;
  out.threads.resize(static_cast<std::size_t>(n));
  std::atomic<std::uint64_t> completed{0};
  std::latch ready(n + 1);
  std::uint64_t start_ns = 0;
  const auto length_ns = static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      ThreadResult& r = out.threads[static_cast<std::size_t>(t)];
      ready.arrive_and_wait();
      body(t, start_ns, start_ns + length_ns, r, completed);
      r.end_ns = sbq::steady_now_ns();
    });
  }
  sbq::net::SteadyTimeSource clock;
  out.samples.push_back({sbq::steady_now_ns(), process_cpu_us(), 0});
  start_ns = out.samples.front().ns;
  ready.arrive_and_wait();
  for (std::uint64_t k = 1; k * 1'000'000'000ull <= length_ns; ++k) {
    const std::uint64_t at = start_ns + k * 1'000'000'000ull;
    const std::uint64_t now = sbq::steady_now_ns();
    if (now < at) sbq::core::wait_on(clock, (at - now) / 1000);
    out.samples.push_back({sbq::steady_now_ns(), process_cpu_us(), completed.load()});
  }
  for (auto& t : threads) t.join();
  out.cpu_us = process_cpu_us() - out.samples.front().cpu_us;
  std::uint64_t end_ns = start_ns;
  for (const ThreadResult& r : out.threads) end_ns = std::max(end_ns, r.end_ns);
  out.window_s = static_cast<double>(end_ns - start_ns) / 1e9;
  return out;
}

/// Closed loop: each client thread sends its next request when the previous
/// one has returned, taking its connections in turn, until the window
/// closes.
LoadResult closed_loop(e2e::Workload& w, e2e::Stack& stack, double seconds) {
  const int threads = w.client_threads();
  const int conns = stack.client_count();
  const std::string op = w.operation();
  return run_window(threads, seconds,
                    [&](int t, std::uint64_t, std::uint64_t end_ns, ThreadResult& r,
                        std::atomic<std::uint64_t>& completed) {
    // Each connection continues its input sequence after its warm-up calls.
    for (auto i = static_cast<std::uint64_t>(w.warmup_calls());; ++i) {
      for (int c = t; c < conns; c += threads) {
        if (sbq::steady_now_ns() >= end_ns) return;
        one_call(w, *stack.client(c).stub, op, c, i, r, sbq::steady_now_ns(), completed);
      }
    }
  });
}

/// Open loop: requests fall due on the seeded Poisson schedule whatever the
/// server is doing; the client threads are a pool of senders, one per
/// connection. Latency runs from each request's due time, so a stall also
/// charges the requests that queued behind it (no coordinated omission).
LoadResult open_loop(e2e::Workload& w, e2e::Stack& stack,
                     const std::vector<std::uint64_t>& plan, double seconds) {
  const std::string op = w.operation();
  std::atomic<std::size_t> next{0};
  sbq::net::SteadyTimeSource clock;
  return run_window(stack.client_count(), seconds,
                    [&](int c, std::uint64_t start_ns, std::uint64_t end_ns, ThreadResult& r,
                        std::atomic<std::uint64_t>& completed) {
    sbq::core::ClientStub& stub = *stack.client(c).stub;
    for (;;) {
      const std::size_t k = next.fetch_add(1);
      if (k >= plan.size()) return;
      const std::uint64_t due_ns = start_ns + plan[k];
      const std::uint64_t now_ns = sbq::steady_now_ns();
      if (now_ns < due_ns) sbq::core::wait_on(clock, (due_ns - now_ns) / 1000);
      const std::uint64_t sent_ns = sbq::steady_now_ns();
      r.late_ms.push_back(sent_ns > due_ns ? static_cast<double>(sent_ns - due_ns) / 1e6 : 0.0);
      if (sent_ns > end_ns) ++r.queued_at_close;
      one_call(w, stub, op, c, k, r, due_ns, completed);
    }
  });
}

/// Medians over the window's whole seconds of calls per second and of CPU
/// per call: a second in which the host held the process back moves them
/// less than it moves whole-window means. Whole-window figures when the
/// window is shorter than a second.
std::pair<double, double> per_second_medians(const LoadResult& load, double completed) {
  std::vector<double> rate;
  std::vector<double> cpu;
  for (std::size_t k = 1; k < load.samples.size(); ++k) {
    const Sample& a = load.samples[k - 1];
    const Sample& b = load.samples[k];
    const auto calls = static_cast<double>(b.completed - a.completed);
    rate.push_back(calls / (static_cast<double>(b.ns - a.ns) / 1e9));
    if (calls > 0) cpu.push_back((b.cpu_us - a.cpu_us) / calls);
  }
  if (rate.empty() || cpu.empty()) {
    return {completed / load.window_s, load.cpu_us / std::max(1.0, completed)};
  }
  return {median(rate), median(cpu)};
}

struct Metric {
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<std::string, Metric>>& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("%-28s %16.6f %s\n", name.c_str(), m.value, m.unit);
  }
  std::printf("%-28s %16llu\n%-28s %16llu\n", "attempted",
              static_cast<unsigned long long>(attempted), "failed",
              static_cast<unsigned long long>(failed));
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  auto workload = e2e::make_workload(args.workload, args.seed);
  if (!workload) throw std::invalid_argument("unknown workload " + args.workload);
  const bool open = args.workload == "binq_imaging";
  const std::vector<std::uint64_t> plan =
      open ? e2e::open_loop_plan(kImagingRatePerS, args.seconds, args.seed)
           : std::vector<std::uint64_t>{};

  // Set-up, several times; the last stack is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<e2e::Stack> stack;
  for (int k = 0; k < kSetups; ++k) {
    stack.reset();
    const sbq::Stopwatch sw;
    stack = std::make_unique<e2e::Stack>(*workload);
    setup_s.push_back(sw.elapsed_us() / 1e6);
  }

  // Counters restart after warm-up.
  for (int c = 0; c < stack->client_count(); ++c) stack->client(c).stub->reset_stats();
  stack->runtime().reset_stats();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> bytes0;
  for (int c = 0; c < stack->client_count(); ++c) {
    bytes0.emplace_back(stack->client(c).stream->bytes_out(), stack->client(c).stream->bytes_in());
  }
  const auto quality = workload->quality();
  const std::uint64_t switches0 = quality ? quality->policy().switch_count() : 0;

  e2e::set_tracing(args.trace);
  const LoadResult load = open ? open_loop(*workload, *stack, plan, args.seconds)
                               : closed_loop(*workload, *stack, args.seconds);
  e2e::set_tracing(false);

  // Everything the program counted, read before the server stops.
  const sbq::http::ServerStats server_stats = stack->server().stats();
  const sbq::EndpointStats server = stack->runtime().stats();
  sbq::EndpointStats client;
  double wire_bytes = 0;
  for (int c = 0; c < stack->client_count(); ++c) {
    const sbq::EndpointStats& s = stack->client(c).stub->stats();
    client.marshal_us += s.marshal_us;
    client.envelope_us += s.envelope_us;
    client.unmarshal_us += s.unmarshal_us;
    client.compress_us += s.compress_us;
    client.bytes_copied += s.bytes_copied;
    client.segments_written += s.segments_written;
    const auto& stream = *stack->client(c).stream;
    wire_bytes += static_cast<double>(stream.bytes_out() - bytes0[static_cast<std::size_t>(c)].first +
                                      stream.bytes_in() - bytes0[static_cast<std::size_t>(c)].second);
  }
  const std::uint64_t switches = quality ? quality->policy().switch_count() - switches0 : 0;
  const int connections = stack->client_count();
  stack->shutdown();  // joins the server's threads: their spans are complete

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t queued = 0;
  std::vector<double> latency;
  std::vector<double> late;
  for (const ThreadResult& r : load.threads) {
    attempted += r.attempted;
    failed += r.failed;
    queued += r.queued_at_close;
    latency.insert(latency.end(), r.latency_ms.begin(), r.latency_ms.end());
    late.insert(late.end(), r.late_ms.begin(), r.late_ms.end());
    if (!r.first_error.empty()) std::fprintf(stderr, "call failed: %s\n", r.first_error.c_str());
  }
  std::sort(latency.begin(), latency.end());
  std::sort(late.begin(), late.end());
  const double completed = static_cast<double>(latency.size());
  const double calls = std::max(1.0, static_cast<double>(attempted));

  bool correct = true;
  if (server_stats.shed != 0 || server_stats.worker_errors != 0 ||
      server_stats.accepted > static_cast<std::uint64_t>(connections)) {
    std::fprintf(stderr, "server: shed=%llu worker_errors=%llu accepted=%llu (connections %d)\n",
                 static_cast<unsigned long long>(server_stats.shed),
                 static_cast<unsigned long long>(server_stats.worker_errors),
                 static_cast<unsigned long long>(server_stats.accepted), connections);
    correct = false;
  }
  // Tail percentiles are printed but not gated: on a shared host their
  // spread between runs is wider than any bound the benchmark may set
  // (README, "Steadiness").
  std::fprintf(stderr,
               "%s: %zu latency samples over %.3f s, p90 %.4f ms, p99 %.4f ms, "
               "p99.9 %.4f ms, %llu queued at close\n",
               args.workload.c_str(), latency.size(), load.window_s,
               percentile(latency, 0.90), percentile(latency, 0.99),
               percentile(latency, 0.999), static_cast<unsigned long long>(queued));

  const auto rate_and_cpu = per_second_medians(load, completed);
  std::vector<std::pair<std::string, Metric>> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", {median(setup_s), "s"}},
        {"calls_per_s", {rate_and_cpu.first, "calls/s"}},
        {"latency_p50_ms", {percentile(latency, 0.50), "ms"}},
        {"cpu_us_per_call", {rate_and_cpu.second, "us"}},
        {"wire_bytes_per_call", {wire_bytes / calls, "bytes"}},
        {"peak_rss_mb", {peak_rss_mib(), "MiB"}},
    };
  } else {
    std::vector<e2e::Span> spans = e2e::collect_spans();
    if (!args.spans_path.empty()) e2e::write_spans(spans, args.spans_path);
    const e2e::LayerTimes t = e2e::layer_times(std::move(spans));
    const e2e::Floors f = e2e::measure_floors(workload->floor_input());
    if (!f.correct) {
      std::fprintf(stderr, "a layer floor's round trip did not give back its input\n");
      correct = false;
    }
    metrics = {
        {"core.client_self_us", {t.client_self_us, "us"}},
        {"core.client_self_cpu_us", {t.client_self_cpu_us, "us"}},
        {"http.exchange_us", {t.exchange_us, "us"}},
        {"core.runtime_self_us", {t.runtime_self_us, "us"}},
        {"core.runtime_self_cpu_us", {t.runtime_self_cpu_us, "us"}},
        {"app.handler_us", {t.app_us, "us"}},
        {"app.handler_cpu_us", {t.app_cpu_us, "us"}},
        {"qos.handler_us", {t.qos_us, "us"}},
        {"qos.handler_cpu_us", {t.qos_cpu_us, "us"}},
        {"net.client_write_us", {t.client_write_us, "us"}},
        {"net.client_read_wait_us", {t.client_read_wait_us, "us"}},
        {"core.client.marshal_us", {client.marshal_us / calls, "us"}},
        {"core.client.envelope_us", {client.envelope_us / calls, "us"}},
        {"core.client.unmarshal_us", {client.unmarshal_us / calls, "us"}},
        {"core.server.marshal_us", {server.marshal_us / calls, "us"}},
        {"core.server.envelope_us", {server.envelope_us / calls, "us"}},
        {"core.server.unmarshal_us", {server.unmarshal_us / calls, "us"}},
        {"compress.client_us", {client.compress_us / calls, "us"}},
        {"compress.server_us", {server.compress_us / calls, "us"}},
        {"common.bytes_copied_per_call",
         {static_cast<double>(client.bytes_copied + server.bytes_copied) / calls, "bytes"}},
        {"common.segments_per_call",
         {static_cast<double>(client.segments_written + server.segments_written) / calls,
          "count"}},
        {"http.peak_in_flight", {static_cast<double>(server_stats.peak_in_flight), "count"}},
        {"http.queue_high_water", {static_cast<double>(server_stats.queue_high_water), "count"}},
        {"qos.switches", {static_cast<double>(switches), "count"}},
        {"pbio.encode_us", {f.pbio_encode_us, "us"}},
        {"pbio.decode_us", {f.pbio_decode_us, "us"}},
        {"pbio.native_decode_us", {f.pbio_native_decode_us, "us"}},
        {"core.envelope_encode_us", {f.envelope_encode_us, "us"}},
        {"core.envelope_decode_us", {f.envelope_decode_us, "us"}},
        {"soap.build_us", {f.soap_build_us, "us"}},
        {"soap.parse_us", {f.soap_parse_us, "us"}},
        {"compress.lz_us", {f.lz_us, "us"}},
        {"compress.unlz_us", {f.unlz_us, "us"}},
        {"qos.select_apply_us", {f.qos_select_apply_us, "us"}},
        {"gen.late_ms_p99", {percentile(late, 0.99), "ms"}},
        {"gen.queued_at_close", {static_cast<double>(queued), "count"}},
        {"trace.calls", {static_cast<double>(t.calls), "count"}},
        {"trace.calls_per_s", {rate_and_cpu.first, "calls/s"}},
    };
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }
}
