#include "wire.h"

#include <charconv>
#include <string>

#include "trace.h"

namespace e2e {

std::size_t CountingStream::read_some(void* buf, std::size_t n) {
  const ScopedSpan span(SpanName::kRead);
  const std::size_t got = inner_->read_some(buf, n);
  bytes_in_ += got;
  return got;
}

void CountingStream::write_all(const void* buf, std::size_t n) {
  const ScopedSpan span(SpanName::kWrite);
  inner_->write_all(buf, n);
  bytes_out_ += n;
}

void CountingStream::write_chain(const sbq::BufferChain& chain) {
  const ScopedSpan span(SpanName::kWrite);
  inner_->write_chain(chain);
  bytes_out_ += chain.size();
}

sbq::http::Response TracedTransport::round_trip(const sbq::http::Request& request) {
  const std::uint64_t id = current_call();
  if (id == 0) return http_.round_trip(request);
  // Same request plus the call-id header. The body is shared, not copied:
  // body_as_chain borrows `request`, which outlives the round trip.
  sbq::http::Request tagged;
  tagged.method = request.method;
  tagged.target = request.target;
  tagged.version = request.version;
  tagged.headers = request.headers;
  tagged.headers.set(kCallIdHeader, std::to_string(id));
  tagged.set_body_chain(request.body_as_chain());
  const ScopedSpan span(SpanName::kRoundTrip);
  return http_.round_trip(tagged);
}

sbq::http::Handler traced_handler(sbq::core::ServiceRuntime& runtime) {
  return [&runtime](const sbq::http::Request& request) {
    const auto header = request.headers.get(kCallIdHeader);
    if (!header) return runtime.handle(request);
    std::uint64_t id = 0;
    std::from_chars(header->data(), header->data() + header->size(), id);
    const CallScope scope(id);
    const ScopedSpan span(SpanName::kHandle);
    return runtime.handle(request);
  };
}

}  // namespace e2e
