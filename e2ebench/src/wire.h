// The benchmark's wrappers at the network boundary.
//
//   * CountingStream — a net::Stream over the client's TcpStream that counts
//     the bytes each way (headers included) and, in a traced call, records
//     the socket write and read spans. Chain writes go to the TcpStream's
//     own write_chain, so the vectored send path is the one measured.
//   * TracedTransport — the core::Transport decorator around HttpTransport.
//     It records the round-trip span and, in a traced call only, adds the
//     call-id header to the request.
//   * traced_handler — the http::Server handler around
//     ServiceRuntime::handle, recording the server-side handler span under
//     the call id the request carries.
#pragma once

#include <cstdint>
#include <memory>

#include "core/service.h"
#include "core/transports.h"
#include "http/server.h"
#include "net/stream.h"
#include "net/tcp.h"

namespace e2e {

class CountingStream final : public sbq::net::Stream {
 public:
  explicit CountingStream(std::unique_ptr<sbq::net::TcpStream> inner)
      : inner_(std::move(inner)) {}

  std::size_t read_some(void* buf, std::size_t n) override;
  void write_all(const void* buf, std::size_t n) override;
  using Stream::write_all;
  void write_chain(const sbq::BufferChain& chain) override;
  void close() override { inner_->close(); }
  void set_read_timeout_us(std::uint64_t timeout_us) override {
    inner_->set_read_timeout_us(timeout_us);
  }
  [[nodiscard]] std::uint64_t read_timeout_us() const override {
    return inner_->read_timeout_us();
  }

  /// Bytes written / read so far. Read only by the thread using the stream,
  /// or after it has been joined.
  [[nodiscard]] std::uint64_t bytes_out() const { return bytes_out_; }
  [[nodiscard]] std::uint64_t bytes_in() const { return bytes_in_; }

 private:
  std::unique_ptr<sbq::net::TcpStream> inner_;
  std::uint64_t bytes_out_ = 0;
  std::uint64_t bytes_in_ = 0;
};

class TracedTransport final : public sbq::core::Transport {
 public:
  explicit TracedTransport(sbq::net::Stream& stream) : http_(stream) {}
  sbq::http::Response round_trip(const sbq::http::Request& request) override;

 private:
  sbq::core::HttpTransport http_;
};

/// The handler the benchmark gives http::Server.
sbq::http::Handler traced_handler(sbq::core::ServiceRuntime& runtime);

}  // namespace e2e
