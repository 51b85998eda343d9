// The benchmark's service, its workloads, and the stack one run drives.
//
// One WSDL document (kWsdl in service.cpp) declares every operation; it is
// parsed at each set-up, as a deployment would. A workload names the
// operation it calls, generates its inputs from the seed, registers the
// server side of the operation, and checks every result against values the
// benchmark computed itself.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/service.h"
#include "http/server.h"
#include "pbio/registry.h"
#include "pbio/value.h"
#include "qos/manager.h"
#include "wire.h"
#include "wsdl/wsdl.h"

namespace e2e {

/// Every workload opens two keep-alive connections to a server with one
/// event runtime (accept shard) and one handler worker. With at most two
/// client threads, client threads plus runtimes plus workers stay within the
/// host's 4 cores.
inline constexpr int kConnections = 2;

/// binq_imaging's quality file: half_image over the whole RTT range, so the
/// work per call does not depend on loopback timing.
inline constexpr const char* kImagingQualityFile =
    "attribute rtt_us\n0 inf - half_image\n";

/// What the layer floors run on: the workload's own values.
struct FloorInput {
  std::string operation;
  sbq::pbio::Value value;   // the message the workload's hot path carries
  sbq::pbio::FormatPtr format;
  /// binq_imaging only: the full frame, for QualityManager select + apply.
  const sbq::pbio::Value* full_frame = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string operation() const = 0;
  [[nodiscard]] virtual sbq::core::WireFormat wire(int client) const = 0;
  /// Load threads: a closed loop's thread takes its share of the
  /// connections in turn, one call at a time; the open loop runs one sender
  /// per connection.
  [[nodiscard]] virtual int client_threads() const = 0;
  [[nodiscard]] virtual int warmup_calls() const = 0;

  /// Server side, once per set-up: registers the operation on `runtime`
  /// (and, for binq_imaging, renders the frames and attaches quality
  /// management).
  virtual void serve(sbq::core::ServiceRuntime& runtime,
                     const sbq::wsdl::ServiceDesc& service) = 0;

  /// Request number `i` of client `client`.
  [[nodiscard]] virtual const sbq::pbio::Value& input(int client, std::uint64_t i) const = 0;
  /// Oracle for the result of that request.
  [[nodiscard]] virtual bool check(int client, std::uint64_t i, const sbq::pbio::Value& result,
                                   const sbq::core::ClientStub& stub) const = 0;

  [[nodiscard]] virtual FloorInput floor_input() const = 0;

  /// Server-side quality manager (binq_imaging), else null.
  [[nodiscard]] virtual std::shared_ptr<sbq::qos::QualityManager> quality() const {
    return nullptr;
  }
};

/// bin_small / bin_bulk / soap_xml / binq_imaging; null for other names.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

/// binq_imaging's open-loop schedule: arrival offsets in ns from the
/// window start, fixed by the rate, the seconds and the seed.
std::vector<std::uint64_t> open_loop_plan(double rate_per_s, double seconds,
                                          std::uint64_t seed);

/// One client connection: counted socket, traced transport, stub.
struct ClientConn {
  std::unique_ptr<CountingStream> stream;
  std::unique_ptr<TracedTransport> transport;
  std::unique_ptr<sbq::core::ClientStub> stub;
};

/// Everything one set-up builds: WSDL parse, runtime, event-front server,
/// connections with their format announce, warm-up calls.
class Stack {
 public:
  Stack(Workload& workload);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  [[nodiscard]] ClientConn& client(int c) { return clients_[static_cast<std::size_t>(c)]; }
  [[nodiscard]] int client_count() const { return static_cast<int>(clients_.size()); }
  [[nodiscard]] sbq::core::ServiceRuntime& runtime() { return *runtime_; }
  [[nodiscard]] sbq::http::Server& server() { return *server_; }
  /// Stops the server (joining its runtimes and workers) after closing the
  /// client connections.
  void shutdown();

 private:
  std::shared_ptr<sbq::pbio::FormatServer> formats_;
  std::shared_ptr<sbq::net::SteadyTimeSource> clock_;
  std::unique_ptr<sbq::core::ServiceRuntime> runtime_;
  std::unique_ptr<sbq::http::Server> server_;
  std::vector<ClientConn> clients_;
};

}  // namespace e2e
