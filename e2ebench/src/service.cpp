#include "service.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "apps/image/codec.h"
#include "apps/image/synth.h"
#include "common/rng.h"
#include "net/tcp.h"
#include "qos/quality_file.h"
#include "trace.h"

namespace e2e {

namespace core = sbq::core;
namespace pbio = sbq::pbio;
using pbio::Value;

namespace {

constexpr const char* kWsdl = R"(<?xml version="1.0"?>
<definitions name="E2EBench" targetNamespace="urn:e2ebench"
             xmlns:tns="urn:e2ebench" xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <types>
    <xsd:schema>
      <xsd:complexType name="int_array">
        <xsd:sequence>
          <xsd:element name="values" type="xsd:int" minOccurs="0" maxOccurs="unbounded"/>
        </xsd:sequence>
      </xsd:complexType>
      <xsd:complexType name="sum_result">
        <xsd:sequence>
          <xsd:element name="sum" type="xsd:long"/>
          <xsd:element name="values" type="xsd:int" minOccurs="0" maxOccurs="unbounded"/>
        </xsd:sequence>
      </xsd:complexType>
      <xsd:complexType name="contact">
        <xsd:sequence>
          <xsd:element name="name" type="xsd:string"/>
          <xsd:element name="email" type="xsd:string"/>
          <xsd:element name="city" type="xsd:string"/>
        </xsd:sequence>
      </xsd:complexType>
      <xsd:complexType name="record">
        <xsd:sequence>
          <xsd:element name="id" type="xsd:int"/>
          <xsd:element name="title" type="xsd:string"/>
          <xsd:element name="note" type="xsd:string"/>
          <xsd:element name="owner" type="tns:contact"/>
          <xsd:element name="readings" type="xsd:double" minOccurs="0" maxOccurs="unbounded"/>
        </xsd:sequence>
      </xsd:complexType>
      <xsd:complexType name="record_ack">
        <xsd:sequence>
          <xsd:element name="count" type="xsd:int"/>
          <xsd:element name="record" type="tns:record"/>
        </xsd:sequence>
      </xsd:complexType>
      <xsd:complexType name="image_request">
        <xsd:sequence>
          <xsd:element name="filename" type="xsd:string"/>
          <xsd:element name="transform" type="xsd:string"/>
        </xsd:sequence>
      </xsd:complexType>
      <xsd:complexType name="image">
        <xsd:sequence>
          <xsd:element name="width" type="xsd:int"/>
          <xsd:element name="height" type="xsd:int"/>
          <xsd:element name="pixels" type="xsd:byte" minOccurs="0" maxOccurs="unbounded"/>
        </xsd:sequence>
      </xsd:complexType>
    </xsd:schema>
  </types>
  <message name="sumEchoInput"><part name="params" type="tns:int_array"/></message>
  <message name="sumEchoOutput"><part name="result" type="tns:sum_result"/></message>
  <message name="storeRecordInput"><part name="params" type="tns:record"/></message>
  <message name="storeRecordOutput"><part name="result" type="tns:record_ack"/></message>
  <message name="getImageInput"><part name="params" type="tns:image_request"/></message>
  <message name="getImageOutput"><part name="result" type="tns:image"/></message>
  <portType name="E2EBenchPort">
    <operation name="sum_echo">
      <input message="tns:sumEchoInput"/>
      <output message="tns:sumEchoOutput"/>
    </operation>
    <operation name="store_record">
      <input message="tns:storeRecordInput"/>
      <output message="tns:storeRecordOutput"/>
    </operation>
    <operation name="get_image">
      <input message="tns:getImageInput"/>
      <output message="tns:getImageOutput"/>
    </operation>
  </portType>
</definitions>)";

/// Distinct input streams per connection, all derived from the run's seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull + 1;
}

/// The benchmark's service description, parsed once for the layer floors
/// (each set-up parses its own copy).
const sbq::wsdl::ServiceDesc& floor_service() {
  static const sbq::wsdl::ServiceDesc service = sbq::wsdl::parse_wsdl(kWsdl);
  return service;
}

/// Wraps a registered handler in its span.
core::OperationHandler app_span(core::OperationHandler inner) {
  return [inner = std::move(inner)](const Value& params) {
    const ScopedSpan span(SpanName::kApp);
    return inner(params);
  };
}

// --- sum_echo: bin_small and bin_bulk ---------------------------------------

class SumEcho final : public Workload {
 public:
  SumEcho(std::uint64_t seed, std::size_t elements, std::size_t pool, int warmup,
          int client_threads)
      : client_threads_(client_threads), warmup_(warmup) {
    for (int c = 0; c < kConnections; ++c) {
      sbq::Rng rng(stream_seed(seed, static_cast<std::uint64_t>(c)));
      auto& raw = raw_.emplace_back();
      auto& sums = sums_.emplace_back();
      auto& values = values_.emplace_back();
      for (std::size_t p = 0; p < pool; ++p) {
        std::vector<std::int32_t> xs(elements);
        std::int64_t sum = 0;
        Value array = Value::empty_array();
        for (auto& x : xs) {
          x = static_cast<std::int32_t>(static_cast<std::uint32_t>(rng.next_u64()));
          sum += x;
          array.push_back(Value{static_cast<std::int64_t>(x)});
        }
        raw.push_back(std::move(xs));
        sums.push_back(sum);
        values.push_back(Value::record({{"values", std::move(array)}}));
      }
    }
  }

  [[nodiscard]] std::string operation() const override { return "sum_echo"; }
  [[nodiscard]] int client_threads() const override { return client_threads_; }
  [[nodiscard]] core::WireFormat wire(int) const override { return core::WireFormat::kBinary; }
  [[nodiscard]] int warmup_calls() const override { return warmup_; }

  void serve(core::ServiceRuntime& runtime, const sbq::wsdl::ServiceDesc& service) override {
    const auto& op = service.required_operation("sum_echo");
    runtime.register_operation("sum_echo", op.input, op.output, app_span([](const Value& p) {
      const Value& values = p.field("values");
      std::int64_t sum = 0;
      for (const Value& v : values.elements()) sum += v.as_i64();
      return Value::record({{"sum", sum}, {"values", values}});
    }));
  }

  [[nodiscard]] const Value& input(int c, std::uint64_t i) const override {
    const auto& pool = values_[static_cast<std::size_t>(c)];
    return pool[i % pool.size()];
  }

  [[nodiscard]] bool check(int c, std::uint64_t i, const Value& result,
                           const core::ClientStub&) const override {
    const auto cs = static_cast<std::size_t>(c);
    const auto p = static_cast<std::size_t>(i % raw_[cs].size());
    const std::vector<std::int32_t>& sent = raw_[cs][p];
    if (result.field("sum").as_i64() != sums_[cs][p]) return false;
    const Value& echoed = result.field("values");
    if (echoed.array_size() != sent.size()) return false;
    for (std::size_t k = 0; k < sent.size(); ++k) {
      if (echoed.at(k).as_i64() != sent[k]) return false;
    }
    return true;
  }

  [[nodiscard]] FloorInput floor_input() const override {
    return {"sum_echo", values_[0][0], floor_service().required_operation("sum_echo").input};
  }

 private:
  int client_threads_;
  int warmup_;
  std::vector<std::vector<std::vector<std::int32_t>>> raw_;
  std::vector<std::vector<std::int64_t>> sums_;
  std::vector<std::vector<Value>> values_;
};

// --- store_record: soap_xml -------------------------------------------------

/// Pieces of the generated strings: markup characters that need escaping
/// and multi-byte UTF-8, joined with single spaces.
constexpr const char* kFragments[] = {
    "Smith & Sons", "<draft>", "\"quoted\"", "caf\xC3\xA9", "Z\xC3\xBCrich",
    "\xE6\x97\xA5\xE6\x9C\xAC\xE8\xAA\x9E", "a>b", "\xCE\xA9mega", "O'Brien",
    "na\xC3\xAFve", "x<y&&y>z", "plain", "r\xC3\xA9sum\xC3\xA9", "&amp;", "50%"};

std::string make_text(sbq::Rng& rng, int min_parts, int max_parts) {
  const auto parts = rng.uniform_int(min_parts, max_parts);
  std::string out;
  for (std::int64_t k = 0; k < parts; ++k) {
    if (k > 0) out += ' ';
    out += kFragments[rng.next_below(std::size(kFragments))];
  }
  return out;
}

/// Doubles per record: fixed, so the work per call does not depend on the
/// seed.
constexpr std::size_t kReadings = 300;

struct Record {
  std::int32_t id = 0;
  std::string title, note, name, email, city;
  std::vector<double> readings;
};

class StoreRecord final : public Workload {
 public:
  StoreRecord(std::uint64_t seed, std::size_t pool) {
    for (int c = 0; c < kConnections; ++c) {
      sbq::Rng rng(stream_seed(seed, 100 + static_cast<std::uint64_t>(c)));
      auto& recs = records_.emplace_back();
      auto& values = values_.emplace_back();
      for (std::size_t p = 0; p < pool; ++p) {
        Record r;
        r.id = static_cast<std::int32_t>(static_cast<std::uint32_t>(rng.next_u64()));
        r.title = make_text(rng, 2, 4);
        r.note = make_text(rng, 6, 12);
        r.name = make_text(rng, 1, 3);
        r.email = make_text(rng, 1, 2) + "@example.org";
        r.city = make_text(rng, 1, 2);
        r.readings.resize(kReadings);
        Value readings = Value::empty_array();
        for (double& x : r.readings) {
          x = rng.normal(20.0, 8.0);
          readings.push_back(Value{x});
        }
        values.push_back(Value::record(
            {{"id", static_cast<std::int64_t>(r.id)},
             {"title", r.title},
             {"note", r.note},
             {"owner", Value::record({{"name", r.name}, {"email", r.email}, {"city", r.city}})},
             {"readings", std::move(readings)}}));
        recs.push_back(std::move(r));
      }
    }
  }

  [[nodiscard]] std::string operation() const override { return "store_record"; }
  [[nodiscard]] int client_threads() const override { return 1; }
  /// One connection on standard SOAP XML, one on LZ-compressed XML.
  [[nodiscard]] core::WireFormat wire(int c) const override {
    return c == 0 ? core::WireFormat::kXml : core::WireFormat::kCompressedXml;
  }
  [[nodiscard]] int warmup_calls() const override { return 10; }

  void serve(core::ServiceRuntime& runtime, const sbq::wsdl::ServiceDesc& service) override {
    const auto& op = service.required_operation("store_record");
    runtime.register_operation("store_record", op.input, op.output,
                               app_span([](const Value& p) {
                                 const auto n = static_cast<std::int64_t>(
                                     p.field("readings").array_size());
                                 return Value::record({{"count", n}, {"record", p}});
                               }));
  }

  [[nodiscard]] const Value& input(int c, std::uint64_t i) const override {
    const auto& pool = values_[static_cast<std::size_t>(c)];
    return pool[i % pool.size()];
  }

  [[nodiscard]] bool check(int c, std::uint64_t i, const Value& result,
                           const core::ClientStub&) const override {
    const auto& pool = records_[static_cast<std::size_t>(c)];
    const Record& sent = pool[i % pool.size()];
    const Value& r = result.field("record");
    const Value& owner = r.field("owner");
    const Value& readings = r.field("readings");
    if (result.field("count").as_i64() != static_cast<std::int64_t>(sent.readings.size()) ||
        r.field("id").as_i64() != sent.id || r.field("title").as_string() != sent.title ||
        r.field("note").as_string() != sent.note ||
        owner.field("name").as_string() != sent.name ||
        owner.field("email").as_string() != sent.email ||
        owner.field("city").as_string() != sent.city ||
        readings.array_size() != sent.readings.size()) {
      return false;
    }
    for (std::size_t k = 0; k < sent.readings.size(); ++k) {
      if (readings.at(k).as_f64() != sent.readings[k]) return false;
    }
    return true;
  }

  [[nodiscard]] FloorInput floor_input() const override {
    return {"store_record", values_[0][0],
            floor_service().required_operation("store_record").input};
  }

 private:
  std::vector<std::vector<Record>> records_;
  std::vector<std::vector<Value>> values_;
};

// --- get_image: binq_imaging ------------------------------------------------

constexpr int kFrames = 4;
constexpr int kWidth = 640;
constexpr int kHeight = 480;

class GetImage final : public Workload {
 public:
  explicit GetImage(std::uint64_t seed) : seed_(seed) {
    // Fixed allocator thresholds for this process. With glibc's
    // self-adjusting defaults about 3 in 10 binq_imaging processes kept
    // mapping and unmapping (or trimming and re-faulting) their frame-sized
    // buffers on every call, ~30% more CPU per call for the whole run.
    mallopt(M_MMAP_THRESHOLD, 4 << 20);
    mallopt(M_TRIM_THRESHOLD, 256 << 20);
    for (int f = 0; f < kFrames; ++f) {
      requests_.push_back(Value::record(
          {{"filename", "frame-" + std::to_string(f) + ".ppm"}, {"transform", "none"}}));
    }
    sbq::Rng rng(stream_seed(seed, 200));
    frame_of_.resize(4096);
    for (auto& f : frame_of_) f = static_cast<int>(rng.next_below(kFrames));
  }

  [[nodiscard]] std::string operation() const override { return "get_image"; }
  [[nodiscard]] int client_threads() const override { return kConnections; }
  [[nodiscard]] core::WireFormat wire(int) const override { return core::WireFormat::kBinary; }
  [[nodiscard]] int warmup_calls() const override { return 20; }

  void serve(core::ServiceRuntime& runtime, const sbq::wsdl::ServiceDesc& service) override {
    const auto& op = service.required_operation("get_image");
    if (op.output->format_id() != sbq::image::image_format()->format_id()) {
      throw std::runtime_error("WSDL image type differs from image::image_format()");
    }
    render_frames();
    runtime.register_operation(
        "get_image", op.input, op.output, app_span([this](const Value& p) {
          const std::string& name = p.field("filename").as_string();
          if (p.field("transform").as_string() != "none") {
            throw sbq::RpcError("unsupported transform");
          }
          for (int f = 0; f < kFrames; ++f) {
            if (requests_[static_cast<std::size_t>(f)].field("filename").as_string() == name) {
              return frames_[static_cast<std::size_t>(f)];
            }
          }
          throw sbq::RpcError("no such frame: " + name);
        }));
    quality_ = std::make_shared<sbq::qos::QualityManager>(
        sbq::qos::QualityFile::parse(kImagingQualityFile));
    quality_->register_message_type("image", sbq::image::image_format());
    quality_->register_message_type(
        "half_image", sbq::image::half_image_format(),
        [](const Value& full, const pbio::FormatDesc& target,
           const sbq::qos::AttributeMap& attributes) {
          const ScopedSpan span(SpanName::kQos);
          return sbq::image::resize_quality_handler(full, target, attributes);
        });
    runtime.set_quality_manager(quality_);
  }

  [[nodiscard]] const Value& input(int, std::uint64_t i) const override {
    return requests_[static_cast<std::size_t>(frame_of_[i % frame_of_.size()])];
  }

  /// half_image, 320×240, every channel within ±1 of its 2×2 block mean in
  /// the frame as rendered (bounds precomputed by render_frames).
  [[nodiscard]] bool check(int, std::uint64_t i, const Value& result,
                           const core::ClientStub& stub) const override {
    if (stub.last_response_type() != "half_image") return false;
    if (result.field("width").as_i64() != kWidth / 2 ||
        result.field("height").as_i64() != kHeight / 2) {
      return false;
    }
    const std::string& px = result.field("pixels").as_string();
    const auto f = static_cast<std::size_t>(frame_of_[i % frame_of_.size()]);
    const std::vector<std::uint8_t>& lo = lo_[f];
    const std::vector<std::uint8_t>& hi = hi_[f];
    if (px.size() != lo.size()) return false;
    bool ok = true;
    for (std::size_t k = 0; k < px.size(); ++k) {
      const auto v = static_cast<std::uint8_t>(px[k]);
      ok &= (v >= lo[k]) & (v <= hi[k]);
    }
    return ok;
  }

  [[nodiscard]] FloorInput floor_input() const override {
    FloorInput in{"get_image", frames_[0], sbq::image::image_format()};
    in.full_frame = &frames_[0];
    return in;
  }

  [[nodiscard]] std::shared_ptr<sbq::qos::QualityManager> quality() const override {
    return quality_;
  }

 private:
  /// Pre-renders the frames and the oracle's per-channel bounds: the mean
  /// of each 2×2 block, computed here, ±1.
  void render_frames() {
    frames_.clear();
    lo_.assign(kFrames, {});
    hi_.assign(kFrames, {});
    for (int f = 0; f < kFrames; ++f) {
      sbq::image::StarFieldConfig cfg;
      cfg.width = kWidth;
      cfg.height = kHeight;
      cfg.seed = stream_seed(seed_, 300 + static_cast<std::uint64_t>(f));
      const sbq::image::Image img = sbq::image::synth_star_field(cfg);
      const std::vector<std::uint8_t>& px = img.bytes();
      auto& lo = lo_[static_cast<std::size_t>(f)];
      auto& hi = hi_[static_cast<std::size_t>(f)];
      const int w2 = kWidth / 2;
      const int h2 = kHeight / 2;
      lo.resize(static_cast<std::size_t>(w2 * h2 * 3));
      hi.resize(lo.size());
      for (int y = 0; y < h2; ++y) {
        for (int x = 0; x < w2; ++x) {
          for (int ch = 0; ch < 3; ++ch) {
            auto at = [&](int dx, int dy) {
              return static_cast<int>(
                  px[static_cast<std::size_t>(((2 * y + dy) * kWidth + 2 * x + dx) * 3 + ch)]);
            };
            const double mean = (at(0, 0) + at(1, 0) + at(0, 1) + at(1, 1)) / 4.0;
            const auto k = static_cast<std::size_t>((y * w2 + x) * 3 + ch);
            lo[k] = static_cast<std::uint8_t>(std::clamp(std::ceil(mean - 1.0), 0.0, 255.0));
            hi[k] = static_cast<std::uint8_t>(std::clamp(std::floor(mean + 1.0), 0.0, 255.0));
          }
        }
      }
      frames_.push_back(sbq::image::image_to_value(img, *sbq::image::image_format()));
    }
  }

  std::uint64_t seed_;
  std::vector<Value> requests_;
  std::vector<int> frame_of_;
  std::vector<Value> frames_;
  std::vector<std::vector<std::uint8_t>> lo_, hi_;
  std::shared_ptr<sbq::qos::QualityManager> quality_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  // bin_small keeps a call outstanding on each of its two connections, so
  // the event front always has work queued; bin_bulk takes its connections
  // in turn from one thread, so its calls do not queue behind each other at
  // the single worker.
  if (name == "bin_small") {
    return std::make_unique<SumEcho>(seed, 16, 64, 2000, /*client_threads=*/2);
  }
  if (name == "bin_bulk") {
    return std::make_unique<SumEcho>(seed, 16384, 4, 10, /*client_threads=*/1);
  }
  if (name == "soap_xml") return std::make_unique<StoreRecord>(seed, 32);
  if (name == "binq_imaging") return std::make_unique<GetImage>(seed);
  return nullptr;
}

std::vector<std::uint64_t> open_loop_plan(double rate_per_s, double seconds,
                                          std::uint64_t seed) {
  // A Poisson process conditioned on its count: a fixed number of arrivals,
  // rate × seconds, with seeded exponential gaps rescaled to the window, so
  // every run of a given length offers the same number of requests.
  const auto n = static_cast<std::size_t>(std::llround(rate_per_s * seconds));
  sbq::Rng rng(stream_seed(seed, 400));
  std::vector<double> gaps(n + 1);
  double total = 0;
  for (double& g : gaps) {
    g = -std::log(1.0 - rng.next_double());
    total += g;
  }
  std::vector<std::uint64_t> due_ns;
  due_ns.reserve(n);
  double t = 0;
  for (std::size_t k = 0; k < n; ++k) {
    t += gaps[k];
    due_ns.push_back(static_cast<std::uint64_t>(t / total * seconds * 1e9));
  }
  return due_ns;
}

Stack::Stack(Workload& workload)
    : formats_(std::make_shared<pbio::FormatServer>()),
      clock_(std::make_shared<sbq::net::SteadyTimeSource>()) {
  const sbq::wsdl::ServiceDesc service = sbq::wsdl::parse_wsdl(kWsdl);
  runtime_ = std::make_unique<core::ServiceRuntime>(formats_, clock_);
  runtime_->set_wsdl_document(kWsdl);
  workload.serve(*runtime_, service);

  sbq::http::ServerOptions options;
  options.front = sbq::http::FrontMode::kEvent;
  options.runtimes = 1;
  options.workers = 1;
  server_ = std::make_unique<sbq::http::Server>(0, traced_handler(*runtime_), options);

  for (int c = 0; c < kConnections; ++c) {
    ClientConn conn;
    conn.stream = std::make_unique<CountingStream>(
        sbq::net::TcpStream::connect("127.0.0.1", server_->port()));
    conn.transport = std::make_unique<TracedTransport>(*conn.stream);
    conn.stub = std::make_unique<core::ClientStub>(*conn.transport, workload.wire(c),
                                                   service, formats_, clock_);
    clients_.push_back(std::move(conn));
  }

  // Warm-up. The first responses of binq_imaging may still be full frames
  // while the quality policy's hysteresis settles, so only the second half
  // of the warm-up calls must pass the oracle.
  const std::string op = workload.operation();
  const int warmup = workload.warmup_calls();
  for (int c = 0; c < kConnections; ++c) {
    core::ClientStub& stub = *clients_[static_cast<std::size_t>(c)].stub;
    for (int i = 0; i < warmup; ++i) {
      const auto n = static_cast<std::uint64_t>(i);
      const Value result = stub.call(op, workload.input(c, n));
      if (2 * i >= warmup && !workload.check(c, n, result, stub)) {
        throw std::runtime_error("warm-up call " + std::to_string(i) + " failed its check");
      }
    }
  }
}

Stack::~Stack() { shutdown(); }

void Stack::shutdown() {
  clients_.clear();
  if (server_) server_->shutdown();
}

}  // namespace e2e
