#include "floors.h"

#include <algorithm>
#include <functional>

#include "common/arena.h"
#include "common/clock.h"
#include "compress/lzss.h"
#include "core/message.h"
#include "pbio/decode.h"
#include "pbio/value_codec.h"
#include "qos/quality_file.h"
#include "soap/envelope.h"
#include "apps/image/codec.h"

namespace e2e {

namespace {

/// Median time of one call of `op`, in microseconds. Calls are timed in
/// batches of at least ~200 µs (so clock reads do not dominate tiny ops)
/// for about `budget_ms`, with at least five batches.
double median_us(const std::function<void()>& op, double budget_ms = 120.0) {
  op();  // first call warms caches and lazy state
  sbq::Stopwatch probe;
  op();
  const double one_us = std::max(probe.elapsed_us(), 0.01);
  const auto batch = static_cast<int>(std::clamp(200.0 / one_us, 1.0, 100000.0));
  std::vector<double> per_call;
  sbq::Stopwatch budget;
  while (per_call.size() < 5 || budget.elapsed_us() < budget_ms * 1000.0) {
    sbq::Stopwatch sw;
    for (int k = 0; k < batch; ++k) op();
    per_call.push_back(sw.elapsed_us() / batch);
  }
  std::nth_element(per_call.begin(), per_call.begin() + per_call.size() / 2, per_call.end());
  return per_call[per_call.size() / 2];
}

}  // namespace

Floors measure_floors(const FloorInput& in) {
  namespace pbio = sbq::pbio;
  Floors f;
  const pbio::FormatDesc& format = *in.format;

  const sbq::Bytes message = pbio::encode_value_message(in.value, format);
  f.correct &= pbio::decode_value_message(message, format) == in.value;
  f.pbio_encode_us = median_us([&] { (void)pbio::encode_value_message(in.value, format); });
  f.pbio_decode_us = median_us([&] { (void)pbio::decode_value_message(message, format); });
  sbq::Arena arena;
  f.pbio_native_decode_us = median_us([&] {
    arena.reset();
    (void)pbio::decode_message(message, format, format, arena);
  });

  sbq::core::BinEnvelope envelope;
  envelope.operation = in.operation;
  envelope.message_type = format.name;
  envelope.timestamp_us = 1;
  const sbq::Bytes body = sbq::core::encode_bin_message(envelope, sbq::BytesView{message});
  const auto decoded = sbq::core::decode_bin_message(sbq::BytesView{body});
  f.correct &= decoded.envelope.operation == in.operation &&
               decoded.pbio_message.size() == message.size();
  f.envelope_encode_us = median_us(
      [&] { (void)sbq::core::encode_bin_message(envelope, sbq::BytesView{message}); });
  f.envelope_decode_us =
      median_us([&] { (void)sbq::core::decode_bin_message(sbq::BytesView{body}); });

  const std::string xml = sbq::soap::build_request(in.operation, in.value, format);
  {
    const auto parsed = sbq::soap::parse_envelope(xml);
    f.correct &= sbq::soap::decode_body(parsed, format) == in.value;
  }
  f.soap_build_us =
      median_us([&] { (void)sbq::soap::build_request(in.operation, in.value, format); });
  f.soap_parse_us = median_us([&] {
    const auto parsed = sbq::soap::parse_envelope(xml);
    (void)sbq::soap::decode_body(parsed, format);
  });

  const sbq::BytesView xml_bytes = sbq::as_bytes(xml);
  const sbq::Bytes packed = sbq::lz::compress(xml_bytes);
  f.correct &= sbq::lz::decompress(packed) == sbq::to_bytes(xml);
  f.lz_us = median_us([&] { (void)sbq::lz::compress(xml_bytes); });
  f.unlz_us = median_us([&] { (void)sbq::lz::decompress(packed); });

  if (in.full_frame != nullptr) {
    // A manager of its own, so the served one's switch count is untouched.
    sbq::qos::QualityManager quality(sbq::qos::QualityFile::parse(kImagingQualityFile));
    quality.register_message_type("image", sbq::image::image_format());
    quality.register_message_type("half_image", sbq::image::half_image_format(),
                                  sbq::image::resize_quality_handler);
    f.qos_select_apply_us = median_us([&] {
      const auto& type = quality.select();
      (void)quality.apply(*in.full_frame, type);
    });
    f.correct &= quality.select().name == "half_image";
  }
  return f;
}

}  // namespace e2e
