// Layer floors: direct single-thread calls into one layer at a time, on the
// workload's own values, with no network. The distance between a floor and
// the matching per-call figure of the live run is what the stack adds.
#pragma once

#include "service.h"

namespace e2e {

/// Median microseconds per call, and whether every round trip through a
/// layer gave back what went in.
struct Floors {
  bool correct = true;
  double pbio_encode_us = 0;         // encode_value_message
  double pbio_decode_us = 0;         // decode_value_message (dynamic Value)
  double pbio_native_decode_us = 0;  // decode_message into a native record
  double envelope_encode_us = 0;     // encode_bin_message
  double envelope_decode_us = 0;     // decode_bin_message
  double soap_build_us = 0;          // soap::build_request
  double soap_parse_us = 0;          // parse_envelope + decode_body
  double lz_us = 0;                  // lz::compress of the request XML
  double unlz_us = 0;                // lz::decompress
  double qos_select_apply_us = 0;    // QualityManager select + apply (imaging)
};

Floors measure_floors(const FloorInput& input);

}  // namespace e2e
