// Small string utilities shared by the textual front-ends (XML, HTTP, WSDL,
// quality files). Kept deliberately allocation-light: views in, views out
// wherever lifetimes permit.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace sbq {

/// Removes ASCII whitespace from both ends of `s`.
std::string_view trim(std::string_view s);

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Splits `s` on runs of ASCII whitespace, discarding empty fields.
std::vector<std::string_view> split_whitespace(std::string_view s);

/// ASCII lower-casing (sufficient for HTTP header names and XML keywords).
std::string to_lower(std::string_view s);

/// Case-insensitive ASCII equality.
bool iequals(std::string_view a, std::string_view b);

/// Parses a non-negative decimal integer; throws sbq::ParseError on junk.
std::uint64_t parse_u64(std::string_view s);

/// Parses a signed decimal integer; throws sbq::ParseError on junk.
std::int64_t parse_i64(std::string_view s);

/// Parses a floating point number with strtod's grammar in the C locale:
/// decimal or hex, optional sign, inf/infinity/nan/nan(...) in any case,
/// out-of-range values as +-inf or 0. Surrounding ASCII whitespace is
/// ignored; anything else left over throws sbq::ParseError.
double parse_f64(std::string_view s);

/// True if `s` consists only of ASCII whitespace (or is empty).
bool is_blank(std::string_view s);

}  // namespace sbq
