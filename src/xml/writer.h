// Streaming XML writer used to produce SOAP envelopes, WSDL documents, and
// SVG output. Guarantees well-formed output: balanced tags, escaped text and
// attribute values, attributes rejected after child content has begun.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

namespace sbq::xml {

class XmlWriter {
 public:
  /// `pretty` inserts newlines + 2-space indentation; wire-facing SOAP uses
  /// compact output, documentation examples use pretty output.
  explicit XmlWriter(bool pretty = false) : pretty_(pretty) {}

  /// Emits `<?xml version="1.0" encoding="UTF-8"?>`. Must be first.
  void declaration();

  /// Opens `<name`. Attributes may be added until text/child content starts.
  void start_element(std::string_view name);

  /// Adds an attribute to the currently open start tag.
  void attribute(std::string_view name, std::string_view value);
  void attribute(std::string_view name, std::int64_t value);

  /// Writes escaped character data inside the current element.
  void text(std::string_view value);

  /// Writes raw, pre-escaped markup (used to embed already-serialized XML).
  void raw(std::string_view markup);

  /// Closes the innermost open element (self-closing when empty).
  void end_element();

  /// Convenience: `<name>text</name>`.
  void text_element(std::string_view name, std::string_view text);
  void text_element(std::string_view name, std::int64_t value);
  void text_element(std::string_view name, double value);

  /// Finished document; throws ParseError if elements remain open.
  [[nodiscard]] std::string take();

  /// Current document size in bytes (without closing open elements).
  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  void close_start_tag();
  void indent();

  std::string out_;
  std::vector<std::string> open_;
  bool pretty_;
  bool tag_open_ = false;       // '<name' emitted, '>' not yet
  bool just_opened_ = false;    // element has no content yet
  bool had_child_ = false;      // last content in current element was a child
};

/// Room for any string format_double produces (at most 24 characters, as in
/// "-2.2250738585072014e-308").
using DoubleChars = std::array<char, 32>;

/// Formats a double the way SOAP payloads in this library do: printf's %g
/// at the least precision of at least 6 digits that reads back to the same
/// double. Writes into `buf` and returns a view of it, without allocating.
std::string_view format_double(double v, DoubleChars& buf);

/// The same string, owned.
std::string format_double(double v);

}  // namespace sbq::xml
