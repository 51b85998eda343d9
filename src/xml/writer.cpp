#include "xml/writer.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/error.h"
#include "xml/escape.h"

namespace sbq::xml {

std::string_view format_double(double v, DoubleChars& buf) {
  char* const first = buf.data();
  char* const last = first + buf.size();
  // Non-finite values keep %g's spellings: inf, -inf, nan, -nan.
  if (!std::isfinite(v)) {
    return {first, static_cast<std::size_t>(std::to_chars(first, last, v).ptr - first)};
  }
  // The shortest round-trip form fixes the least digit count that can
  // round-trip; %g at fewer than 6 digits is never used.
  const char* const sci_end =
      std::to_chars(first, last, v, std::chars_format::scientific).ptr;
  int digits = 0;
  for (const char* p = first; p != sci_end && *p != 'e'; ++p) {
    if (*p >= '0' && *p <= '9') ++digits;
  }
  // %.{prec}g rounds correctly, which near a power of two can land outside
  // the round-trip interval: step the precision up until it reads back.
  for (int prec = std::max(6, digits);; ++prec) {
    const char* const end =
        std::to_chars(first, last, v, std::chars_format::general, prec).ptr;
    double back = 0.0;
    const bool read_back = std::from_chars(first, end, back).ec == std::errc{};
    if ((read_back && back == v) || prec >= 17) {
      return {first, static_cast<std::size_t>(end - first)};
    }
  }
}

std::string format_double(double v) {
  DoubleChars buf;
  return std::string{format_double(v, buf)};
}

void XmlWriter::declaration() {
  if (!out_.empty()) throw ParseError("XML declaration must come first");
  out_ += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
  if (pretty_) out_ += '\n';
}

void XmlWriter::indent() {
  if (!pretty_) return;
  if (!out_.empty() && out_.back() != '\n') out_ += '\n';
  out_.append(open_.size() * 2, ' ');
}

void XmlWriter::close_start_tag() {
  if (tag_open_) {
    out_ += '>';
    tag_open_ = false;
  }
}

void XmlWriter::start_element(std::string_view name) {
  close_start_tag();
  indent();
  out_ += '<';
  out_ += name;
  open_.emplace_back(name);
  tag_open_ = true;
  just_opened_ = true;
  had_child_ = false;
}

void XmlWriter::attribute(std::string_view name, std::string_view value) {
  if (!tag_open_) throw ParseError("attribute after element content: " + std::string(name));
  out_ += ' ';
  out_ += name;
  out_ += "=\"";
  escape_append(out_, value);
  out_ += '"';
}

void XmlWriter::attribute(std::string_view name, std::int64_t value) {
  attribute(name, std::string_view{std::to_string(value)});
}

void XmlWriter::text(std::string_view value) {
  if (open_.empty()) throw ParseError("text outside root element");
  close_start_tag();
  escape_append(out_, value);
  just_opened_ = false;
}

void XmlWriter::raw(std::string_view markup) {
  close_start_tag();
  out_ += markup;
  just_opened_ = false;
}

void XmlWriter::end_element() {
  if (open_.empty()) throw ParseError("end_element with no open element");
  std::string name = std::move(open_.back());
  open_.pop_back();
  if (tag_open_) {
    out_ += "/>";
    tag_open_ = false;
  } else {
    if (pretty_ && had_child_) {
      if (!out_.empty() && out_.back() != '\n') out_ += '\n';
      out_.append(open_.size() * 2, ' ');
    }
    out_ += "</";
    out_ += name;
    out_ += '>';
  }
  if (pretty_) out_ += '\n';
  just_opened_ = false;
  had_child_ = true;
}

void XmlWriter::text_element(std::string_view name, std::string_view text_value) {
  start_element(name);
  text(text_value);
  end_element();
}

void XmlWriter::text_element(std::string_view name, std::int64_t value) {
  text_element(name, std::string_view{std::to_string(value)});
}

void XmlWriter::text_element(std::string_view name, double value) {
  DoubleChars buf;
  text_element(name, format_double(value, buf));
}

std::string XmlWriter::take() {
  if (!open_.empty()) {
    throw ParseError("document finished with <" + open_.back() + "> still open");
  }
  return std::move(out_);
}

}  // namespace sbq::xml
