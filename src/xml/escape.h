// XML text escaping/unescaping shared by the SAX parser and the writer.
#pragma once

#include <string>
#include <string_view>

namespace sbq::xml {

/// Escapes `&`, `<`, `>`, `"`, `'` for use in element content or attributes.
std::string escape(std::string_view raw);

/// Appends the escaped form of `raw` to `out` (no temporary string).
void escape_append(std::string& out, std::string_view raw);

/// Resolves the five predefined entities plus `&#NNN;` / `&#xHHH;` numeric
/// character references (emitted as UTF-8). Throws ParseError on malformed
/// or unknown entities.
std::string unescape(std::string_view escaped);

/// Encodes a Unicode code point as UTF-8, appending to `out`.
void append_utf8(std::string& out, std::uint32_t codepoint);

}  // namespace sbq::xml
