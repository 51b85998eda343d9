// Unit tests for the XML substrate: escaping, SAX parser, DOM, writer.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "xml/dom.h"
#include "xml/escape.h"
#include "xml/sax.h"
#include "xml/writer.h"

namespace sbq::xml {
namespace {

// ---------------------------------------------------------------- escaping

TEST(Escape, EscapesSpecials) {
  EXPECT_EQ(escape("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
  EXPECT_EQ(escape("plain"), "plain");
}

TEST(Escape, UnescapeNamedEntities) {
  EXPECT_EQ(unescape("a&lt;b&gt;&amp;&quot;&apos;"), "a<b>&\"'");
}

TEST(Escape, UnescapeNumericReferences) {
  EXPECT_EQ(unescape("&#65;&#x42;"), "AB");
  EXPECT_EQ(unescape("&#xE9;"), "\xC3\xA9");       // é as UTF-8
  EXPECT_EQ(unescape("&#x1F600;").size(), 4u);     // 4-byte UTF-8
}

TEST(Escape, RoundTrip) {
  const std::string nasty = "<tag attr=\"v&v\">'quoted' & more</tag>";
  EXPECT_EQ(unescape(escape(nasty)), nasty);
}

TEST(Escape, MalformedEntitiesThrow) {
  EXPECT_THROW(unescape("&unknown;"), ParseError);
  EXPECT_THROW(unescape("&amp"), ParseError);
  EXPECT_THROW(unescape("&#;"), ParseError);
  EXPECT_THROW(unescape("&#xZZ;"), ParseError);
  EXPECT_THROW(unescape("&#x110000;"), ParseError);
}

// ---------------------------------------------------------------- SAX

struct Trace {
  std::string events;
};

SaxHandlers tracing_handlers(Trace& trace) {
  SaxHandlers h;
  h.start_element = [&](std::string_view name, const std::vector<Attribute>& attrs) {
    trace.events += "<" + std::string(name);
    for (const auto& a : attrs) trace.events += " " + a.name + "=" + a.value;
    trace.events += ">";
  };
  h.end_element = [&](std::string_view name) {
    trace.events += "</" + std::string(name) + ">";
  };
  h.characters = [&](std::string_view text) {
    trace.events += "[" + std::string(text) + "]";
  };
  h.comment = [&](std::string_view text) {
    trace.events += "{c:" + std::string(text) + "}";
  };
  h.processing_instruction = [&](std::string_view target, std::string_view data) {
    trace.events += "{pi:" + std::string(target) + ":" + std::string(data) + "}";
  };
  return h;
}

TEST(Sax, SimpleDocument) {
  Trace t;
  SaxParser p(tracing_handlers(t));
  p.parse("<root><a>1</a><b x=\"2\"/></root>");
  EXPECT_EQ(t.events, "<root><a>[1]</a><b x=2></b></root>");
}

TEST(Sax, DeclarationAndWhitespaceProlog) {
  Trace t;
  SaxParser p(tracing_handlers(t));
  p.parse("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n  <r/>\n");
  EXPECT_EQ(t.events, "<r></r>");
}

TEST(Sax, EntitiesInTextAndAttributes) {
  Trace t;
  SaxParser p(tracing_handlers(t));
  p.parse("<r a=\"x&amp;y\">1 &lt; 2</r>");
  EXPECT_EQ(t.events, "<r a=x&y>[1 < 2]</r>");
}

TEST(Sax, CdataDeliveredVerbatim) {
  Trace t;
  SaxParser p(tracing_handlers(t));
  p.parse("<r><![CDATA[<not & parsed>]]></r>");
  EXPECT_EQ(t.events, "<r>[<not & parsed>]</r>");
}

TEST(Sax, CommentsAndPis) {
  Trace t;
  SaxParser p(tracing_handlers(t));
  p.parse("<!-- head --><r><!-- in --><?proc data?></r><!-- tail -->");
  EXPECT_EQ(t.events, "{c: head }<r>{c: in }{pi:proc:data}</r>{c: tail }");
}

TEST(Sax, NestedElements) {
  Trace t;
  SaxParser p(tracing_handlers(t));
  p.parse("<a><b><c/></b><b2/></a>");
  EXPECT_EQ(t.events, "<a><b><c></c></b><b2></b2></a>");
}

TEST(Sax, NamespacedNamesPassThrough) {
  Trace t;
  SaxParser p(tracing_handlers(t));
  p.parse("<soap:Envelope xmlns:soap=\"uri\"><soap:Body/></soap:Envelope>");
  EXPECT_EQ(t.events,
            "<soap:Envelope xmlns:soap=uri><soap:Body></soap:Body></soap:Envelope>");
}

TEST(Sax, MismatchedTagThrowsWithPosition) {
  SaxParser p({});
  try {
    p.parse("<a>\n  <b></c>\n</a>");
    FAIL() << "expected XmlError";
  } catch (const XmlError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("mismatched"), std::string::npos);
  }
}

TEST(Sax, WellFormednessViolations) {
  SaxParser p({});
  EXPECT_THROW(p.parse(""), XmlError);
  EXPECT_THROW(p.parse("just text"), XmlError);
  EXPECT_THROW(p.parse("<a>"), XmlError);
  EXPECT_THROW(p.parse("<a></a><b></b>"), XmlError);
  EXPECT_THROW(p.parse("<a></a>trailing"), XmlError);
  EXPECT_THROW(p.parse("<a x=1></a>"), XmlError);         // unquoted attr
  EXPECT_THROW(p.parse("<a x=\"1\" x=\"2\"/>"), XmlError);  // duplicate attr
  EXPECT_THROW(p.parse("<a><b attr=\"<\"/></a>"), XmlError);
  EXPECT_THROW(p.parse("<!DOCTYPE foo []><a/>"), XmlError);
  EXPECT_THROW(p.parse("<a><!-- -- --></a>"), XmlError);
}

TEST(Sax, DeepNestingWithinLimitParses) {
  std::string doc;
  for (int i = 0; i < 200; ++i) doc += "<n>";
  doc += "x";
  for (int i = 0; i < 200; ++i) doc += "</n>";
  int depth = 0;
  int max_depth = 0;
  SaxHandlers h;
  h.start_element = [&](std::string_view, const std::vector<Attribute>&) {
    max_depth = std::max(max_depth, ++depth);
  };
  h.end_element = [&](std::string_view) { --depth; };
  SaxParser p(std::move(h));
  p.parse(doc);
  EXPECT_EQ(max_depth, 200);
}

TEST(Sax, NestingBeyondLimitIsRejected) {
  std::string doc;
  for (int i = 0; i < 500; ++i) doc += "<n>";
  doc += "x";
  for (int i = 0; i < 500; ++i) doc += "</n>";
  SaxParser p({});
  EXPECT_THROW(p.parse(doc), XmlError);

  SaxParser strict({}, /*max_depth=*/4);
  EXPECT_THROW(strict.parse("<a><b><c><d><e/></d></c></b></a>"), XmlError);
  SaxParser ok({}, /*max_depth=*/5);
  ok.parse("<a><b><c><d><e/></d></c></b></a>");
}

TEST(Sax, AttributeWhitespaceTolerance) {
  Trace t;
  SaxParser p(tracing_handlers(t));
  p.parse("<r a = \"1\"  b=\"2\" />");
  EXPECT_EQ(t.events, "<r a=1 b=2></r>");
}

TEST(Sax, SingleQuotedAttributes) {
  Trace t;
  SaxParser p(tracing_handlers(t));
  p.parse("<r a='va\"lue'/>");
  EXPECT_EQ(t.events, "<r a=va\"lue></r>");
}

// ---------------------------------------------------------------- DOM

TEST(Dom, BuildsTree) {
  auto root = parse_document(
      "<definitions name=\"svc\"><types><schema/></types>"
      "<message name=\"m1\"/><message name=\"m2\"/></definitions>");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "definitions");
  EXPECT_EQ(root->required_attribute("name"), "svc");
  EXPECT_NE(root->child("types"), nullptr);
  EXPECT_EQ(root->children_named("message").size(), 2u);
  EXPECT_EQ(root->children_named("message")[1]->required_attribute("name"), "m2");
}

TEST(Dom, TextAccumulation) {
  auto root = parse_document("<v>12<!-- split -->34</v>");
  EXPECT_EQ(root->trimmed_text(), "1234");
}

TEST(Dom, LocalNameStripsPrefix) {
  auto root = parse_document("<xsd:schema xmlns:xsd=\"u\"><xsd:element/></xsd:schema>");
  EXPECT_EQ(root->local_name(), "schema");
  EXPECT_NE(root->child("element"), nullptr);
}

TEST(Dom, AttributeLookupIgnoresPrefix) {
  auto root = parse_document("<e xsi:type=\"int\" xmlns:xsi=\"u\"/>");
  ASSERT_TRUE(root->attribute("type").has_value());
  EXPECT_EQ(*root->attribute("type"), "int");
}

TEST(Dom, RequiredLookupsThrow) {
  auto root = parse_document("<e/>");
  EXPECT_THROW((void)root->required_attribute("missing"), ParseError);
  EXPECT_THROW((void)root->required_child("missing"), ParseError);
}

TEST(Dom, RoundTripThroughToString) {
  auto root = parse_document("<a x=\"1\"><b>t&amp;t</b></a>");
  auto again = parse_document(root->to_string());
  EXPECT_EQ(again->name, "a");
  EXPECT_EQ(again->required_child("b").trimmed_text(), "t&t");
}

// ---------------------------------------------------------------- writer

TEST(Writer, CompactDocument) {
  XmlWriter w;
  w.start_element("root");
  w.attribute("id", std::int64_t{7});
  w.start_element("item");
  w.text("a<b");
  w.end_element();
  w.start_element("empty");
  w.end_element();
  w.end_element();
  EXPECT_EQ(w.take(), "<root id=\"7\"><item>a&lt;b</item><empty/></root>");
}

TEST(Writer, DeclarationFirst) {
  XmlWriter w;
  w.declaration();
  w.start_element("r");
  w.end_element();
  EXPECT_EQ(w.take(), "<?xml version=\"1.0\" encoding=\"UTF-8\"?><r/>");
}

TEST(Writer, DeclarationNotFirstThrows) {
  XmlWriter w;
  w.start_element("r");
  EXPECT_THROW(w.declaration(), ParseError);
}

TEST(Writer, UnbalancedTakeThrows) {
  XmlWriter w;
  w.start_element("r");
  EXPECT_THROW(w.take(), ParseError);
}

TEST(Writer, AttributeAfterContentThrows) {
  XmlWriter w;
  w.start_element("r");
  w.text("x");
  EXPECT_THROW(w.attribute("late", "1"), ParseError);
}

TEST(Writer, TextElementHelpers) {
  XmlWriter w;
  w.start_element("r");
  w.text_element("i", std::int64_t{-3});
  w.text_element("d", 0.5);
  w.text_element("s", "x&y");
  w.end_element();
  EXPECT_EQ(w.take(), "<r><i>-3</i><d>0.5</d><s>x&amp;y</s></r>");
}

TEST(Writer, OutputParsesBack) {
  XmlWriter w(true);
  w.declaration();
  w.start_element("envelope");
  w.start_element("body");
  w.attribute("kind", "test");
  w.text_element("value", std::int64_t{42});
  w.end_element();
  w.end_element();
  auto root = parse_document(w.take());
  EXPECT_EQ(root->required_child("body").required_child("value").trimmed_text(), "42");
}

TEST(Writer, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.5, -2.25, 3.14159265358979, 1e-9, 6.02e23}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(std::stod(format_double(v))),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(Writer, TextAndAttributesEscapeInPlace) {
  XmlWriter w;
  w.start_element("r");
  w.attribute("a", "<\"'&>");
  w.text("x&y<z");
  w.text("plain");
  w.text("");
  w.end_element();
  EXPECT_EQ(w.take(), "<r a=\"&lt;&quot;&apos;&amp;&gt;\">x&amp;y&lt;zplain</r>");
  std::string out = "keep:";
  escape_append(out, "&&");
  EXPECT_EQ(out, "keep:&amp;&amp;");
}

// ------------------------------------------- number codec differential oracle

// The formatter format_double replaced: %g at precision 6, 7, ... 17 until
// sscanf reads the double back. The wire format is defined by its output.
std::string reference_format_double(double v) {
  char buf[64];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) break;
  }
  return buf;
}

double parse_c(const char* s) { return std::strtod(s, nullptr); }

// Values where %g changes layout or where correct rounding and round-trip
// disagree: signed zeros, infinities, NaNs, the ends of the range,
// subnormals, every power of two and its neighbours, powers of ten (where
// %g switches between fixed and exponent form) and decimal grids.
std::vector<double> edge_doubles() {
  using limits = std::numeric_limits<double>;
  std::vector<double> out = {0.0,           -0.0,          limits::max(),
                             limits::lowest(), limits::min(), limits::denorm_min(),
                             -limits::denorm_min(), limits::infinity(),
                             -limits::infinity(), limits::quiet_NaN(),
                             -limits::quiet_NaN(), limits::epsilon()};
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (double x : {p, std::nextafter(p, 0.0), std::nextafter(p, limits::infinity())}) {
      out.push_back(x);
      out.push_back(-x);
    }
  }
  for (int e = -324; e <= 308; ++e) {
    const std::string text = "1e" + std::to_string(e);
    const double t = parse_c(text.c_str());
    out.push_back(t);
    out.push_back(t * 1.5);
    out.push_back(std::nextafter(t, limits::infinity()));
    out.push_back(std::nextafter(t, 0.0));
  }
  for (double x : {99999.5, 999999.5, 123456.7, 1234567.5, 9999995.0, 1e16 + 2,
                   1e17 + 16, 0.0001, 0.00012345678, 0.000099999995}) {
    out.push_back(x);
    out.push_back(-x);
  }
  for (int i = 0; i <= 100'000; ++i) {
    out.push_back(i);
    out.push_back(i * 0.01);
    out.push_back(i / 10.0);
  }
  return out;
}

// Seeded random doubles: every bit pattern (NaN payloads, infinities and
// subnormals included), subnormals on their own, and normal(20, 8) draws
// like the benchmark's records carry.
std::vector<double> random_doubles(std::uint64_t seed, std::size_t bit_patterns) {
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(bit_patterns + bit_patterns / 4);
  for (std::size_t i = 0; i < bit_patterns; ++i) {
    out.push_back(std::bit_cast<double>(rng.next_u64()));
  }
  for (std::size_t i = 0; i < bit_patterns / 16; ++i) {
    const std::uint64_t subnormal = rng.next_u64() & 0x800F'FFFF'FFFF'FFFFull;
    out.push_back(std::bit_cast<double>(subnormal));
    out.push_back(rng.normal(20.0, 8.0));
    out.push_back(rng.normal(20.0, 8.0));
    out.push_back(rng.normal(20.0, 8.0));
  }
  return out;
}

std::size_t count_format_mismatches(const std::vector<double>& values) {
  std::size_t mismatches = 0;
  DoubleChars buf;
  for (double v : values) {
    const std::string want = reference_format_double(v);
    const std::string_view got = format_double(v, buf);
    if (got != want) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "bits " << std::hex << std::bit_cast<std::uint64_t>(v)
                      << ": format_double gives '" << got << "', the %g loop '"
                      << want << "'";
      }
    }
  }
  return mismatches;
}

TEST(NumberCodec, FormatDoubleMatchesThePrintfLoopOnEdgeValues) {
  const auto values = edge_doubles();
  EXPECT_EQ(count_format_mismatches(values), 0u) << "of " << values.size();
  EXPECT_EQ(format_double(1e5), "100000");
  EXPECT_EQ(format_double(1e6), "1e+06");
  EXPECT_EQ(format_double(1e16), "1e+16");
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(format_double(std::numeric_limits<double>::quiet_NaN()), "nan");
}

// 1 M random bit patterns, plus subnormals and normal draws, in four seeded
// shards so the suite runs them in parallel.
class FormatDoubleRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FormatDoubleRandom, MatchesThePrintfLoop) {
  const auto values = random_doubles(GetParam(), 250'000);
  EXPECT_EQ(count_format_mismatches(values), 0u) << "of " << values.size();
}

INSTANTIATE_TEST_SUITE_P(Shards, FormatDoubleRandom,
                         ::testing::Values(0x5eed0001u, 0x5eed0002u, 0x5eed0003u,
                                           0x5eed0004u));

}  // namespace
}  // namespace sbq::xml
