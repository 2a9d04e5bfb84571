// Tests of the one JSON writer (util/json_writer.hpp): the escaper over
// every byte value, the number format against the ostream format it
// replaced, non-finite rejection, comma placement and integer extremes.

#include "util/json_writer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace rts {
namespace {

std::string json_of(std::string_view text) { return JsonWriter().value(text).take(); }
std::string json_of(double v) { return JsonWriter().value(v).take(); }

TEST(JsonWriter, EscapesEveryByteValue) {
  // The escape of each byte below 0x20: \t and \n by name, the rest (\r
  // included) as lowercase \u00xx.
  const char* const kControl[32] = {
      "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006",
      "\\u0007", "\\u0008", "\\t",     "\\n",     "\\u000b", "\\u000c", "\\u000d",
      "\\u000e", "\\u000f", "\\u0010", "\\u0011", "\\u0012", "\\u0013", "\\u0014",
      "\\u0015", "\\u0016", "\\u0017", "\\u0018", "\\u0019", "\\u001a", "\\u001b",
      "\\u001c", "\\u001d", "\\u001e", "\\u001f"};
  for (int b = 0; b < 256; ++b) {
    const std::string raw(1, static_cast<char>(b));
    std::string expected;
    if (b < 0x20) {
      expected = kControl[b];
    } else if (b == '"') {
      expected = "\\\"";
    } else if (b == '\\') {
      expected = "\\\\";
    } else {
      expected = raw;  // printable ASCII, DEL and every byte of UTF-8
    }
    EXPECT_EQ(json_of(raw), "\"" + expected + "\"") << "byte " << b;
  }
}

TEST(JsonWriter, DoublesMatchOstreamAtMaxDigits10) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  std::size_t checked = 0;
  const auto check = [&](double v) {
    os.str("");
    os << v;
    ASSERT_EQ(json_of(v), os.str()) << std::hexfloat << v;
    ++checked;
  };
  for (const double v : {0.0, -0.0, 0.1 + 0.2, 1e17, 1e16, 20.0, 1.0 / 3.0, 5e-324,
                         2.2250738585072014e-308, std::numeric_limits<double>::max(),
                         -std::numeric_limits<double>::max(), 123456.789, 1e21, 1e-7}) {
    check(v);
  }
  Rng rng(20231018);
  for (int i = 0; i < 50'000; ++i) {
    const double bits = std::bit_cast<double>(rng());
    if (std::isfinite(bits)) check(bits);
    check(-1e6 + 2e6 * rng.next_double());
    check((static_cast<double>(rng.next_below(8'000'001)) - 4e6) / 4.0);
  }
  EXPECT_GT(checked, 149'000u);
}

TEST(JsonWriter, RejectsNonFiniteDoubles) {
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    JsonWriter w;
    w.begin_array().value(1.0);
    EXPECT_THROW(w.value(v), InvalidArgument);
    // A rejected value leaves nothing behind, not even a comma.
    EXPECT_EQ(w.value(2.0).end_array().take(), "[1,2]");
  }
}

TEST(JsonWriter, PlacesCommasInNestedContainers) {
  EXPECT_EQ(JsonWriter().begin_object().end_object().take(), "{}");
  EXPECT_EQ(JsonWriter().begin_array().end_array().take(), "[]");
  JsonWriter w;
  w.begin_object()
      .field("a", 1)
      .key("b").begin_array().end_array()
      .key("c").begin_object().end_object()
      .key("d").begin_array()
          .value(1)
          .begin_array().value(true).value("x").end_array()
          .begin_object().field("e", false).end_object()
          .begin_array().end_array()
      .end_array()
      .field("k\"ey", std::vector<double>{0.5, -2.0})
      .end_object();
  EXPECT_EQ(w.take(),
            "{\"a\":1,\"b\":[],\"c\":{},\"d\":[1,[true,\"x\"],{\"e\":false},[]],"
            "\"k\\\"ey\":[0.5,-2]}");
}

TEST(JsonWriter, WritesIntegerExtremes) {
  EXPECT_EQ(JsonWriter().value(std::numeric_limits<std::int64_t>::min()).take(),
            "-9223372036854775808");
  EXPECT_EQ(JsonWriter().value(std::numeric_limits<std::uint64_t>::max()).take(),
            "18446744073709551615");
  EXPECT_EQ(JsonWriter().value(0).take(), "0");
  EXPECT_EQ(JsonWriter().value(-1).take(), "-1");
}

TEST(JsonWriter, RejectsMalformedStructure) {
  EXPECT_THROW(JsonWriter().key("a"), InvalidArgument);
  EXPECT_THROW(JsonWriter().begin_array().key("a"), InvalidArgument);
  EXPECT_THROW(JsonWriter().begin_array().end_object(), InvalidArgument);
  EXPECT_THROW((void)JsonWriter().begin_array().take(), InvalidArgument);
  EXPECT_THROW((void)JsonWriter().take(), InvalidArgument);
}

}  // namespace
}  // namespace rts
