#include "util/json_writer.hpp"

#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace rts {

namespace {

void append_escaped(std::string& out, std::string_view text) {
  constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char ch : text) {
    const auto byte = static_cast<unsigned char>(ch);
    if (ch == '"' || ch == '\\') {
      out += {'\\', ch};
    } else if (ch == '\n' || ch == '\t') {
      out += {'\\', ch == '\n' ? 'n' : 't'};
    } else if (byte < 0x20) {
      out += {'\\', 'u', '0', '0', kHex[byte >> 4], kHex[byte & 0xf]};
    } else {
      out += ch;
    }
  }
  out += '"';
}

}  // namespace

std::string format_double(double v) {
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  return std::string(buf, static_cast<std::size_t>(end.ptr - buf));
}

void JsonWriter::separate() {
  const char last = out_.empty() ? '[' : out_.back();
  if (last != '{' && last != '[' && last != ':') out_ += ',';
}

JsonWriter& JsonWriter::scalar(std::string_view text) {
  separate();
  out_ += text;
  return *this;
}

JsonWriter& JsonWriter::open(char bracket) {
  scalar({&bracket, 1});
  open_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::close(char open_bracket, char close_bracket) {
  RTS_REQUIRE(!open_.empty() && open_.back() == open_bracket,
              "JSON close does not match the open container");
  out_ += close_bracket;
  open_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  RTS_REQUIRE(!open_.empty() && open_.back() == '{', "JSON key outside an object");
  separate();
  append_escaped(out_, name);
  out_ += ':';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  RTS_REQUIRE(std::isfinite(v), "cannot serialize non-finite value to JSON");
  return scalar(format_double(v));
}

JsonWriter& JsonWriter::value(std::string_view text) {
  separate();
  append_escaped(out_, text);
  return *this;
}

JsonWriter& JsonWriter::value(std::span<const double> values) {
  begin_array();
  for (const double v : values) value(v);
  return end_array();
}

std::string JsonWriter::take() {
  RTS_REQUIRE(open_.empty() && !out_.empty(), "JSON document is not complete");
  return std::move(out_);
}

}  // namespace rts
