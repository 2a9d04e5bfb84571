#pragma once
// The one JSON writer. Reports, response lines, stats and bench records all
// go through it, so they share one number format and one string escaper,
// and the byte-identity contracts compare like with like. Output is compact
// and keys come out in call order. Doubles are printf's %.17g (std::to_chars,
// general, 17 digits), which round-trips every finite double.

#include <charconv>
#include <concepts>
#include <span>
#include <string>
#include <string_view>

namespace rts {

/// A double in that number format, also for text that is not JSON (problem
/// files, validator diagnostics), where non-finite values are spelled inf/nan.
[[nodiscard]] std::string format_double(double v);

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('{', '}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close('[', ']'); }
  /// An object key; the next call writes its value.
  JsonWriter& key(std::string_view name);

  /// Throws InvalidArgument on NaN and ±inf, which JSON cannot spell.
  JsonWriter& value(double v);
  JsonWriter& value(bool v) { return scalar(v ? "true" : "false"); }
  /// Escapes '"', '\\', '\n', '\t' and the other bytes below 0x20 (as
  /// lowercase \u00xx); every other byte, UTF-8 included, passes through.
  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(std::span<const double> values);
  template <std::integral T>
  JsonWriter& value(T v) {
    char buf[24];
    return scalar({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
  }

  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  /// The finished document; throws if an object or array is still open.
  [[nodiscard]] std::string take();

 private:
  /// A comma, unless the value opens its container or follows its key.
  void separate();
  JsonWriter& scalar(std::string_view text);
  JsonWriter& open(char bracket);
  JsonWriter& close(char open_bracket, char close_bracket);

  std::string out_;
  std::string open_;  ///< nesting stack: '{' or '[' per open container
};

}  // namespace rts
