// Minimal self-contained JSON value type for the serve:: job protocol.
//
// The request path of a network-facing daemon must never trust its
// input, so the parser is deliberately strict and bounded: recursion is
// depth-limited, documents must be a single value with no trailing
// bytes, numbers go through strtod with full-token validation, strings
// handle every escape (including \uXXXX surrogate pairs, re-encoded as
// UTF-8), and any violation throws JsonError with the byte offset —
// which the job server turns into a structured "bad_request" reply, not
// a dead worker.
//
// Values are a small immutable-ish tree (object members kept in a
// std::map so dump() output is deterministic — replies can be golden-
// tested byte-for-byte).  dump() writes doubles as printf's %.17g
// would (through std::to_chars), so a parse → mutate → dump cycle
// preserves every numeric bit; bench_perf_engines writes the
// BENCH_solvers.json ledger in this form.
#pragma once

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace si::serve {

/// Thrown on malformed JSON; `offset` is the byte position of the
/// error in the input document.
class JsonError : public std::runtime_error {
 public:
  JsonError(std::size_t offset, const std::string& what)
      : std::runtime_error("JSON error at byte " + std::to_string(offset) +
                           ": " + what),
        offset_(offset) {}

  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// One JSON value.  Default-constructed is null.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() = default;
  Json(bool b) : type_(Type::kBool), bool_(b) {}                    // NOLINT
  Json(double v) : type_(Type::kNumber), num_(v) {}                 // NOLINT
  Json(int v) : Json(static_cast<double>(v)) {}                     // NOLINT
  Json(long v) : Json(static_cast<double>(v)) {}                    // NOLINT
  Json(unsigned long v) : Json(static_cast<double>(v)) {}           // NOLINT
  Json(unsigned long long v) : Json(static_cast<double>(v)) {}      // NOLINT
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {} // NOLINT
  Json(const char* s) : Json(std::string(s)) {}                     // NOLINT

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  /// Parses one complete JSON document; trailing non-whitespace bytes
  /// are an error.  `max_depth` bounds nesting (default 64).
  static Json parse(std::string_view text, int max_depth = 64);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw std::logic_error on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& items() const;
  const Object& members() const;

  // -- object helpers ------------------------------------------------
  /// Member pointer, or nullptr when absent (object only).
  const Json* find(const std::string& key) const;
  /// Mutable member access, inserting null (object only).
  Json& operator[](const std::string& key);
  Json& set(const std::string& key, Json value);

  // -- array helpers -------------------------------------------------
  Json& push(Json value);

  /// Compact serialization (no whitespace), deterministic member order.
  std::string dump() const;
  void dump_to(std::string& out) const;

  /// Escapes `s` into a JSON string literal body (no surrounding
  /// quotes), handling quotes, backslashes and control characters.
  static void escape_to(std::string_view s, std::string& out);
  static std::string escape(std::string_view s);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace si::serve
