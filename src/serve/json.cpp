#include "serve/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace si::serve {

namespace {

/// Bounded recursive-descent parser over a string_view.
class Parser {
 public:
  Parser(std::string_view text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  Json run() {
    Json v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError(pos_, why);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (eof() || peek() != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value(int depth) {
    if (depth > max_depth_) fail("nesting too deep");
    skip_ws();
    if (eof()) fail("unexpected end of document");
    const char c = peek();
    switch (c) {
      case '{':
        return object(depth);
      case '[':
        return array(depth);
      case '"':
        return Json(string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json();
      default:
        return number();
    }
  }

  Json object(int depth) {
    expect('{');
    Json out = Json::object();
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key");
      std::string key = string();
      skip_ws();
      expect(':');
      out.set(std::move(key), value(depth + 1));
      skip_ws();
      if (eof()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return out;
    }
  }

  Json array(int depth) {
    expect('[');
    Json out = Json::array();
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      out.push(value(depth + 1));
      skip_ws();
      if (eof()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return out;
    }
  }

  unsigned hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9')
        v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v |= static_cast<unsigned>(c - 'A' + 10);
      else
        fail("bad hex digit in \\u escape");
    }
    return v;
  }

  void append_utf8(unsigned cp, std::string& out) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (eof()) fail("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              fail("lone high surrogate");
            pos_ += 2;
            const unsigned lo = hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("lone low surrogate");
          }
          append_utf8(cp, out);
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (!eof() && peek() >= '0' && peek() <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("bad number");
    if (!eof() && peek() == '.') {
      ++pos_;
      if (digits() == 0) fail("bad number: no digits after '.'");
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (digits() == 0) fail("bad number: empty exponent");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("bad number");
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int max_depth_;
};

[[noreturn]] void type_error(const char* want) {
  throw std::logic_error(std::string("Json: value is not ") + want);
}

}  // namespace

Json Json::parse(std::string_view text, int max_depth) {
  return Parser(text, max_depth).run();
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("a bool");
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) type_error("a number");
  return num_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("a string");
  return str_;
}

const Json::Array& Json::items() const {
  if (type_ != Type::kArray) type_error("an array");
  return arr_;
}

const Json::Object& Json::members() const {
  if (type_ != Type::kObject) type_error("an object");
  return obj_;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) type_error("an object");
  const auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) type_error("an object");
  return obj_[key];
}

Json& Json::set(const std::string& key, Json value) {
  (*this)[key] = std::move(value);
  return *this;
}

Json& Json::push(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) type_error("an array");
  arr_.push_back(std::move(value));
  return *this;
}

void Json::escape_to(std::string_view s, std::string& out) {
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(raw);
        }
    }
  }
}

std::string Json::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  escape_to(s, out);
  return out;
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kNumber: {
      if (!std::isfinite(num_)) {
        // JSON has no inf/nan; emit null rather than an invalid token.
        out += "null";
        return;
      }
      // Integral values within the double-exact range print as
      // integers (job counts, sizes); everything else round-trips at
      // full precision.  to_chars writes the same bytes as printf's
      // "%.0f" / "%.17g" at a fraction of the cost: a transient reply
      // carries hundreds of samples.
      char buf[32];
      const bool integral =
          num_ == std::floor(num_) && std::fabs(num_) < 9.007199254740992e15;
      const std::to_chars_result r =
          integral ? std::to_chars(buf, buf + sizeof buf, num_,
                                   std::chars_format::fixed, 0)
                   : std::to_chars(buf, buf + sizeof buf, num_,
                                   std::chars_format::general, 17);
      out.append(buf, r.ptr);
      return;
    }
    case Type::kString:
      out.push_back('"');
      escape_to(str_, out);
      out.push_back('"');
      return;
    case Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Json& v : arr_) {
        if (!first) out.push_back(',');
        first = false;
        v.dump_to(out);
      }
      out.push_back(']');
      return;
    }
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out.push_back(',');
        first = false;
        out.push_back('"');
        escape_to(k, out);
        out += "\":";
        v.dump_to(out);
      }
      out.push_back('}');
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

}  // namespace si::serve
