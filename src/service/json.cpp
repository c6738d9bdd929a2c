#include "service/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/error.hpp"

namespace fastqaoa::service {

namespace {

constexpr int kMaxDepth = 64;

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value(depth + 1));
      skip_ws();
      const char next = peek();
      ++pos_;
      if (next == '}') return obj;
      if (next != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      const char next = peek();
      ++pos_;
      if (next == ']') return arr;
      if (next != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned int cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned int>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned int>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned int>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // Encode the (BMP) code point as UTF-8; surrogate pairs are
          // passed through as two 3-byte sequences, which is lossy but
          // harmless for a protocol that never emits them.
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool is_int = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        if (c != '-' || (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')) {
          is_int = false;
          ++pos_;
        } else {
          break;
        }
      } else {
        break;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") fail("invalid number");
    if (is_int) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') return Json(v);
      // Out of long-long range: fall through to the double lane.
    }
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("invalid number");
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Json::Json(std::uint64_t v) : type_(Type::Number) {
  if (v <= static_cast<std::uint64_t>(
               std::numeric_limits<long long>::max())) {
    int_ = static_cast<long long>(v);
    is_int_ = true;
    num_ = static_cast<double>(int_);
  } else {
    num_ = static_cast<double>(v);
  }
}

Json Json::parse(std::string_view text) { return Parser(text).run(); }

bool Json::as_bool() const {
  FASTQAOA_CHECK(type_ == Type::Bool, "expected a bool");
  return bool_;
}

double Json::as_double() const {
  FASTQAOA_CHECK(type_ == Type::Number, "expected a number");
  return is_int_ ? static_cast<double>(int_) : num_;
}

long long Json::as_int64() const {
  FASTQAOA_CHECK(type_ == Type::Number && is_int_,
                 "expected an integer");
  return int_;
}

std::uint64_t Json::as_uint64() const {
  const long long v = as_int64();
  FASTQAOA_CHECK(v >= 0, "expected a non-negative integer");
  return static_cast<std::uint64_t>(v);
}

const std::string& Json::as_string() const {
  FASTQAOA_CHECK(type_ == Type::String, "expected a string");
  return str_;
}

const Json::Array& Json::as_array() const {
  FASTQAOA_CHECK(type_ == Type::Array, "expected an array");
  return arr_;
}

const Json::Object& Json::as_object() const {
  FASTQAOA_CHECK(type_ == Type::Object, "expected an object");
  return obj_;
}

const Json* Json::find(std::string_view key) const noexcept {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  FASTQAOA_CHECK(v != nullptr,
                 "json: missing required key '" + std::string(key) + "'");
  return *v;
}

Json& Json::set(std::string_view key, Json value) {
  FASTQAOA_CHECK(type_ == Type::Object, "json: set() on a non-object");
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  obj_.emplace_back(std::string(key), std::move(value));
  return *this;
}

Json& Json::push_back(Json value) {
  FASTQAOA_CHECK(type_ == Type::Array, "json: push_back() on a non-array");
  arr_.push_back(std::move(value));
  return *this;
}

std::size_t Json::size() const noexcept {
  if (type_ == Type::Array) return arr_.size();
  if (type_ == Type::Object) return obj_.size();
  return 0;
}

void Json::dump(std::string& out) const {
  switch (type_) {
    case Type::Null:
      out += "null";
      break;
    case Type::Bool:
      out += bool_ ? "true" : "false";
      break;
    case Type::Number:
      if (is_int_) {
        out += std::to_string(int_);
      } else {
        out += json_double(num_);
      }
      break;
    case Type::String:
      append_escaped(out, str_);
      break;
    case Type::Array: {
      out += '[';
      bool first = true;
      for (const Json& v : arr_) {
        if (!first) out += ',';
        first = false;
        v.dump(out);
      }
      out += ']';
      break;
    }
    case Type::Object: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        append_escaped(out, k);
        out += ':';
        v.dump(out);
      }
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump(out);
  return out;
}

}  // namespace fastqaoa::service
