#include "service/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <type_traits>

namespace shufflebound {

std::int64_t JsonValue::as_int() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return *i;
  if (const auto* u = std::get_if<std::uint64_t>(&value_))
    return static_cast<std::int64_t>(*u);
  return static_cast<std::int64_t>(std::get<double>(value_));
}

std::uint64_t JsonValue::as_uint() const {
  if (const auto* u = std::get_if<std::uint64_t>(&value_)) return *u;
  if (const auto* i = std::get_if<std::int64_t>(&value_))
    return static_cast<std::uint64_t>(*i);
  return static_cast<std::uint64_t>(std::get<double>(value_));
}

double JsonValue::as_double() const {
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&value_))
    return static_cast<double>(*i);
  return static_cast<double>(std::get<std::uint64_t>(value_));
}

const JsonValue* JsonValue::find(const std::string& key) const {
  const auto* obj = std::get_if<Object>(&value_);
  if (obj == nullptr) return nullptr;
  for (const auto& [k, v] : *obj)
    if (k == key) return &v;
  return nullptr;
}

void JsonValue::set(std::string key, JsonValue value) {
  Object& obj = members();
  for (auto& [k, v] : obj) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  obj.emplace_back(std::move(key), std::move(value));
}

void json_append_quoted(std::string& out, std::string_view raw) {
  out.push_back('"');
  // Bytes that need no escape are copied in runs; UTF-8 passes through.
  std::size_t run = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const auto c = static_cast<unsigned char>(raw[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(raw.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(raw.data() + run, raw.size() - run);
  out.push_back('"');
}

std::string json_quote(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  json_append_quoted(out, raw);
  return out;
}

void JsonValue::dump_to(std::string& out) const {
  std::visit(
      [&out](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::nullptr_t>) {
          out += "null";
        } else if constexpr (std::is_same_v<T, bool>) {
          out += v ? "true" : "false";
        } else if constexpr (std::is_integral_v<T>) {
          // Exact integer printing.
          char buf[24];
          out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
        } else if constexpr (std::is_same_v<T, double>) {
          // Doubles use a fixed round-trippable format.
          char buf[32];
          const int len = std::snprintf(buf, sizeof buf, "%.17g", v);
          out.append(buf, static_cast<std::size_t>(len));
        } else if constexpr (std::is_same_v<T, std::string>) {
          json_append_quoted(out, v);
        } else if constexpr (std::is_same_v<T, Array>) {
          out.push_back('[');
          for (std::size_t i = 0; i < v.size(); ++i) {
            if (i != 0) out.push_back(',');
            v[i].dump_to(out);
          }
          out.push_back(']');
        } else {
          out.push_back('{');
          for (std::size_t i = 0; i < v.size(); ++i) {
            if (i != 0) out.push_back(',');
            json_append_quoted(out, v[i].first);
            out.push_back(':');
            v[i].second.dump_to(out);
          }
          out.push_back('}');
        }
      },
      value_);
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at offset " +
                                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char sep = peek();
      ++pos_;
      if (sep == '}') return JsonValue(std::move(obj));
      if (sep != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char sep = peek();
      ++pos_;
      if (sep == ']') return JsonValue(std::move(arr));
      if (sep != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy the run up to the next quote or backslash in one append.
      std::size_t end = pos_;
      while (end < text_.size() && text_[end] != '"' && text_[end] != '\\')
        ++end;
      out.append(text_, pos_, end - pos_);
      pos_ = end;
      if (pos_ >= text_.size()) fail("unterminated string");
      if (text_[pos_++] == '"') return out;
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Encode the code point as UTF-8 (surrogate pairs are passed
          // through as two 3-byte sequences; the service never emits them).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    if (!is_double) {
      const char* first = text_.data() + start;
      const char* last = text_.data() + pos_;
      if (*first == '-') {
        std::int64_t v = 0;
        const auto [ptr, ec] = std::from_chars(first, last, v);
        if (ec == std::errc() && ptr == last) return JsonValue(v);
      } else {
        std::uint64_t v = 0;
        const auto [ptr, ec] = std::from_chars(first, last, v);
        if (ec == std::errc() && ptr == last) return JsonValue(v);
      }
      // Overflow: fall through to double.
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    return JsonValue(d);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

JsonValue JsonValue::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace shufflebound
