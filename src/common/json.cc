#include "common/json.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/strings.h"

namespace sdci::json {
namespace {

const Value& NullValue() {
  static const Value kNull;
  return kNull;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> Run() {
    SkipWs();
    auto v = ParseValue();
    if (!v.ok()) return v;
    SkipWs();
    if (pos_ != text_.size()) return Error("trailing content");
    return v;
  }

 private:
  Status Error(std::string_view what) const {
    return InvalidArgumentError(
        strings::Format("JSON parse error at byte {}: {}", pos_, what));
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<Value> ParseValue() {
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    // Containers recurse; bound the depth so hostile input ("[[[[...")
    // cannot overflow the stack.
    if (depth_ > kMaxDepth) return Error("nesting too deep");
    switch (text_[pos_]) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString();
      case 't':
        return ParseLiteral("true", Value(true));
      case 'f':
        return ParseLiteral("false", Value(false));
      case 'n':
        return ParseLiteral("null", Value(nullptr));
      default:
        return ParseNumber();
    }
  }

  Result<Value> ParseLiteral(std::string_view lit, Value v) {
    if (text_.substr(pos_, lit.size()) != lit) return Error("invalid literal");
    pos_ += lit.size();
    return v;
  }

  Result<Value> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const auto parsed = strings::ParseDouble(text_.substr(start, pos_ - start));
    if (!parsed.has_value()) return Error("invalid number");
    return Value(*parsed);
  }

  Result<Value> ParseString() {
    auto s = ParseRawString();
    if (!s.ok()) return s.status();
    return Value(std::move(s.value()));
  }

  Result<std::string> ParseRawString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return Error("dangling escape");
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
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
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
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("short \\u escape");
          const auto cp = strings::ParseUint64(
              "0x" + std::string(text_.substr(pos_, 4)));
          if (!cp.has_value()) return Error("invalid \\u escape");
          pos_ += 4;
          AppendUtf8(out, static_cast<uint32_t>(*cp));
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
  }

  static void AppendUtf8(std::string& out, uint32_t cp) {
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
  }

  Result<Value> ParseArray() {
    Consume('[');
    const DepthGuard guard(*this);
    Array items;
    SkipWs();
    if (Consume(']')) return Value(std::move(items));
    while (true) {
      SkipWs();
      auto v = ParseValue();
      if (!v.ok()) return v;
      items.push_back(std::move(v.value()));
      SkipWs();
      if (Consume(']')) return Value(std::move(items));
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
  }

  Result<Value> ParseObject() {
    Consume('{');
    const DepthGuard guard(*this);
    Object members;
    SkipWs();
    if (Consume('}')) return Value(std::move(members));
    while (true) {
      SkipWs();
      auto key = ParseRawString();
      if (!key.ok()) return key.status();
      SkipWs();
      if (!Consume(':')) return Error("expected ':'");
      SkipWs();
      auto v = ParseValue();
      if (!v.ok()) return v;
      members.insert_or_assign(std::move(key.value()), std::move(v.value()));
      SkipWs();
      if (Consume('}')) return Value(std::move(members));
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
  }

  struct DepthGuard {
    explicit DepthGuard(Parser& p) : parser(p) { ++parser.depth_; }
    ~DepthGuard() { --parser.depth_; }
    Parser& parser;
  };

  static constexpr int kMaxDepth = 256;
  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool Value::AsBool() const noexcept {
  assert(is_bool());
  return bool_;
}

double Value::AsNumber() const noexcept {
  assert(is_number());
  return number_;
}

int64_t Value::AsInt() const noexcept {
  assert(is_number());
  // Saturating: a plain cast of NaN or of a value outside int64_t's range
  // is undefined behaviour. NaN reads as 0; the rest clamp to the ends.
  constexpr double kTwoTo63 = 9223372036854775808.0;
  if (std::isnan(number_)) return 0;
  if (number_ >= kTwoTo63) return std::numeric_limits<int64_t>::max();
  if (number_ < -kTwoTo63) return std::numeric_limits<int64_t>::min();
  return static_cast<int64_t>(number_);
}

const std::string& Value::AsString() const noexcept {
  assert(is_string());
  return string_;
}

const Array& Value::AsArray() const noexcept {
  assert(is_array());
  return array_;
}

Array& Value::AsArray() noexcept {
  assert(is_array());
  return array_;
}

const Object& Value::AsObject() const noexcept {
  assert(is_object());
  return object_;
}

Object& Value::AsObject() noexcept {
  assert(is_object());
  return object_;
}

const Value& Value::operator[](std::string_view key) const noexcept {
  if (!is_object()) return NullValue();
  const auto it = object_.find(std::string(key));
  return it == object_.end() ? NullValue() : it->second;
}

std::string Value::GetString(std::string_view key, std::string fallback) const {
  const Value& v = (*this)[key];
  return v.is_string() ? v.AsString() : std::move(fallback);
}

double Value::GetNumber(std::string_view key, double fallback) const {
  const Value& v = (*this)[key];
  return v.is_number() ? v.AsNumber() : fallback;
}

int64_t Value::GetInt(std::string_view key, int64_t fallback) const {
  const Value& v = (*this)[key];
  return v.is_number() ? v.AsInt() : fallback;
}

bool Value::GetBool(std::string_view key, bool fallback) const {
  const Value& v = (*this)[key];
  return v.is_bool() ? v.AsBool() : fallback;
}

bool Value::Has(std::string_view key) const noexcept {
  return is_object() && object_.count(std::string(key)) > 0;
}

std::string EscapeString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
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
  return out;
}

void Value::DumpTo(std::string& out, int indent, int depth) const {
  const std::string pad = indent > 0 ? std::string(static_cast<size_t>(indent * (depth + 1)), ' ') : "";
  const std::string close_pad = indent > 0 ? std::string(static_cast<size_t>(indent * depth), ' ') : "";
  const char* nl = indent > 0 ? "\n" : "";
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kNumber: {
      if (std::isfinite(number_) && number_ == std::floor(number_) &&
          std::fabs(number_) < 1e15) {
        out += std::to_string(static_cast<int64_t>(number_));
      } else {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", number_);
        out += buf;
      }
      return;
    }
    case Type::kString:
      out += EscapeString(string_);
      return;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      out += nl;
      for (size_t i = 0; i < array_.size(); ++i) {
        out += pad;
        array_[i].DumpTo(out, indent, depth + 1);
        if (i + 1 < array_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += ']';
      return;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      out += nl;
      size_t i = 0;
      for (const auto& [key, value] : object_) {
        out += pad;
        out += EscapeString(key);
        out += indent > 0 ? ": " : ":";
        value.DumpTo(out, indent, depth + 1);
        if (++i < object_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += '}';
      return;
    }
  }
}

std::string Value::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

bool operator==(const Value& a, const Value& b) noexcept {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return a.bool_ == b.bool_;
    case Type::kNumber:
      return a.number_ == b.number_;
    case Type::kString:
      return a.string_ == b.string_;
    case Type::kArray:
      return a.array_ == b.array_;
    case Type::kObject:
      return a.object_ == b.object_;
  }
  return false;
}

Result<Value> Parse(std::string_view text) { return Parser(text).Run(); }

}  // namespace sdci::json
