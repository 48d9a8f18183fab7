// A small JSON value model, parser and serializer.
//
// Used for Ripple rule definitions, monitor event wire format and the
// aggregator's historic-events API. Supports the full JSON grammar except
// \uXXXX surrogate pairs outside the BMP (escapes decode to UTF-8).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace sdci::json {

class Value;

using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

// A JSON document node. Value-semantic; copies deep-copy.
class Value {
 public:
  Value() noexcept : type_(Type::kNull) {}
  Value(std::nullptr_t) noexcept : type_(Type::kNull) {}           // NOLINT
  Value(bool b) noexcept : type_(Type::kBool), bool_(b) {}         // NOLINT
  Value(double n) noexcept : type_(Type::kNumber), number_(n) {}   // NOLINT
  Value(int n) noexcept : Value(static_cast<double>(n)) {}         // NOLINT
  Value(int64_t n) noexcept : Value(static_cast<double>(n)) {}     // NOLINT
  Value(uint64_t n) noexcept : Value(static_cast<double>(n)) {}    // NOLINT
  Value(const char* s) : type_(Type::kString), string_(s) {}       // NOLINT
  Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  Value(std::string_view s) : type_(Type::kString), string_(s) {}  // NOLINT
  Value(Array a) : type_(Type::kArray), array_(std::move(a)) {}    // NOLINT
  Value(Object o) : type_(Type::kObject), object_(std::move(o)) {} // NOLINT

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == Type::kObject; }

  // Typed accessors; preconditions checked with assert in debug builds.
  [[nodiscard]] bool AsBool() const noexcept;
  [[nodiscard]] double AsNumber() const noexcept;
  [[nodiscard]] int64_t AsInt() const noexcept;  // saturating; NaN reads as 0
  [[nodiscard]] const std::string& AsString() const noexcept;
  [[nodiscard]] const Array& AsArray() const noexcept;
  [[nodiscard]] Array& AsArray() noexcept;
  [[nodiscard]] const Object& AsObject() const noexcept;
  [[nodiscard]] Object& AsObject() noexcept;

  // Object member lookup. Returns a shared null Value if absent or if this
  // value is not an object — convenient for optional fields.
  [[nodiscard]] const Value& operator[](std::string_view key) const noexcept;

  // Typed lookups with defaults, for config-style reading.
  [[nodiscard]] std::string GetString(std::string_view key, std::string fallback = "") const;
  [[nodiscard]] double GetNumber(std::string_view key, double fallback = 0) const;
  [[nodiscard]] int64_t GetInt(std::string_view key, int64_t fallback = 0) const;
  [[nodiscard]] bool GetBool(std::string_view key, bool fallback = false) const;
  [[nodiscard]] bool Has(std::string_view key) const noexcept;

  // Serializes to compact JSON. `indent` > 0 pretty-prints.
  [[nodiscard]] std::string Dump(int indent = 0) const;

  friend bool operator==(const Value& a, const Value& b) noexcept;

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

// Parses a JSON document; error statuses carry the byte offset.
Result<Value> Parse(std::string_view text);

// Escapes a string into a JSON string literal (with quotes).
std::string EscapeString(std::string_view s);

}  // namespace sdci::json
