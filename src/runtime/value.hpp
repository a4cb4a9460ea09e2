// Runtime values for the EFSM interpreter. Every Estelle variable is a
// Value tree; scalar leaves may be *undefined*, which is the cornerstone of
// partial-trace analysis (paper §5.1): constructors initialize the
// undefined attribute, assignment clears it, and comparisons against an
// undefined value succeed when the analyzer runs in partial mode.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "estelle/types.hpp"

namespace tango::rt {

class Value {
 public:
  enum class Kind : std::uint8_t {
    Undefined,
    Int,
    Bool,
    Char,
    Enum,
    Pointer,  // scalar payload = heap address; 0 is nil
    Record,
    Array,
  };

  Value() = default;  // undefined

  static Value make_int(std::int64_t v);
  static Value make_bool(bool v);
  static Value make_char(char v);
  static Value make_enum(const est::Type* enum_type, std::int64_t ordinal);
  static Value make_pointer(std::uint32_t addr);
  static Value nil() { return make_pointer(0); }
  static Value make_record(std::vector<Value> fields);
  static Value make_array(std::vector<Value> elems);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_undefined() const { return kind_ == Kind::Undefined; }
  [[nodiscard]] bool is_scalar() const {
    return kind_ != Kind::Record && kind_ != Kind::Array;
  }

  /// Raw payload of a defined scalar (int value, bool 0/1, char code,
  /// enum ordinal, pointer address).
  [[nodiscard]] std::int64_t scalar() const { return scalar_; }
  [[nodiscard]] bool as_bool() const { return scalar_ != 0; }
  [[nodiscard]] std::uint32_t address() const {
    return static_cast<std::uint32_t>(scalar_);
  }
  [[nodiscard]] const est::Type* enum_type() const { return enum_type_; }

  [[nodiscard]] std::vector<Value>& elems() { return elems_; }
  [[nodiscard]] const std::vector<Value>& elems() const { return elems_; }

  /// Mixes this value (structure and payload) into `h` (FNV-1a style).
  void hash_into(std::uint64_t& h) const;

  /// Renders for trace files and diagnostics: `42`, `true`, `'c'`,
  /// enum literal name, `nil`, `^3`, `{a, b}` for records, `[x, y]` for
  /// arrays, `_` for undefined.
  [[nodiscard]] std::string to_string() const;

 private:
  Kind kind_ = Kind::Undefined;
  std::int64_t scalar_ = 0;
  const est::Type* enum_type_ = nullptr;
  std::vector<Value> elems_;
};

/// Deep structural equality. When `undefined_wildcard` is set (partial-trace
/// mode), an undefined value on either side matches anything (paper §5.1).
/// Otherwise undefined equals only undefined.
[[nodiscard]] bool equals(const Value& a, const Value& b,
                          bool undefined_wildcard);

/// True if the value or any nested element is undefined.
[[nodiscard]] bool contains_undefined(const Value& v);

/// The element reached from `root` through `path` (indices into elems(),
/// outermost first); null when a container on the way has no such element
/// (it was overwritten by an undefined value).
[[nodiscard]] Value* element_at(Value& root,
                                std::span<const std::uint32_t> path);

/// Default (freshly declared) value of a type: undefined scalars; records
/// and arrays get their structure with undefined leaves.
[[nodiscard]] Value default_value(const est::Type* type);

}  // namespace tango::rt
