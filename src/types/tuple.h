#ifndef JAGUAR_TYPES_TUPLE_H_
#define JAGUAR_TYPES_TUPLE_H_

/// \file tuple.h
/// A row of values, serializable through the ADT stream protocol so the same
/// bytes travel between heap pages, the IPC shared-memory segment, and the
/// network wire.

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "types/schema.h"
#include "types/value.h"

namespace jaguar {

class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t num_values() const { return values_.size(); }
  const Value& value(size_t i) const { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }
  std::vector<Value>& mutable_values() { return values_; }

  /// Serializes all values (self-describing; no schema needed to decode).
  void WriteTo(BufferWriter* w) const;
  static Result<Tuple> ReadFrom(BufferReader* r);
  /// Decodes only the first `n` values (all of them when the tuple has
  /// fewer), so `r` may end anywhere after them — a scan reads the leading
  /// columns of an overflow record from its first chunk this way.
  static Result<Tuple> ReadLeading(BufferReader* r, size_t n);

  /// Convenience: serialize to a fresh byte vector.
  std::vector<uint8_t> Serialize() const;
  /// Convenience: deserialize one tuple occupying the whole slice.
  static Result<Tuple> Deserialize(Slice bytes);

  /// Validates this tuple against a schema (arity and types; NULL matches any
  /// column type).
  Status CheckSchema(const Schema& schema) const;

  /// \return "(v1, v2, ...)".
  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

}  // namespace jaguar

#endif  // JAGUAR_TYPES_TUPLE_H_
