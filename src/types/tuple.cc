#include "types/tuple.h"

#include <algorithm>
#include <cstdint>

#include "common/string_util.h"

namespace jaguar {

void Tuple::WriteTo(BufferWriter* w) const {
  w->PutU32(static_cast<uint32_t>(values_.size()));
  for (const Value& v : values_) v.WriteTo(w);
}

Result<Tuple> Tuple::ReadFrom(BufferReader* r) {
  return ReadLeading(r, SIZE_MAX);
}

Result<Tuple> Tuple::ReadLeading(BufferReader* r, size_t n) {
  JAGUAR_ASSIGN_OR_RETURN(uint32_t arity, r->ReadU32());
  if (arity > 1u << 20) return Corruption("implausible tuple arity");
  n = std::min<size_t>(n, arity);
  std::vector<Value> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    JAGUAR_ASSIGN_OR_RETURN(Value v, Value::ReadFrom(r));
    values.push_back(std::move(v));
  }
  return Tuple(std::move(values));
}

std::vector<uint8_t> Tuple::Serialize() const {
  BufferWriter w;
  WriteTo(&w);
  return w.Release();
}

Result<Tuple> Tuple::Deserialize(Slice bytes) {
  BufferReader r(bytes);
  JAGUAR_ASSIGN_OR_RETURN(Tuple t, ReadFrom(&r));
  if (!r.AtEnd()) return Corruption("trailing bytes after tuple");
  return t;
}

Status Tuple::CheckSchema(const Schema& schema) const {
  if (values_.size() != schema.num_columns()) {
    return InvalidArgument(StringPrintf(
        "tuple has %zu values but schema has %zu columns", values_.size(),
        schema.num_columns()));
  }
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i].is_null()) continue;
    TypeId want = schema.column(i).type;
    TypeId got = values_[i].type();
    const bool numeric_ok =
        want == TypeId::kDouble && got == TypeId::kInt;  // implicit widening
    if (got != want && !numeric_ok) {
      return InvalidArgument(StringPrintf(
          "column %zu (%s) expects %s but value is %s", i,
          schema.column(i).name.c_str(), TypeIdToString(want),
          TypeIdToString(got)));
    }
  }
  return Status::OK();
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace jaguar
