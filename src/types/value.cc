#include "types/value.h"

#include "common/string_util.h"

namespace jaguar {

const char* TypeIdToString(TypeId t) {
  switch (t) {
    case TypeId::kNull: return "NULL";
    case TypeId::kBool: return "BOOL";
    case TypeId::kInt: return "INT";
    case TypeId::kDouble: return "DOUBLE";
    case TypeId::kString: return "STRING";
    case TypeId::kBytes: return "BYTEARRAY";
  }
  return "?";
}

Result<TypeId> TypeIdFromString(const std::string& name) {
  const std::string n = ToUpper(name);
  if (n == "INT" || n == "INTEGER" || n == "BIGINT") return TypeId::kInt;
  if (n == "DOUBLE" || n == "FLOAT" || n == "REAL") return TypeId::kDouble;
  if (n == "STRING" || n == "VARCHAR" || n == "TEXT" || n == "CHAR") {
    return TypeId::kString;
  }
  if (n == "BYTEARRAY" || n == "BYTES" || n == "BLOB") return TypeId::kBytes;
  if (n == "BOOL" || n == "BOOLEAN") return TypeId::kBool;
  return InvalidArgument("unknown type name: " + name);
}

Result<double> Value::CoerceDouble() const {
  switch (type_) {
    case TypeId::kInt: return static_cast<double>(AsInt());
    case TypeId::kDouble: return AsDouble();
    case TypeId::kBool: return AsBool() ? 1.0 : 0.0;
    default:
      return InvalidArgument(std::string("cannot coerce ") +
                             TypeIdToString(type_) + " to DOUBLE");
  }
}

Result<int64_t> Value::CoerceInt() const {
  switch (type_) {
    case TypeId::kInt: return AsInt();
    case TypeId::kBool: return static_cast<int64_t>(AsBool() ? 1 : 0);
    default:
      return InvalidArgument(std::string("cannot coerce ") +
                             TypeIdToString(type_) + " to INT");
  }
}

bool Value::Equals(const Value& other) const {
  if (type_ != other.type_) {
    // Numeric cross-type equality (int vs double).
    if ((type_ == TypeId::kInt && other.type_ == TypeId::kDouble) ||
        (type_ == TypeId::kDouble && other.type_ == TypeId::kInt)) {
      return CoerceDouble().value() == other.CoerceDouble().value();
    }
    return false;
  }
  return data_ == other.data_;
}

Result<int> Value::Compare(const Value& other) const {
  auto three_way = [](auto a, auto b) { return a < b ? -1 : (a > b ? 1 : 0); };
  if (is_null() || other.is_null()) {
    return InvalidArgument("cannot compare NULL values");
  }
  const bool numeric_a = type_ == TypeId::kInt || type_ == TypeId::kDouble ||
                         type_ == TypeId::kBool;
  const bool numeric_b = other.type_ == TypeId::kInt ||
                         other.type_ == TypeId::kDouble ||
                         other.type_ == TypeId::kBool;
  if (numeric_a && numeric_b) {
    if (type_ == TypeId::kInt && other.type_ == TypeId::kInt) {
      return three_way(AsInt(), other.AsInt());
    }
    JAGUAR_ASSIGN_OR_RETURN(double a, CoerceDouble());
    JAGUAR_ASSIGN_OR_RETURN(double b, other.CoerceDouble());
    return three_way(a, b);
  }
  if (type_ != other.type_) {
    return InvalidArgument(std::string("cannot compare ") +
                           TypeIdToString(type_) + " with " +
                           TypeIdToString(other.type_));
  }
  switch (type_) {
    case TypeId::kString:
      return three_way(AsString().compare(other.AsString()), 0);
    case TypeId::kBytes:
      return Slice(AsBytes()).Compare(Slice(other.AsBytes()));
    default:
      return InvalidArgument("unorderable type");
  }
}

std::string Value::ToString() const {
  switch (type_) {
    case TypeId::kNull: return "NULL";
    case TypeId::kBool: return AsBool() ? "true" : "false";
    case TypeId::kInt: return std::to_string(AsInt());
    case TypeId::kDouble: return StringPrintf("%g", AsDouble());
    case TypeId::kString: return "'" + AsString() + "'";
    case TypeId::kBytes:
      return StringPrintf("<%zu bytes>", AsBytes().size());
  }
  return "?";
}

void Value::WriteTo(BufferWriter* w) const {
  w->PutU8(static_cast<uint8_t>(type_));
  switch (type_) {
    case TypeId::kNull: break;
    case TypeId::kBool: w->PutU8(AsBool() ? 1 : 0); break;
    case TypeId::kInt: w->PutI64(AsInt()); break;
    case TypeId::kDouble: w->PutDouble(AsDouble()); break;
    case TypeId::kString: w->PutString(AsString()); break;
    case TypeId::kBytes: w->PutLengthPrefixed(Slice(AsBytes())); break;
  }
}

Result<Value> Value::ReadFrom(BufferReader* r) {
  JAGUAR_ASSIGN_OR_RETURN(uint8_t tag, r->ReadU8());
  switch (static_cast<TypeId>(tag)) {
    case TypeId::kNull:
      return Value::Null();
    case TypeId::kBool: {
      JAGUAR_ASSIGN_OR_RETURN(uint8_t b, r->ReadU8());
      return Value::Bool(b != 0);
    }
    case TypeId::kInt: {
      JAGUAR_ASSIGN_OR_RETURN(int64_t v, r->ReadI64());
      return Value::Int(v);
    }
    case TypeId::kDouble: {
      JAGUAR_ASSIGN_OR_RETURN(double v, r->ReadDouble());
      return Value::Double(v);
    }
    case TypeId::kString: {
      JAGUAR_ASSIGN_OR_RETURN(std::string s, r->ReadString());
      return Value::String(std::move(s));
    }
    case TypeId::kBytes: {
      JAGUAR_ASSIGN_OR_RETURN(Slice s, r->ReadLengthPrefixed());
      return Value::Bytes(s.ToVector());
    }
  }
  return Corruption("unknown value type tag " + std::to_string(tag));
}

Status Value::ReadInto(BufferReader* r, Value* out) {
  const bool reusable =
      out->type_ == TypeId::kBytes || out->type_ == TypeId::kString;
  BufferReader peek = *r;
  Result<uint8_t> tag = peek.ReadU8();
  if (reusable && tag.ok() && *tag == static_cast<uint8_t>(out->type_)) {
    JAGUAR_ASSIGN_OR_RETURN(Slice s, peek.ReadLengthPrefixed());
    if (out->type_ == TypeId::kBytes) {
      out->MutableBytes().assign(s.data(), s.data() + s.size());
    } else {
      std::get<std::string>(out->data_)
          .assign(reinterpret_cast<const char*>(s.data()), s.size());
    }
    *r = peek;
    return Status::OK();
  }
  JAGUAR_ASSIGN_OR_RETURN(*out, ReadFrom(r));
  return Status::OK();
}

size_t Value::SerializedSize() const {
  switch (type_) {
    case TypeId::kNull: return 1;
    case TypeId::kBool: return 2;
    case TypeId::kInt: return 9;
    case TypeId::kDouble: return 9;
    case TypeId::kString: return 5 + AsString().size();
    case TypeId::kBytes: return 5 + AsBytes().size();
  }
  return 1;
}

}  // namespace jaguar
