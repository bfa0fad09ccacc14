#include "catalog/catalog.h"

#include "common/bytes.h"
#include "common/string_util.h"
#include "index/btree.h"

namespace jaguar {

namespace {
constexpr uint8_t kTableTag = 0;
constexpr uint8_t kUdfTag = 1;
constexpr uint8_t kIndexTag = 2;
}  // namespace

const char* UdfLanguageToString(UdfLanguage lang) {
  switch (lang) {
    case UdfLanguage::kNative: return "native";
    case UdfLanguage::kNativeChecked: return "native-checked";
    case UdfLanguage::kNativeIsolated: return "native-isolated";
    case UdfLanguage::kJJava: return "jjava";
    case UdfLanguage::kNativeSfi: return "native-sfi";
    case UdfLanguage::kJJavaIsolated: return "jjava-isolated";
  }
  return "?";
}

Result<std::unique_ptr<Catalog>> Catalog::Open(StorageEngine* engine) {
  auto catalog = std::unique_ptr<Catalog>(new Catalog(engine));
  JAGUAR_ASSIGN_OR_RETURN(PageId root, engine->GetCatalogRoot());
  if (root == kInvalidPageId) {
    JAGUAR_ASSIGN_OR_RETURN(root, TableHeap::Create(engine));
    JAGUAR_RETURN_IF_ERROR(engine->SetCatalogRoot(root));
    catalog->root_ = root;
  } else {
    JAGUAR_RETURN_IF_ERROR(catalog->Load(root));
  }
  return catalog;
}

Status Catalog::Load(PageId root) {
  root_ = root;
  TableHeap heap(engine_, root);
  TableHeap::Iterator it = heap.Scan();
  while (true) {
    JAGUAR_ASSIGN_OR_RETURN(auto rec, it.Next());
    if (!rec.has_value()) break;
    BufferReader r(Slice(rec->second));
    JAGUAR_ASSIGN_OR_RETURN(uint8_t tag, r.ReadU8());
    if (tag == kTableTag) {
      TableInfo info;
      JAGUAR_ASSIGN_OR_RETURN(info.name, r.ReadString());
      JAGUAR_ASSIGN_OR_RETURN(info.schema, Schema::ReadFrom(&r));
      JAGUAR_ASSIGN_OR_RETURN(info.first_page, r.ReadU32());
      info.heap = std::make_unique<TableHeap>(engine_, info.first_page);
      tables_[ToLower(info.name)] = std::move(info);
    } else if (tag == kUdfTag) {
      UdfInfo info;
      JAGUAR_ASSIGN_OR_RETURN(info.name, r.ReadString());
      JAGUAR_ASSIGN_OR_RETURN(uint8_t lang, r.ReadU8());
      if (lang > static_cast<uint8_t>(UdfLanguage::kJJavaIsolated)) {
        return Corruption("bad UDF language tag");
      }
      info.language = static_cast<UdfLanguage>(lang);
      JAGUAR_ASSIGN_OR_RETURN(uint8_t ret, r.ReadU8());
      info.return_type = static_cast<TypeId>(ret);
      JAGUAR_ASSIGN_OR_RETURN(uint32_t nargs, r.ReadU32());
      if (nargs > 256) return Corruption("implausible UDF arity");
      for (uint32_t i = 0; i < nargs; ++i) {
        JAGUAR_ASSIGN_OR_RETURN(uint8_t t, r.ReadU8());
        info.arg_types.push_back(static_cast<TypeId>(t));
      }
      JAGUAR_ASSIGN_OR_RETURN(info.impl_name, r.ReadString());
      JAGUAR_ASSIGN_OR_RETURN(Slice payload, r.ReadLengthPrefixed());
      info.payload = payload.ToVector();
      udfs_[ToLower(info.name)] = std::move(info);
    } else if (tag == kIndexTag) {
      IndexInfo info;
      JAGUAR_ASSIGN_OR_RETURN(info.name, r.ReadString());
      JAGUAR_ASSIGN_OR_RETURN(info.table, r.ReadString());
      JAGUAR_ASSIGN_OR_RETURN(info.column, r.ReadString());
      JAGUAR_ASSIGN_OR_RETURN(info.root, r.ReadU32());
      indexes_[ToLower(info.name)] = std::move(info);
    } else {
      return Corruption("unknown catalog record tag");
    }
  }
  // Index records may precede their table's record in heap order, so column
  // positions resolve in a second pass once every table is loaded.
  for (auto& [key, info] : indexes_) {
    auto tit = tables_.find(ToLower(info.table));
    if (tit == tables_.end()) {
      return Corruption("index '" + info.name + "' references missing table");
    }
    JAGUAR_ASSIGN_OR_RETURN(info.column_index,
                            tit->second.schema.IndexOf(info.column));
  }
  return Status::OK();
}

Status Catalog::Persist() {
  // Rewrite: build a fully populated fresh heap, switch the root pointer to
  // it, and only then drop the old heap. The root switch is one logged
  // header write, so crash recovery sees either the complete old catalog or
  // the complete new one — never a root pointing at a half-built heap.
  const PageId old_root = root_;
  JAGUAR_ASSIGN_OR_RETURN(PageId new_root, TableHeap::Create(engine_));
  TableHeap heap(engine_, new_root);
  for (const auto& [key, info] : tables_) {
    BufferWriter w;
    w.PutU8(kTableTag);
    w.PutString(info.name);
    info.schema.WriteTo(&w);
    w.PutU32(info.first_page);
    JAGUAR_RETURN_IF_ERROR(heap.Insert(w.AsSlice()).status());
  }
  for (const auto& [key, info] : udfs_) {
    BufferWriter w;
    w.PutU8(kUdfTag);
    w.PutString(info.name);
    w.PutU8(static_cast<uint8_t>(info.language));
    w.PutU8(static_cast<uint8_t>(info.return_type));
    w.PutU32(static_cast<uint32_t>(info.arg_types.size()));
    for (TypeId t : info.arg_types) w.PutU8(static_cast<uint8_t>(t));
    w.PutString(info.impl_name);
    w.PutLengthPrefixed(Slice(info.payload));
    JAGUAR_RETURN_IF_ERROR(heap.Insert(w.AsSlice()).status());
  }
  for (const auto& [key, info] : indexes_) {
    BufferWriter w;
    w.PutU8(kIndexTag);
    w.PutString(info.name);
    w.PutString(info.table);
    w.PutString(info.column);
    w.PutU32(info.root);
    JAGUAR_RETURN_IF_ERROR(heap.Insert(w.AsSlice()).status());
  }
  JAGUAR_RETURN_IF_ERROR(engine_->SetCatalogRoot(new_root));
  root_ = new_root;
  if (old_root != kInvalidPageId) {
    TableHeap old_heap(engine_, old_root);
    JAGUAR_RETURN_IF_ERROR(old_heap.DropAll());
  }
  return Status::OK();
}

Status Catalog::CreateTable(const std::string& name, const Schema& schema) {
  const std::string key = ToLower(name);
  if (tables_.count(key) != 0) {
    return AlreadyExists("table '" + name + "' already exists");
  }
  if (schema.num_columns() == 0) {
    return InvalidArgument("table must have at least one column");
  }
  JAGUAR_ASSIGN_OR_RETURN(PageId first, TableHeap::Create(engine_));
  tables_[key] = TableInfo{name, schema, first,
                           std::make_unique<TableHeap>(engine_, first)};
  return Persist();
}

Result<const TableInfo*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return NotFound("no table named '" + name + "'");
  return &it->second;
}

Status Catalog::DropTable(const std::string& name) {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return NotFound("no table named '" + name + "'");
  // Indexes on a dropped table go with it.
  const std::string table_key = ToLower(name);
  for (auto iit = indexes_.begin(); iit != indexes_.end();) {
    if (ToLower(iit->second.table) == table_key) {
      BTree tree(engine_, iit->second.root);
      JAGUAR_RETURN_IF_ERROR(tree.DropAll());
      iit = indexes_.erase(iit);
    } else {
      ++iit;
    }
  }
  JAGUAR_RETURN_IF_ERROR(it->second.heap->DropAll());
  tables_.erase(it);
  return Persist();
}

std::vector<std::string> Catalog::ListTables() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, info] : tables_) names.push_back(info.name);
  return names;
}

Status Catalog::CreateIndex(const std::string& name, const std::string& table,
                            const std::string& column) {
  const std::string key = ToLower(name);
  if (indexes_.count(key) != 0) {
    return AlreadyExists("index '" + name + "' already exists");
  }
  auto tit = tables_.find(ToLower(table));
  if (tit == tables_.end()) return NotFound("no table named '" + table + "'");
  JAGUAR_ASSIGN_OR_RETURN(size_t col, tit->second.schema.IndexOf(column));
  const TypeId type = tit->second.schema.column(col).type;
  if (type != TypeId::kInt && type != TypeId::kString) {
    return InvalidArgument(
        std::string("only INT and STRING columns can be indexed; '") +
        column + "' is " + TypeIdToString(type));
  }
  JAGUAR_ASSIGN_OR_RETURN(PageId root, BTree::Create(engine_));
  IndexInfo info;
  info.name = name;
  info.table = tit->second.name;
  info.column = tit->second.schema.column(col).name;
  info.column_index = col;
  info.root = root;
  indexes_[key] = std::move(info);
  return Persist();
}

Result<const IndexInfo*> Catalog::GetIndex(const std::string& name) const {
  auto it = indexes_.find(ToLower(name));
  if (it == indexes_.end()) return NotFound("no index named '" + name + "'");
  return &it->second;
}

Status Catalog::DropIndex(const std::string& name) {
  auto it = indexes_.find(ToLower(name));
  if (it == indexes_.end()) return NotFound("no index named '" + name + "'");
  BTree tree(engine_, it->second.root);
  JAGUAR_RETURN_IF_ERROR(tree.DropAll());
  indexes_.erase(it);
  return Persist();
}

std::vector<const IndexInfo*> Catalog::IndexesForTable(
    const std::string& table) const {
  const std::string key = ToLower(table);
  std::vector<const IndexInfo*> out;
  for (const auto& [name, info] : indexes_) {
    if (ToLower(info.table) == key) out.push_back(&info);
  }
  return out;
}

std::vector<std::string> Catalog::ListIndexes() const {
  std::vector<std::string> names;
  names.reserve(indexes_.size());
  for (const auto& [key, info] : indexes_) names.push_back(info.name);
  return names;
}

Status Catalog::RegisterUdf(UdfInfo info) {
  const std::string key = ToLower(info.name);
  if (udfs_.count(key) != 0) {
    return AlreadyExists("UDF '" + info.name + "' already exists");
  }
  udfs_[key] = std::move(info);
  return Persist();
}

Result<const UdfInfo*> Catalog::GetUdf(const std::string& name) const {
  auto it = udfs_.find(ToLower(name));
  if (it == udfs_.end()) return NotFound("no UDF named '" + name + "'");
  return &it->second;
}

Status Catalog::DropUdf(const std::string& name) {
  auto it = udfs_.find(ToLower(name));
  if (it == udfs_.end()) return NotFound("no UDF named '" + name + "'");
  udfs_.erase(it);
  return Persist();
}

std::vector<std::string> Catalog::ListUdfs() const {
  std::vector<std::string> names;
  names.reserve(udfs_.size());
  for (const auto& [key, info] : udfs_) names.push_back(info.name);
  return names;
}

}  // namespace jaguar
