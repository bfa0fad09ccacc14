#ifndef JAGUAR_CATALOG_CATALOG_H_
#define JAGUAR_CATALOG_CATALOG_H_

/// \file catalog.h
/// The system catalog: tables (name, schema, heap root) and registered UDFs
/// (name, language, signature, implementation payload).
///
/// UDF registration is first-class catalog state because the paper's whole
/// premise is that *clients* add functions at runtime (Section 6.4): a
/// JJava UDF arrives as verified bytecode in `payload` and must survive
/// server restarts, exactly like a table.
///
/// Persistence: the catalog serializes into its own TableHeap (one record per
/// entry) whose first page is stored in the storage-engine header. Catalog
/// mutations are rare, so each mutation rewrites the catalog heap.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/storage_engine.h"
#include "storage/table_heap.h"
#include "types/schema.h"

namespace jaguar {

/// How a registered UDF is implemented / which design runs it (Table 1).
enum class UdfLanguage : uint8_t {
  kNative = 0,         ///< Design 1: C++ in the server process.
  kNativeChecked = 1,  ///< Design 1 + explicit bounds checks (Section 5.4).
  kNativeIsolated = 2, ///< Design 2: C++ in a separate process.
  kJJava = 3,          ///< Design 3: JJava bytecode in the in-process JagVM.
  kNativeSfi = 4,      ///< Design 1 + software fault isolation (Section 2.3).
  kJJavaIsolated = 5,  ///< Design 4: JJava bytecode in a JagVM hosted by a
                       ///< separate executor process. The paper extrapolates
                       ///< this cell ("a combination of Design 2 and Design
                       ///< 3"); jaguar implements it.
};

const char* UdfLanguageToString(UdfLanguage lang);

/// Catalog entry for one table.
struct TableInfo {
  std::string name;
  Schema schema;
  PageId first_page = kInvalidPageId;
  /// The table's heap, made at CREATE TABLE or catalog load and dropped with
  /// the table. Every statement appends through it, so its append hint
  /// survives from one statement to the next.
  std::unique_ptr<TableHeap> heap;
};

/// Catalog entry for one secondary index: a B+-tree over a single column.
/// The root page id is stable for the life of the index (root splits happen
/// in place), so it is recorded once at CREATE INDEX.
struct IndexInfo {
  std::string name;
  std::string table;       ///< Table the index belongs to (original case).
  std::string column;      ///< Indexed column name (original case).
  size_t column_index = 0; ///< Resolved against the table schema at load.
  PageId root = kInvalidPageId;
};

/// Catalog entry for one registered UDF.
struct UdfInfo {
  std::string name;
  UdfLanguage language = UdfLanguage::kNative;
  TypeId return_type = TypeId::kInt;
  std::vector<TypeId> arg_types;
  /// Native UDFs: the symbol name in the native registry. JJava UDFs: the
  /// "Class.method" entry point within `payload`.
  std::string impl_name;
  /// JJava UDFs: the class-file bytes (verified at registration time).
  std::vector<uint8_t> payload;
};

class Catalog {
 public:
  /// Loads the catalog from `engine`'s catalog root, creating an empty one on
  /// first open.
  static Result<std::unique_ptr<Catalog>> Open(StorageEngine* engine);

  // -- Tables ---------------------------------------------------------------

  /// Creates a table and its heap. Fails with AlreadyExists on name clash.
  Status CreateTable(const std::string& name, const Schema& schema);

  /// \return The table's catalog entry (owned by the catalog).
  Result<const TableInfo*> GetTable(const std::string& name) const;

  /// Drops the table, freeing all of its pages — and every index built on
  /// it, freeing their pages too.
  Status DropTable(const std::string& name);

  /// \return Names of all tables, sorted.
  std::vector<std::string> ListTables() const;

  // -- Indexes --------------------------------------------------------------

  /// Creates an (empty) B+-tree index named `name` on `table`(`column`).
  /// The column must be INT or STRING. The caller backfills existing rows.
  Status CreateIndex(const std::string& name, const std::string& table,
                     const std::string& column);

  Result<const IndexInfo*> GetIndex(const std::string& name) const;

  /// Drops the index, freeing its pages.
  Status DropIndex(const std::string& name);

  /// All indexes on `table`, ordered by index name.
  std::vector<const IndexInfo*> IndexesForTable(const std::string& table) const;

  /// \return Names of all indexes, sorted.
  std::vector<std::string> ListIndexes() const;

  // -- UDFs -----------------------------------------------------------------

  /// Registers (or fails on duplicate) a UDF.
  Status RegisterUdf(UdfInfo info);

  Result<const UdfInfo*> GetUdf(const std::string& name) const;

  Status DropUdf(const std::string& name);

  std::vector<std::string> ListUdfs() const;

 private:
  explicit Catalog(StorageEngine* engine) : engine_(engine) {}

  Status Load(PageId root);
  Status Persist();

  StorageEngine* engine_;
  PageId root_ = kInvalidPageId;
  // Keys are lower-cased names (SQL identifiers are case-insensitive).
  std::map<std::string, TableInfo> tables_;
  std::map<std::string, UdfInfo> udfs_;
  std::map<std::string, IndexInfo> indexes_;
};

}  // namespace jaguar

#endif  // JAGUAR_CATALOG_CATALOG_H_
