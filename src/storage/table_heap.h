#ifndef JAGUAR_STORAGE_TABLE_HEAP_H_
#define JAGUAR_STORAGE_TABLE_HEAP_H_

/// \file table_heap.h
/// An unordered collection of variable-length records stored in a chain of
/// slotted pages, with transparent **overflow chains** for records larger
/// than a page — the paper's `Rel10000` relation stores ~10 KB byte arrays
/// per tuple, larger than our 8 KB pages.
///
/// Record encoding inside a slot:
///   * inline:   [0x00] [payload...]
///   * overflow: [0x01] [u64 total_len] [u32 first_overflow_page]
/// Overflow pages: [u32 next_page] [u32 chunk_len] [chunk bytes...].

#include <cstdint>
#include <optional>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/storage_engine.h"

namespace jaguar {

class TableHeap {
 public:
  /// Attaches to an existing heap whose first page is `first_page`.
  TableHeap(StorageEngine* engine, PageId first_page);

  /// Allocates and formats a new, empty heap; returns its first page id.
  static Result<PageId> Create(StorageEngine* engine);

  PageId first_page() const { return first_page_; }
  StorageEngine* engine() const { return engine_; }

  /// Appends a record; returns its id. The search for room starts at the
  /// append hint (the page the last append landed on) and walks forward
  /// along the chain, extending it when it runs out. A heap kept alive
  /// across statements therefore appends in O(1) fetches once the hint has
  /// reached the tail.
  Result<RecordId> Insert(Slice record);

  /// Moves the append hint back to the first page, so the next appends
  /// refill the space deletes freed before the chain grows.
  void ResetAppendHint() { last_page_hint_ = first_page_; }

  /// Reads the full record bytes (reassembling overflow chains).
  Result<std::vector<uint8_t>> Get(RecordId rid);

  /// Deletes a record, freeing any overflow pages.
  Status Delete(RecordId rid);

  /// Frees every page belonging to this heap (data, chain and overflow).
  /// The TableHeap must not be used afterwards.
  Status DropAll();

  /// Number of live records (scans; test/debug use).
  Result<uint64_t> CountRecords();

  /// Forward scan over live records: a cursor that pins each chain page
  /// once and yields views of the records on it.
  class Iterator {
   public:
    /// One record as it sits in the buffer pool. `head` stays valid until
    /// the next call on the iterator, which keeps its pages pinned meanwhile.
    struct View {
      RecordId rid;
      /// Inline record: all of it. Overflow record: its first chunk.
      Slice head;
      /// `head` is the whole record (no more overflow pages to read).
      bool complete = true;
    };

    /// Advances to the next live record without copying it.
    /// \return The record's view, or nullptr at end of heap.
    Result<const View*> NextView();

    /// The whole record NextView() last returned: `head` followed by the
    /// rest of its overflow chain, read only now. For an overflow record
    /// this unpins the head's page and clears `head`.
    Result<std::vector<uint8_t>> ReadRecord();

    /// \return The next record (a copy), or std::nullopt at end of heap.
    Result<std::optional<std::pair<RecordId, std::vector<uint8_t>>>> Next();

   private:
    friend class TableHeap;
    Iterator(TableHeap* heap, PageId page, bool single_page = false)
        : heap_(heap), page_(page), single_page_(single_page) {}
    TableHeap* heap_;
    PageId page_;
    uint16_t slot_ = 0;
    bool single_page_;  ///< Stop at the end of `page` (morsel scans).
    PageGuard chain_page_;     ///< Pinned while its slots are scanned.
    PageGuard overflow_page_;  ///< First overflow page of the current record.
    View view_;
    uint64_t record_size_ = 0;      ///< The current record's full length.
    PageId rest_ = kInvalidPageId;  ///< Its overflow pages after the first.
  };

  Iterator Scan() { return Iterator(this, first_page_); }

  /// Scan bounded to one chain page (overflow chains of its records are
  /// still followed) — the unit a parallel morsel worker processes.
  Iterator ScanPage(PageId page) {
    return Iterator(this, page, /*single_page=*/true);
  }

  /// The heap's chain pages in scan order — the morsel source for parallel
  /// scans. Overflow pages are not listed (records reassemble them on read).
  Result<std::vector<PageId>> ListPages();

 private:
  /// Appends the overflow chain starting at `pid` to `out` and checks that
  /// the record ends up exactly `total_len` bytes long.
  Result<std::vector<uint8_t>> ReadOverflow(uint64_t total_len, PageId pid,
                                            std::vector<uint8_t> out);
  Result<PageId> WriteOverflow(Slice payload);
  Status FreeOverflow(PageId first);

  StorageEngine* engine_;
  PageId first_page_;
  PageId last_page_hint_;  // cached append target; validated on use
};

}  // namespace jaguar

#endif  // JAGUAR_STORAGE_TABLE_HEAP_H_
