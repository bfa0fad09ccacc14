#include "storage/table_heap.h"

#include <cstring>

#include "common/bytes.h"
#include "common/string_util.h"
#include "storage/page_edit.h"
#include "storage/slotted_page.h"

namespace jaguar {

namespace {
constexpr uint8_t kInlineTag = 0x00;
constexpr uint8_t kOverflowTag = 0x01;
constexpr uint32_t kOverflowHeader = 8;  // next (u32) + chunk_len (u32)
// Chunks stop short of the page's LSN footer (page.h).
constexpr uint32_t kOverflowCapacity = kPageLsnOffset - kOverflowHeader;
// Slot payload for an overflow record: tag + total_len + first_page.
constexpr uint32_t kOverflowStubSize = 1 + 8 + 4;

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// A slot payload decoded: an inline record, or an overflow record's stub.
struct SlotRecord {
  Slice inline_bytes;  ///< Inline records only.
  bool overflow = false;
  uint64_t total_len = 0;          ///< Overflow records only.
  PageId first = kInvalidPageId;  ///< Overflow records only.
};

Result<SlotRecord> ParseSlot(Slice payload) {
  if (payload.empty()) return Corruption("empty record payload");
  SlotRecord rec;
  if (payload[0] == kInlineTag) {
    rec.inline_bytes = payload.SubSlice(1, payload.size() - 1);
    return rec;
  }
  if (payload[0] != kOverflowTag || payload.size() != kOverflowStubSize) {
    return Corruption("bad record tag");
  }
  rec.overflow = true;
  rec.total_len = LoadU64(payload.data() + 1);
  rec.first = LoadU32(payload.data() + 9);
  return rec;
}
}  // namespace

TableHeap::TableHeap(StorageEngine* engine, PageId first_page)
    : engine_(engine), first_page_(first_page), last_page_hint_(first_page) {}

Result<PageId> TableHeap::Create(StorageEngine* engine) {
  JAGUAR_ASSIGN_OR_RETURN(PageId id, engine->AllocatePage());
  JAGUAR_ASSIGN_OR_RETURN(PageGuard page, engine->buffer_pool()->FetchPage(id));
  WalPageEdit edit(engine->wal(), &page);
  SlottedPage sp(page.data());
  sp.Init();
  JAGUAR_RETURN_IF_ERROR(edit.Commit());
  return id;
}

Result<RecordId> TableHeap::Insert(Slice record) {
  // Decide inline vs overflow. Inline records need 1 tag byte of headroom.
  const bool overflow = record.size() + 1 > SlottedPage::MaxRecordSize();

  BufferWriter stub;
  if (overflow) {
    JAGUAR_ASSIGN_OR_RETURN(PageId first, WriteOverflow(record));
    stub.PutU8(kOverflowTag);
    stub.PutU64(record.size());
    stub.PutU32(first);
  } else {
    stub.PutU8(kInlineTag);
    stub.PutBytes(record);
  }
  Slice payload = stub.AsSlice();

  // Append into the last page of the chain, extending the chain when full.
  // The record carrying the new tuple is the *last* one the statement logs
  // (chain links and page formats precede it), so a replay that stops early
  // yields a well-formed heap without the tuple — never a torn tuple.
  PageId pid = last_page_hint_;
  while (true) {
    JAGUAR_ASSIGN_OR_RETURN(PageGuard page,
                            engine_->buffer_pool()->FetchPage(pid));
    WalPageEdit edit(engine_->wal(), &page);
    SlottedPage sp(page.data());
    Result<uint16_t> slot = sp.Insert(payload);
    if (slot.ok()) {
      JAGUAR_RETURN_IF_ERROR(edit.Commit());
      last_page_hint_ = pid;
      return RecordId{pid, slot.value()};
    }
    if (slot.status().code() != StatusCode::kResourceExhausted) {
      // The size check rejects before touching the page; nothing to log.
      return slot.status();
    }
    PageId next = sp.next_page_id();
    if (next == kInvalidPageId) {
      JAGUAR_ASSIGN_OR_RETURN(PageId fresh, engine_->AllocatePage());
      {
        JAGUAR_ASSIGN_OR_RETURN(PageGuard fresh_page,
                                engine_->buffer_pool()->FetchPage(fresh));
        WalPageEdit fresh_edit(engine_->wal(), &fresh_page);
        SlottedPage fresh_sp(fresh_page.data());
        fresh_sp.Init();
        JAGUAR_RETURN_IF_ERROR(fresh_edit.Commit());
      }
      sp.set_next_page_id(fresh);
      next = fresh;
    }
    // Commit even though the insert failed: the attempt may have compacted
    // the page, and an unlogged mutation would desync replay's diff base.
    JAGUAR_RETURN_IF_ERROR(edit.Commit());
    pid = next;
  }
}

Result<std::vector<uint8_t>> TableHeap::Get(RecordId rid) {
  JAGUAR_ASSIGN_OR_RETURN(PageGuard page,
                          engine_->buffer_pool()->FetchPage(rid.page_id));
  SlottedPage sp(page.data());
  JAGUAR_ASSIGN_OR_RETURN(Slice payload, sp.Get(rid.slot));
  JAGUAR_ASSIGN_OR_RETURN(SlotRecord rec, ParseSlot(payload));
  if (!rec.overflow) return rec.inline_bytes.ToVector();
  page.Release();  // don't hold the pin while walking the overflow chain
  return ReadOverflow(rec.total_len, rec.first, {});
}

Result<PageId> TableHeap::WriteOverflow(Slice payload) {
  PageId first = kInvalidPageId;
  PageId prev = kInvalidPageId;
  size_t off = 0;
  while (off < payload.size()) {
    size_t chunk = std::min<size_t>(kOverflowCapacity, payload.size() - off);
    JAGUAR_ASSIGN_OR_RETURN(PageId pid, engine_->AllocatePage());
    {
      JAGUAR_ASSIGN_OR_RETURN(PageGuard page,
                              engine_->buffer_pool()->FetchPage(pid));
      WalPageEdit edit(engine_->wal(), &page);
      StoreU32(page.data(), kInvalidPageId);
      StoreU32(page.data() + 4, static_cast<uint32_t>(chunk));
      std::memcpy(page.data() + kOverflowHeader, payload.data() + off, chunk);
      JAGUAR_RETURN_IF_ERROR(edit.Commit());
    }
    if (prev != kInvalidPageId) {
      JAGUAR_ASSIGN_OR_RETURN(PageGuard prev_page,
                              engine_->buffer_pool()->FetchPage(prev));
      WalPageEdit edit(engine_->wal(), &prev_page);
      StoreU32(prev_page.data(), pid);
      JAGUAR_RETURN_IF_ERROR(edit.Commit());
    } else {
      first = pid;
    }
    prev = pid;
    off += chunk;
  }
  if (first == kInvalidPageId) {
    // Zero-length payloads still get one (empty) overflow page so the stub
    // has a valid chain to point at.
    JAGUAR_ASSIGN_OR_RETURN(first, engine_->AllocatePage());
    JAGUAR_ASSIGN_OR_RETURN(PageGuard page,
                            engine_->buffer_pool()->FetchPage(first));
    WalPageEdit edit(engine_->wal(), &page);
    StoreU32(page.data(), kInvalidPageId);
    StoreU32(page.data() + 4, 0);
    JAGUAR_RETURN_IF_ERROR(edit.Commit());
  }
  return first;
}

Result<std::vector<uint8_t>> TableHeap::ReadOverflow(
    uint64_t total_len, PageId pid, std::vector<uint8_t> out) {
  out.reserve(total_len);
  while (pid != kInvalidPageId && out.size() <= total_len) {
    JAGUAR_ASSIGN_OR_RETURN(PageGuard page,
                            engine_->buffer_pool()->FetchPage(pid));
    uint32_t chunk = LoadU32(page.data() + 4);
    if (chunk > kOverflowCapacity) return Corruption("bad overflow chunk size");
    out.insert(out.end(), page.data() + kOverflowHeader,
               page.data() + kOverflowHeader + chunk);
    pid = LoadU32(page.data());
  }
  if (out.size() > total_len) return Corruption("overflow chain too long");
  if (out.size() != total_len) return Corruption("overflow chain truncated");
  return out;
}

Status TableHeap::FreeOverflow(PageId first) {
  PageId pid = first;
  while (pid != kInvalidPageId) {
    PageId next;
    {
      JAGUAR_ASSIGN_OR_RETURN(PageGuard page,
                              engine_->buffer_pool()->FetchPage(pid));
      next = LoadU32(page.data());
    }
    JAGUAR_RETURN_IF_ERROR(engine_->FreePage(pid));
    pid = next;
  }
  return Status::OK();
}

Status TableHeap::Delete(RecordId rid) {
  PageId overflow_first = kInvalidPageId;
  {
    JAGUAR_ASSIGN_OR_RETURN(PageGuard page,
                            engine_->buffer_pool()->FetchPage(rid.page_id));
    WalPageEdit edit(engine_->wal(), &page);
    SlottedPage sp(page.data());
    JAGUAR_ASSIGN_OR_RETURN(Slice payload, sp.Get(rid.slot));
    if (!payload.empty() && payload[0] == kOverflowTag &&
        payload.size() == kOverflowStubSize) {
      overflow_first = LoadU32(payload.data() + 9);
    }
    JAGUAR_RETURN_IF_ERROR(sp.Delete(rid.slot));
    JAGUAR_RETURN_IF_ERROR(edit.Commit());
  }
  if (overflow_first != kInvalidPageId) {
    JAGUAR_RETURN_IF_ERROR(FreeOverflow(overflow_first));
  }
  return Status::OK();
}

Status TableHeap::DropAll() {
  PageId pid = first_page_;
  while (pid != kInvalidPageId) {
    PageId next;
    std::vector<PageId> overflows;
    {
      JAGUAR_ASSIGN_OR_RETURN(PageGuard page,
                              engine_->buffer_pool()->FetchPage(pid));
      SlottedPage sp(page.data());
      next = sp.next_page_id();
      for (uint16_t s = 0; s < sp.num_slots(); ++s) {
        Result<Slice> payload = sp.Get(s);
        if (!payload.ok()) continue;
        if (!payload->empty() && (*payload)[0] == kOverflowTag &&
            payload->size() == kOverflowStubSize) {
          overflows.push_back(LoadU32(payload->data() + 9));
        }
      }
    }
    for (PageId of : overflows) {
      JAGUAR_RETURN_IF_ERROR(FreeOverflow(of));
    }
    JAGUAR_RETURN_IF_ERROR(engine_->FreePage(pid));
    pid = next;
  }
  first_page_ = kInvalidPageId;
  return Status::OK();
}

Result<uint64_t> TableHeap::CountRecords() {
  uint64_t n = 0;
  Iterator it = Scan();
  while (true) {
    JAGUAR_ASSIGN_OR_RETURN(const Iterator::View* rec, it.NextView());
    if (rec == nullptr) break;
    ++n;
  }
  return n;
}

Result<const TableHeap::Iterator::View*> TableHeap::Iterator::NextView() {
  overflow_page_.Release();
  BufferPool* pool = heap_->engine_->buffer_pool();
  while (page_ != kInvalidPageId) {
    if (!chain_page_.valid()) {
      JAGUAR_ASSIGN_OR_RETURN(chain_page_, pool->FetchPage(page_));
    }
    SlottedPage sp(chain_page_.data());
    while (slot_ < sp.num_slots()) {
      const uint16_t s = slot_++;
      Result<Slice> payload = sp.Get(s);
      if (!payload.ok()) continue;  // tombstone
      JAGUAR_ASSIGN_OR_RETURN(SlotRecord rec, ParseSlot(*payload));
      view_.rid = RecordId{page_, s};
      if (!rec.overflow) {
        view_.head = rec.inline_bytes;
        view_.complete = true;
        return &view_;
      }
      // Only the first overflow page is read here; ReadRecord() follows the
      // rest of the chain if the caller wants the whole record.
      JAGUAR_ASSIGN_OR_RETURN(overflow_page_, pool->FetchPage(rec.first));
      const uint32_t chunk = LoadU32(overflow_page_.data() + 4);
      if (chunk > kOverflowCapacity) {
        return Corruption("bad overflow chunk size");
      }
      view_.head = Slice(overflow_page_.data() + kOverflowHeader, chunk);
      record_size_ = rec.total_len;
      rest_ = LoadU32(overflow_page_.data());
      view_.complete = rest_ == kInvalidPageId && chunk == rec.total_len;
      return &view_;
    }
    page_ = single_page_ ? kInvalidPageId : sp.next_page_id();
    slot_ = 0;
    chain_page_.Release();
  }
  return static_cast<const View*>(nullptr);
}

Result<std::vector<uint8_t>> TableHeap::Iterator::ReadRecord() {
  if (view_.complete) return view_.head.ToVector();
  std::vector<uint8_t> out;
  out.reserve(record_size_);
  out.insert(out.end(), view_.head.data(),
             view_.head.data() + view_.head.size());
  // The head is copied: unpin its page before walking the rest, so a scan
  // never holds more than its chain page and one overflow page.
  view_.head = Slice();
  overflow_page_.Release();
  return heap_->ReadOverflow(record_size_, rest_, std::move(out));
}

Result<std::optional<std::pair<RecordId, std::vector<uint8_t>>>>
TableHeap::Iterator::Next() {
  JAGUAR_ASSIGN_OR_RETURN(const View* view, NextView());
  if (view == nullptr) {
    return std::optional<std::pair<RecordId, std::vector<uint8_t>>>();
  }
  JAGUAR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadRecord());
  return std::make_optional(std::make_pair(view->rid, std::move(bytes)));
}

Result<std::vector<PageId>> TableHeap::ListPages() {
  std::vector<PageId> pages;
  PageId pid = first_page_;
  while (pid != kInvalidPageId) {
    pages.push_back(pid);
    JAGUAR_ASSIGN_OR_RETURN(PageGuard page,
                            engine_->buffer_pool()->FetchPage(pid));
    SlottedPage sp(page.data());
    pid = sp.next_page_id();
    if (pages.size() > (1u << 24)) return Corruption("page chain cycle");
  }
  return pages;
}

}  // namespace jaguar
