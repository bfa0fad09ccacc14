#ifndef JAGUAR_COMMON_RING_BUFFER_H_
#define JAGUAR_COMMON_RING_BUFFER_H_

/// \file ring_buffer.h
/// A lock-free single-producer/single-consumer byte ring over a shared-memory
/// region, carrying CRC-framed variable-length records. This is the fast-path
/// transport for the isolated-UDF boundary crossing: the producer serializes
/// a frame *directly into* the ring (zero copies), the consumer reads it *in
/// place* and releases it after decoding, and an uncontended crossing costs
/// zero syscalls — the waiter spins briefly and parks on a futex (or a
/// process-shared semaphore where futexes are unavailable) only when the peer
/// is genuinely slow.
///
/// Layout: a cache-line-separated `Control` block (cursors and the parking
/// words) followed by a power-of-two data area. Cursors are monotonic 64-bit
/// byte positions; `pos & (capacity-1)` is the buffer index.
///
/// Frame format, 8-byte aligned:
///
///   u32 len | u32 type | u32 crc | u32 seq | payload[len] | pad to 8
///
/// where seq = SeqTag(frame start position) and crc = CRC32C(len || type ||
/// seq || payload[0..min(len, kCrcWindow))). A frame never straddles the end
/// of the buffer: when the remaining room cannot hold the frame the producer
/// emits a wrap marker (len = 0xFFFFFFFF, same header otherwise) — or
/// nothing at all if the room cannot even hold a header — and both sides
/// skip to the start. A torn or bit-flipped frame fails the CRC (or the
/// length sanity check) and surfaces as Corruption instead of being decoded
/// as garbage; coverage is bounded at kCrcWindow payload bytes so integrity
/// checking stays O(1) per frame (see the constant's comment).
///
/// Header signalling: the seq word is the frame's publication flag. The
/// producer writes len/type/crc and the payload, then stores seq with
/// release order; the consumer waits on the seq word *at its own read
/// position* with acquire loads until it holds the tag that position
/// expects, so the frame's cache line is the only one a crossing moves to
/// the consumer. Tags are a lap-unique function of the position and a
/// random per-ring salt, so a header from an earlier lap never matches and
/// row bytes placed to match must guess the salt. The producer keeps its tail
/// privately and a cached copy of the consumer's `head`, re-reading the
/// shared `head` only when the cached copy says the ring is full. It still
/// stores the shared `tail` after each publish; the consumer reads it only
/// to tell a late header from a bad one:
///  - a seq word that does not match below a published tail is corrupt
///    (Corruption), checked before each park;
///  - a seq word that matches can still be stale bytes left from an earlier
///    lap that hold the tag by chance (about 2^-32 per frame on random
///    payload bytes). Their header then fails validation, so on any
///    validation failure the consumer waits for the tail to pass the header
///    (at once if it has) and validates it again; only a header that fails
///    after the tail passed it is reported as Corruption.
///    Header words are atomic so such an early read is not a data race on
///    them; the payload bytes the CRC read are discarded with the header, as
///    in a seqlock's optimistic read.
///
/// Memory ordering (the lost-wakeup argument): publishing and parking form a
/// Dekker-style handshake through two seq_cst fences —
///   producer: seq.store(release); tail.store; fence; consumer_parked.load
///   consumer: consumer_parked.store; fence; seq.load(acquire); futex_wait
/// (The consumer's wait for the tail after a stale match is the same
/// handshake with tail in place of seq.)
/// If the consumer's seq load misses the producer's store, the fence order
/// puts the consumer's fence first, so the producer's parked load observes
/// the flag and it bumps data_seq and wakes. If the wake races the consumer
/// into futex_wait, the kernel revalidates data_seq — read before the seq
/// check, bumped before the wake — and returns EAGAIN. A consumer that reads
/// the bumped data_seq synchronizes with the bump and so sees the header.
/// The producer pays exactly one full fence per publish, only to read the
/// parked flag. The symmetric protocol (head / space_seq / producer_parked)
/// covers a producer waiting for ring space, and costs the consumer one
/// fence per release. Every park is additionally bounded by a 100 ms slice,
/// so the ring degrades to polling rather than hanging even if a peer dies
/// between publish and wake.

#include <semaphore.h>
#include <time.h>

#if defined(__linux__) && !defined(JAGUAR_RING_FORCE_SEM_PARK)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#define JAGUAR_RING_FUTEX_PARK 1
#endif

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <deque>
#include <new>
#include <random>
#include <thread>
#include <utility>

#include "common/crc32.h"
#include "common/deadline.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace jaguar {

/// Optional observability hooks; any pointer may be null. `Counter::Add` is
/// inline, so this header adds no link dependency on the obs library.
struct RingStats {
  obs::Counter* bytes = nullptr;   ///< committed bytes incl. framing + pad
  obs::Counter* frames = nullptr;  ///< frames committed
  obs::Counter* wraps = nullptr;   ///< wrap markers / end-of-buffer skips
  obs::Counter* spins = nullptr;   ///< spin iterations while waiting
  obs::Counter* parks = nullptr;   ///< futex/sem waits (the slow-path syscalls)
  obs::Counter* wakes = nullptr;   ///< wakeups issued to a parked peer
};

class SpscRingBuffer {
 public:
  static constexpr uint64_t kHeaderBytes = 16;
  static constexpr uint64_t kSeqOffset = 12;  ///< the seq word in a header
  static constexpr uint32_t kWrapMarker = 0xFFFFFFFFu;
  static constexpr uint64_t kAlign = 8;
  static constexpr uint64_t kMinCapacity = 4096;
  /// Payload bytes covered by the frame CRC (beyond the full header). A
  /// bounded window keeps frame-integrity checking O(1) per frame: a
  /// per-byte checksum over megabyte payloads would cost more than the two
  /// memcpys the zero-copy design eliminates, and the producer/consumer
  /// share the same trust domain as the message channel (which checksums
  /// nothing). The window still catches what framing CRCs exist to catch —
  /// torn headers, misaligned reads after a wraparound bug, stray scribbles
  /// over a frame's start — because any such fault corrupts the header or
  /// the leading payload bytes.
  static constexpr uint64_t kCrcWindow = 1024;

  /// One variable-length record, viewed in place. The payload slice points
  /// into the shared mapping and stays valid until `Release(end_pos)`.
  struct Frame {
    uint32_t type = 0;
    Slice payload;
    uint64_t end_pos = 0;  ///< release token (the frame's end cursor)
  };

  /// Bounds one blocking wait. `budget_ns` guards against a dead peer;
  /// `deadline` is the query watchdog hook, re-checked every parked slice
  /// (~100 ms) exactly like the message channel's sem_timedwait loop.
  struct WaitOptions {
    int64_t budget_ns = 30ll * 1000000000;
    const QueryDeadline* deadline = nullptr;
    int spin_limit = 2048;
  };

  /// The shared-memory control block. Producer-written, consumer-written and
  /// parking words sit on separate cache lines so the SPSC hot path never
  /// false-shares. The semaphores exist in every build (layout stability);
  /// they are only posted/waited when futex parking is unavailable.
  struct Control {
    alignas(64) std::atomic<uint64_t> tail;  ///< producer: bytes published
    alignas(64) std::atomic<uint64_t> head;  ///< consumer: bytes released
    alignas(64) std::atomic<uint32_t> data_seq;
    std::atomic<uint32_t> consumer_parked;
    alignas(64) std::atomic<uint32_t> space_seq;
    std::atomic<uint32_t> producer_parked;
    alignas(64) sem_t data_sem;
    sem_t space_sem;
  };

  SpscRingBuffer() = default;

  static constexpr uint64_t Pad(uint64_t n) {
    return (n + (kAlign - 1)) & ~(kAlign - 1);
  }
  static bool IsPow2(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
  static uint64_t RoundUpPow2(uint64_t v) {
    uint64_t p = kMinCapacity;
    while (p < v) p <<= 1;
    return p;
  }

  /// Bytes of shared memory one ring needs for `capacity` data bytes.
  static size_t LayoutBytes(uint64_t capacity) {
    return sizeof(Control) + static_cast<size_t>(capacity);
  }

  /// Initializes the control block in `mem` (LayoutBytes(capacity) bytes,
  /// typically inside a MAP_SHARED mapping created before fork) and attaches
  /// this instance to it. `max_payload` is the largest payload Write/Prepare
  /// accepts; the padded frame must fit in half the capacity so two maximal
  /// frames (a pipelined request plus its successor) never deadlock the ring.
  Status Init(void* mem, uint64_t capacity, uint64_t max_payload,
              RingStats stats = {}) {
    if (!IsPow2(capacity) || capacity < kMinCapacity) {
      return InvalidArgument("ring capacity must be a power of two >= 4096");
    }
    if (Pad(kHeaderBytes + max_payload) > capacity / 2) {
      return InvalidArgument(
          "ring max payload must fit in half the ring capacity");
    }
    ctl_ = new (mem) Control();
    ctl_->tail.store(0, std::memory_order_relaxed);
    ctl_->head.store(0, std::memory_order_relaxed);
    ctl_->data_seq.store(0, std::memory_order_relaxed);
    ctl_->consumer_parked.store(0, std::memory_order_relaxed);
    ctl_->space_seq.store(0, std::memory_order_relaxed);
    ctl_->producer_parked.store(0, std::memory_order_relaxed);
    if (::sem_init(&ctl_->data_sem, /*pshared=*/1, 0) != 0 ||
        ::sem_init(&ctl_->space_sem, /*pshared=*/1, 0) != 0) {
      return IoError("sem_init for ring buffer failed");
    }
    data_ = static_cast<uint8_t*>(mem) + sizeof(Control);
    salt_ = std::random_device{}();
    cap_ = capacity;
    mask_ = capacity - 1;
    max_payload_ = max_payload;
    stats_ = stats;
    return Status::OK();
  }

  /// Destroys the process-shared semaphores (creator side only, once the
  /// peer is gone — mirrors ShmChannel teardown).
  void Destroy() {
    if (ctl_ != nullptr) {
      ::sem_destroy(&ctl_->data_sem);
      ::sem_destroy(&ctl_->space_sem);
      ctl_ = nullptr;
    }
  }

  uint64_t capacity() const { return cap_; }
  uint64_t max_payload() const { return max_payload_; }

  // ---------------------------------------------------------------------
  // Producer side
  // ---------------------------------------------------------------------

  /// Reserves a contiguous region for a frame of up to `max_len` payload
  /// bytes and returns the payload pointer — the caller serializes directly
  /// into shared memory and then calls `Commit` with the actual length.
  /// Blocks (spin, then park) while the ring lacks space.
  Result<uint8_t*> Prepare(size_t max_len, const WaitOptions& w) {
    if (max_len > max_payload_) {
      return InvalidArgument(StringPrintf(
          "ring frame of %zu bytes exceeds max payload %llu", max_len,
          static_cast<unsigned long long>(max_payload_)));
    }
    const uint64_t padded = Pad(kHeaderBytes + max_len);
    const uint64_t pos = tail_;
    const uint64_t room = cap_ - (pos & mask_);
    uint64_t skip = 0;
    if (room < padded) skip = room;  // wrap: marker (or implicit skip) + start
    const uint64_t total = skip + padded;
    if (cap_ - (pos - head_cache_) < total) {
      JAGUAR_RETURN_IF_ERROR(WaitFor(
          [this, pos, total] {
            head_cache_ = ctl_->head.load(std::memory_order_acquire);
            return cap_ - (pos - head_cache_) >= total;
          },
          [] { return Status::OK(); }, &ctl_->space_seq,
          &ctl_->producer_parked, &ctl_->space_sem, w));
    }
    prep_base_ = pos + skip;
    prep_max_ = max_len;
    prep_live_ = true;
    return data_ + (prep_base_ & mask_) + kHeaderBytes;
  }

  /// Publishes the prepared frame with its actual payload length: the wrap
  /// marker (if any), then the frame, each by a release store of its seq
  /// word. A parked consumer is woken.
  Status Commit(uint32_t type, size_t actual_len) {
    if (!prep_live_) return Internal("ring Commit without a Prepare");
    if (actual_len > prep_max_) {
      return Internal("ring Commit exceeds the prepared reservation");
    }
    prep_live_ = false;
    const uint64_t skip = prep_base_ - tail_;
    if (skip >= kHeaderBytes) {
      WriteHeader(tail_, kWrapMarker, 0, 0);
    }
    const uint64_t padded = Pad(kHeaderBytes + actual_len);
    WriteHeader(prep_base_, static_cast<uint32_t>(actual_len), type, padded);
    tail_ = prep_base_ + padded;
    ctl_->tail.store(tail_, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (ctl_->consumer_parked.load(std::memory_order_relaxed) != 0) {
      ctl_->data_seq.fetch_add(1, std::memory_order_release);
      Wake(&ctl_->data_seq, &ctl_->data_sem);
    }
    if (skip != 0) Bump(stats_.wraps);
    Bump(stats_.frames);
    Bump(stats_.bytes, skip + padded);
    return Status::OK();
  }

  /// Drops an unpublished reservation (the tail never moved, so the next
  /// Prepare recomputes from the same position).
  void Abort() { prep_live_ = false; }

  /// Copying convenience: Prepare + memcpy + Commit.
  Status Write(uint32_t type, Slice payload, const WaitOptions& w) {
    JAGUAR_ASSIGN_OR_RETURN(uint8_t* buf, Prepare(payload.size(), w));
    if (!payload.empty()) std::memcpy(buf, payload.data(), payload.size());
    return Commit(type, payload.size());
  }

  // ---------------------------------------------------------------------
  // Consumer side
  // ---------------------------------------------------------------------

  /// Blocks for the next frame and returns it as an in-place view. The
  /// consumer may read ahead (several unreleased frames outstanding); space
  /// is recycled only as the oldest unreleased frame is released, so views
  /// stay valid in FIFO order.
  Result<Frame> Read(const WaitOptions& w) {
    uint64_t published = ~0ull;  // a position the tail is known to have passed
    while (true) {
      const uint64_t pos = read_pos_;
      const uint64_t idx = pos & mask_;
      const uint64_t room = cap_ - idx;
      if (room < kHeaderBytes) {  // implicit end-of-buffer skip
        read_pos_ = pos + room;
        continue;
      }
      const uint8_t* hdr = data_ + idx;
      const uint32_t tag = SeqTag(pos);
      if (LoadSeq(hdr) != tag) {
        JAGUAR_RETURN_IF_ERROR(WaitFor(
            [hdr, tag] { return LoadSeq(hdr) == tag; },
            [this, hdr, tag, pos] {
              // A published tail past this header means its seq word was
              // written; if it still does not match, it was corrupted.
              const uint64_t tail = ctl_->tail.load(std::memory_order_acquire);
              if (tail > pos && LoadSeq(hdr) != tag) {
                return Corruption("ring frame seq mismatch (corrupt header)");
              }
              return Status::OK();
            },
            &ctl_->data_seq, &ctl_->consumer_parked, &ctl_->data_sem, w));
      }
      const uint32_t len = LoadWord(hdr);
      const uint32_t type = LoadWord(hdr + 4);
      Status bad = CheckHeader(hdr, len, type, tag, room);
      if (!bad.ok()) {
        if (published == pos) return bad;
        // The seq word may be stale bytes that hold the tag by chance; only
        // a header the tail has passed is corrupt. Wait for the tail to pass
        // this one (at once if it already has), then check it again.
        JAGUAR_RETURN_IF_ERROR(WaitFor(
            [this, pos] {
              return ctl_->tail.load(std::memory_order_acquire) > pos;
            },
            [] { return Status::OK(); }, &ctl_->data_seq,
            &ctl_->consumer_parked, &ctl_->data_sem, w));
        published = pos;
        continue;
      }
      if (len == kWrapMarker) {
        read_pos_ = pos + room;
        continue;
      }
      const uint64_t padded = Pad(kHeaderBytes + len);
      Frame f;
      f.type = type;
      f.payload = Slice(hdr + kHeaderBytes, len);
      f.end_pos = pos + padded;
      read_pos_ = f.end_pos;
      pending_.emplace_back(f.end_pos, false);
      return f;
    }
  }

  /// Releases the frame whose `end_pos` token this is. Frames may be
  /// released out of read order; the shared head only advances over the
  /// released prefix, so an earlier still-held view is never recycled.
  void Release(uint64_t end_pos) {
    for (auto& e : pending_) {
      if (e.first == end_pos) {
        e.second = true;
        break;
      }
    }
    uint64_t new_head = 0;
    bool advanced = false;
    while (!pending_.empty() && pending_.front().second) {
      new_head = pending_.front().first;
      pending_.pop_front();
      advanced = true;
    }
    if (!advanced) return;
    ctl_->head.store(new_head, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (ctl_->producer_parked.load(std::memory_order_relaxed) != 0) {
      ctl_->space_seq.fetch_add(1, std::memory_order_release);
      Wake(&ctl_->space_seq, &ctl_->space_sem);
    }
  }

  /// The seq word a header at position `pos` carries once published. Two
  /// positions that share a buffer index differ by a multiple of the
  /// capacity (>= 4096), so their tags differ for the first 64 GB of
  /// traffic. The ring's random salt keeps small integers in stale payload
  /// bytes, and bytes placed there on purpose, from matching; the low bit
  /// keeps zeroed memory from matching.
  uint32_t SeqTag(uint64_t pos) const {
    return (static_cast<uint32_t>(pos >> 4) ^ salt_) | 1u;
  }

 private:

  static void StoreU32(uint8_t* p, uint32_t v) {
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
  }
  /// Header words are accessed atomically (they are 4-aligned: headers
  /// start 8-aligned). The seq word orders the others: release on store,
  /// acquire on load. The rest are relaxed; they are atomic only because a
  /// consumer that matched stale seq bytes may read them while the producer
  /// writes them (see the file comment).
  static uint32_t LoadWord(const uint8_t* p) {
    return __atomic_load_n(reinterpret_cast<const uint32_t*>(p),
                           __ATOMIC_RELAXED);
  }
  static void StoreWord(uint8_t* p, uint32_t v) {
    __atomic_store_n(reinterpret_cast<uint32_t*>(p), v, __ATOMIC_RELAXED);
  }
  static uint32_t LoadSeq(const uint8_t* hdr) {
    return __atomic_load_n(
        reinterpret_cast<const uint32_t*>(hdr + kSeqOffset), __ATOMIC_ACQUIRE);
  }
  static void StoreSeq(uint8_t* hdr, uint32_t tag) {
    __atomic_store_n(reinterpret_cast<uint32_t*>(hdr + kSeqOffset), tag,
                     __ATOMIC_RELEASE);
  }

  static uint32_t FrameCrc(uint32_t len, uint32_t type, uint32_t tag,
                           const uint8_t* payload, size_t payload_len) {
    uint8_t hdr[12];
    StoreU32(hdr, len);
    StoreU32(hdr + 4, type);
    StoreU32(hdr + 8, tag);
    const size_t covered = payload_len < kCrcWindow ? payload_len : kCrcWindow;
    return Crc32c(payload, covered, Crc32c(hdr, sizeof(hdr)));
  }

  /// Validates the header at `hdr`, `room` bytes before the end of the
  /// buffer, whose seq word holds `tag`: a wrap marker's CRC, or a frame's
  /// length and CRC.
  Status CheckHeader(const uint8_t* hdr, uint32_t len, uint32_t type,
                     uint32_t tag, uint64_t room) const {
    const uint32_t crc = LoadWord(hdr + 8);
    if (len == kWrapMarker) {
      if (crc != FrameCrc(len, type, tag, nullptr, 0)) {
        return Corruption("ring wrap marker CRC mismatch");
      }
      return Status::OK();
    }
    if (len > max_payload_) {
      return Corruption(StringPrintf(
          "ring frame length %u exceeds max payload %llu", len,
          static_cast<unsigned long long>(max_payload_)));
    }
    if (Pad(kHeaderBytes + len) > room) {
      return Corruption("ring frame extends past the end of the buffer");
    }
    if (crc != FrameCrc(len, type, tag, hdr + kHeaderBytes, len)) {
      return Corruption("ring frame CRC mismatch (torn or corrupt frame)");
    }
    return Status::OK();
  }

  /// Fills in and publishes the header at `pos`; `padded` is the frame's
  /// size (0 for a wrap marker, whose CRC covers the header alone).
  void WriteHeader(uint64_t pos, uint32_t len, uint32_t type,
                   uint64_t padded) {
    uint8_t* hdr = data_ + (pos & mask_);
    const uint32_t tag = SeqTag(pos);
    StoreWord(hdr, len);
    StoreWord(hdr + 4, type);
    StoreWord(hdr + 8, FrameCrc(len, type, tag, hdr + kHeaderBytes,
                                padded == 0 ? 0 : len));
    StoreSeq(hdr, tag);
  }

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  }

  void Bump(obs::Counter* c, uint64_t n = 1) {
    if (c != nullptr) c->Add(n);
  }

  /// One bounded park (~100 ms slice) on `seq` staying at `observed`.
  void ParkSlice(std::atomic<uint32_t>* seq, uint32_t observed, sem_t* sem) {
#ifdef JAGUAR_RING_FUTEX_PARK
    (void)sem;
    struct timespec slice = {0, 100 * 1000 * 1000};
    // FUTEX_WAIT (not PRIVATE): the word lives in a MAP_SHARED mapping used
    // across the parent/child process boundary.
    ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(seq), FUTEX_WAIT,
              observed, &slice, nullptr, 0);
#else
    (void)seq;
    (void)observed;
    struct timespec abs;
    ::clock_gettime(CLOCK_REALTIME, &abs);
    abs.tv_nsec += 100 * 1000 * 1000;
    if (abs.tv_nsec >= 1000000000) {
      abs.tv_nsec -= 1000000000;
      ++abs.tv_sec;
    }
    while (::sem_timedwait(sem, &abs) != 0 && errno == EINTR) {
    }
#endif
  }

  void Wake(std::atomic<uint32_t>* seq, sem_t* sem) {
#ifdef JAGUAR_RING_FUTEX_PARK
    (void)sem;
    ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(seq), FUTEX_WAKE, 1,
              nullptr, nullptr, 0);
#else
    (void)seq;
    ::sem_post(sem);
#endif
    Bump(stats_.wakes);
  }

  /// Spinning only ever pays when the peer can make progress on another
  /// CPU; on a single-core host every spin iteration *delays* the peer, so
  /// the waiter parks immediately instead.
  static int EffectiveSpinLimit(int requested) {
    static const bool multicore = std::thread::hardware_concurrency() > 1;
    return multicore ? requested : 0;
  }

  /// Spin-then-park until `ready()` holds, a deadline/budget expires, or a
  /// wait error occurs. `ready` must acquire-load the watched word (part of
  /// the handshake proof above). `stuck()` runs before each park and may
  /// turn a wait that can never end into an error.
  template <typename Ready, typename Stuck>
  Status WaitFor(Ready ready, Stuck stuck, std::atomic<uint32_t>* seq,
                 std::atomic<uint32_t>* parked, sem_t* sem,
                 const WaitOptions& w) {
    if (ready()) return Status::OK();
    JAGUAR_RETURN_IF_ERROR(CheckDeadline(w.deadline));
    const int spin_limit = EffectiveSpinLimit(w.spin_limit);
    for (int i = 0; i < spin_limit; ++i) {
      CpuRelax();
      if (ready()) {
        Bump(stats_.spins, static_cast<uint64_t>(i) + 1);
        return Status::OK();
      }
    }
    Bump(stats_.spins, static_cast<uint64_t>(spin_limit));
    struct timespec start;
    ::clock_gettime(CLOCK_MONOTONIC, &start);
    while (true) {
      parked->store(1, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      const uint32_t observed = seq->load(std::memory_order_acquire);
      if (ready()) {
        parked->store(0, std::memory_order_relaxed);
        return Status::OK();
      }
      Status s = stuck();
      if (!s.ok()) {
        parked->store(0, std::memory_order_relaxed);
        return s;
      }
      Bump(stats_.parks);
      ParkSlice(seq, observed, sem);
      parked->store(0, std::memory_order_relaxed);
      if (ready()) return Status::OK();
      // Between slices: the query watchdog first, then the dead-peer budget
      // — expiry mid-wait is detected at most one slice late, exactly the
      // message channel's contract.
      JAGUAR_RETURN_IF_ERROR(CheckDeadline(w.deadline));
      struct timespec now;
      ::clock_gettime(CLOCK_MONOTONIC, &now);
      const int64_t elapsed_ns = (now.tv_sec - start.tv_sec) * 1000000000 +
                                 (now.tv_nsec - start.tv_nsec);
      if (elapsed_ns >= w.budget_ns) {
        return IoError("ring buffer wait timed out (peer dead?)");
      }
    }
  }

  Control* ctl_ = nullptr;
  uint8_t* data_ = nullptr;
  uint64_t cap_ = 0;
  uint64_t mask_ = 0;
  uint64_t max_payload_ = 0;
  uint32_t salt_ = 0;
  RingStats stats_;

  // Producer-local state (each forked process has its own copy; only the
  // producing side of a direction ever touches these): the private tail,
  // the last head read from shared memory, and the open reservation.
  uint64_t tail_ = 0;
  uint64_t head_cache_ = 0;
  uint64_t prep_base_ = 0;
  size_t prep_max_ = 0;
  bool prep_live_ = false;

  // Consumer-local read cursor and outstanding (end_pos, released) frames,
  // oldest first.
  uint64_t read_pos_ = 0;
  std::deque<std::pair<uint64_t, bool>> pending_;
};

}  // namespace jaguar

#endif  // JAGUAR_COMMON_RING_BUFFER_H_
