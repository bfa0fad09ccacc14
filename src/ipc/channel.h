#ifndef JAGUAR_IPC_CHANNEL_H_
#define JAGUAR_IPC_CHANNEL_H_

/// \file channel.h
/// The parent↔child IPC transport abstraction behind the isolated-UDF
/// boundary. Two implementations exist:
///
///   - "ring" (RingChannel): a lock-free SPSC ring buffer per direction in
///     shared memory — zero-copy sends (serialize straight into the ring),
///     in-place receive views, and zero syscalls on the uncontended path.
///     The default.
///   - "message" (ShmChannel): the paper's Section-4.1 mechanism — one
///     message slot per direction, a semaphore post per message, payloads
///     copied in and out. Kept behind `DatabaseOptions::ipc_transport` as
///     the benchable/revertible fallback.
///
/// The base class supplies copying shims for the zero-copy entry points
/// (`Prepare*/Commit*` fall back to a scratch buffer + `Send*`; view
/// receives fall back to copy-then-view), so protocol code above — the
/// remote executor, the UDF runners — has exactly one code path and the
/// transport choice is purely a performance knob.
///
/// Message types multiplex the two conversations sharing a channel: UDF
/// requests flowing down, and results *or callback requests* flowing up (a
/// callback suspends the request until the parent posts the reply). The ring
/// transport additionally pipelines: the parent may commit request k+1 while
/// request k is still executing, so a child awaiting a callback reply can see
/// the *next* request first — it stashes such frames (`StashInChild`) and the
/// receive wrappers drain the stash before touching the transport.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/slice.h"
#include "common/status.h"

namespace jaguar {
namespace ipc {

enum class MsgType : uint32_t {
  kRequest = 1,          ///< parent→child: run a UDF.
  kCallbackRequest = 2,  ///< child→parent: UDF needs the server.
  kCallbackReply = 3,    ///< parent→child: callback result.
  kResult = 4,           ///< child→parent: UDF result.
  kError = 5,            ///< child→parent: UDF failed (payload = status).
  kShutdown = 6,         ///< parent→child: exit the executor loop.
};

/// Which transport a channel (and everything above it) uses.
enum class Transport {
  kRing,     ///< SPSC shared-memory ring buffer (zero-copy fast path).
  kMessage,  ///< single-slot semaphore-per-message channel (the paper's).
};

const char* TransportName(Transport t);
Result<Transport> ParseTransport(const std::string& name);

class Channel {
 public:
  using Msg = std::pair<MsgType, std::vector<uint8_t>>;
  /// A received frame viewed in place (ring) or over an internal scratch
  /// buffer (message). Valid until the matching Release*/next receive.
  using View = std::pair<MsgType, Slice>;

  /// Allocates a channel of the given transport whose per-direction payload
  /// limit is `data_capacity` bytes. Must be created before fork(); both
  /// processes then use the same object (the mapping is shared).
  static Result<std::unique_ptr<Channel>> Create(Transport transport,
                                                 size_t data_capacity);

  virtual ~Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  size_t data_capacity() const { return capacity_; }
  virtual const char* transport_name() const = 0;

  /// True when Prepare*/Commit* and view receives avoid intermediate copies.
  virtual bool zero_copy() const { return false; }

  /// Requests the parent may commit before collecting the first result (1 =
  /// no overlap; the ring's flow control affords a depth of 2, sized so a
  /// pipelined request plus callback replies can never fill the ring).
  virtual size_t send_queue_depth() const { return 1; }

  /// Copying sends. Fail with InvalidArgument if the payload exceeds
  /// `data_capacity`.
  virtual Status SendToChild(MsgType type, Slice payload) = 0;
  virtual Status SendToParent(MsgType type, Slice payload) = 0;

  /// Zero-copy sends: reserve a region of up to `max_len` bytes, serialize
  /// into it, commit with the actual length. Default shims serialize into a
  /// scratch buffer and forward to Send* (message-transport semantics). At
  /// most one reservation per direction may be outstanding.
  virtual Result<uint8_t*> PrepareToChild(size_t max_len);
  virtual Status CommitToChild(MsgType type, size_t actual_len);
  virtual Result<uint8_t*> PrepareToParent(size_t max_len);
  virtual Status CommitToParent(MsgType type, size_t actual_len);

  /// Copying receives. The child-side wrapper drains stashed frames first.
  Result<Msg> ReceiveInChild();
  Result<Msg> ReceiveInParent() { return DoReceiveInParent(); }

  /// Like ReceiveInChild but bypasses the stash: used by a child awaiting a
  /// callback reply, which must *not* re-pop the requests it just deferred.
  Result<Msg> ReceiveFreshInChild() { return DoReceiveInChild(); }
  /// View form of ReceiveFreshInChild (release with ReleaseInChild).
  Result<View> ReceiveFreshViewInChild() { return DoReceiveViewInChild(); }

  /// View receives: the frame stays in transport memory (ring) until the
  /// matching Release. Default shims copy-receive into an internal buffer.
  /// Release is idempotent and a no-op for non-ring-backed views.
  Result<View> ReceiveViewInChild();
  Result<View> ReceiveViewInParent() { return DoReceiveViewInParent(); }
  virtual void ReleaseInChild() {}
  virtual void ReleaseInParent() {}

  /// Child side: defer an out-of-order frame (a pipelined kRequest that
  /// arrived while awaiting a kCallbackReply); receive wrappers return
  /// stashed frames, oldest first, before reading the transport.
  void StashInChild(MsgType type, std::vector<uint8_t> payload);

  /// Child side: a zero-copy handler that shipped its own kResult marks the
  /// response sent so the executor loop does not send a second one.
  void MarkResponseSent() { response_sent_ = true; }
  bool TakeResponseSent() {
    bool v = response_sent_;
    response_sent_ = false;
    return v;
  }

  /// Wait timeout for receives (and ring-space waits), seconds — guards
  /// against a dead peer.
  void set_timeout_seconds(int seconds) { timeout_seconds_ = seconds; }

  /// Attaches (or clears, with null) the query deadline observed by
  /// parent-side waits. The parent wakes every ~100 ms slice to re-check its
  /// monotonic budget; with a deadline installed it also checks the deadline
  /// and abandons the wait with `DeadlineExceeded` — the watchdog tick that
  /// lets the runner SIGKILL a wedged executor child at most ~100 ms after
  /// the deadline passes. Not owned; the caller must keep the deadline alive
  /// across the wait (and clear it afterwards).
  void set_parent_deadline(const QueryDeadline* deadline) {
    parent_deadline_ = deadline;
  }

 protected:
  Channel() = default;

  virtual Result<Msg> DoReceiveInChild() = 0;
  virtual Result<Msg> DoReceiveInParent() = 0;
  /// Default view receives: copy-receive into an internal per-direction
  /// buffer and return a view over it.
  virtual Result<View> DoReceiveViewInChild();
  virtual Result<View> DoReceiveViewInParent();

  size_t capacity_ = 0;
  int timeout_seconds_ = 30;
  const QueryDeadline* parent_deadline_ = nullptr;

 private:
  std::deque<Msg> child_stash_;
  std::vector<uint8_t> child_view_buf_;
  std::vector<uint8_t> parent_view_buf_;
  MsgType child_view_type_ = MsgType::kRequest;
  MsgType parent_view_type_ = MsgType::kRequest;
  std::vector<uint8_t> to_child_scratch_;
  std::vector<uint8_t> to_parent_scratch_;
  bool response_sent_ = false;
};

}  // namespace ipc
}  // namespace jaguar

#endif  // JAGUAR_IPC_CHANNEL_H_
