#ifndef JAGUAR_IPC_REMOTE_EXECUTOR_H_
#define JAGUAR_IPC_REMOTE_EXECUTOR_H_

/// \file remote_executor.h
/// A forked executor process plus the request/callback/result protocol of
/// Design 2. The paper assigns "one remote executor process per UDF in the
/// query ... created once per query (not once per function invocation)"; the
/// UDF layer follows the same policy.
///
/// Protocol (all over one Channel — ring or message transport):
///
///   parent                         child
///   ------ kRequest(payload) --->  handler runs...
///   <----- kCallbackRequest ----   (0..n times; parent answers each)
///   ------ kCallbackReply ----->
///   <----- kResult | kError ----
///
/// Errors cross the boundary as serialized Status (code + message).
///
/// On the ring transport the parent may keep up to `send_queue_depth()` (2)
/// requests committed before collecting the first result — the pipelined
/// double-buffering of Section 2.5 batching without any copy into a private
/// buffer: `PrepareRequest`/`BeginExecutePrepared` serialize the request
/// straight into shared memory, and `FinishExecuteWith` hands the result to
/// the caller as an in-place view before releasing it.

#include <sys/types.h>

#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "ipc/channel.h"

namespace jaguar {
namespace ipc {

/// Serializes a Status for the wire (code byte + message).
std::vector<uint8_t> EncodeStatus(const Status& status);
Status DecodeStatus(Slice payload);

class RemoteExecutor {
 public:
  /// Runs in the child for each kRequest. May issue callbacks by sending
  /// kCallbackRequest on `channel` and awaiting kCallbackReply. Returns the
  /// result payload, or an error to be shipped back as kError. `request` may
  /// be an in-place view into transport memory: a handler that issues
  /// callbacks or sends its own zero-copy response must decode what it needs
  /// and call `channel->ReleaseInChild()` first (decode-then-release). A
  /// handler that ships its own kResult (zero-copy) calls
  /// `channel->MarkResponseSent()` and its return value is ignored.
  using RequestHandler =
      std::function<Result<std::vector<uint8_t>>(Slice request,
                                                 Channel* channel)>;

  /// Answers a child callback in the parent by returning the reply payload
  /// (copied into the channel).
  using CallbackHandler =
      std::function<Result<std::vector<uint8_t>>(Slice payload)>;

  /// Zero-copy form of CallbackHandler: decodes `payload` (an in-place view)
  /// and, on success, has sent exactly one kCallbackReply to the child,
  /// typically serialized straight into the channel with
  /// `PrepareToChild`/`CommitToChild`. On error it has sent nothing; an
  /// IoError (a broken channel) fails the wait, any other error goes to the
  /// child as kError.
  using CallbackResponder =
      std::function<Status(Slice payload, Channel* channel)>;

  /// Consumes a result payload in place (before the frame is released).
  using ResultConsumer = std::function<Status(Slice payload)>;

  /// Forks an executor child running `handler` in a loop. The child inherits
  /// the parent's full image (so native UDF registries resolve identically —
  /// the same effect as the paper's executors being built from the server
  /// binary).
  static Result<std::unique_ptr<RemoteExecutor>> Spawn(
      size_t shm_capacity, RequestHandler handler,
      Transport transport = Transport::kRing);

  ~RemoteExecutor();
  RemoteExecutor(const RemoteExecutor&) = delete;
  RemoteExecutor& operator=(const RemoteExecutor&) = delete;

  /// Parent side: executes one request, servicing callbacks until the result
  /// arrives. Equivalent to BeginExecute + FinishExecute.
  Result<std::vector<uint8_t>> Execute(Slice request,
                                       const CallbackHandler& on_callback);

  /// Parent side, pipelined form: ships the request to the child and returns
  /// immediately, leaving it in flight. The caller overlaps useful work —
  /// serializing the *next* request — with the child's execution, then calls
  /// FinishExecute to collect the result. At most `send_queue_depth()`
  /// requests may be in flight per executor (1 on the message transport,
  /// whose channel has a single slot per direction; 2 on the ring);
  /// exceeding the depth is an error.
  Status BeginExecute(Slice request);

  /// Zero-copy form of BeginExecute: reserve up to `max_len` bytes in the
  /// to-child ring, serialize the request into the returned region, then
  /// commit it with BeginExecutePrepared. On the message transport the
  /// region is an internal scratch buffer (one copy, as before).
  Result<uint8_t*> PrepareRequest(size_t max_len);
  Status BeginExecutePrepared(size_t actual_len);

  /// Parent side: services callbacks for the oldest in-flight request until
  /// its result (or error) arrives. Must follow a successful BeginExecute*.
  Result<std::vector<uint8_t>> FinishExecute(const CallbackHandler& on_callback);

  /// Like FinishExecute but answers callbacks through `on_callback` without
  /// an intermediate reply buffer, and hands the result payload to `consume`
  /// as an in-place view (zero-copy on the ring transport), releasing it
  /// after `consume` returns.
  Status FinishExecuteWith(const CallbackResponder& on_callback,
                           const ResultConsumer& consume);

  /// Requests currently committed but not yet finished.
  size_t in_flight() const { return in_flight_; }
  size_t send_queue_depth() const { return channel_->send_queue_depth(); }

  /// Asks the child to exit and reaps it. Called by the destructor too.
  Status Shutdown();

  /// SIGKILLs and reaps the child without a handshake — for discarding a
  /// wedged executor or cleaning up a leased-but-orphaned one at pool
  /// teardown. Idempotent; safe when the child is already dead.
  void Kill();

  pid_t child_pid() const { return child_pid_; }
  Channel* channel() { return channel_.get(); }

 private:
  RemoteExecutor() = default;

  std::unique_ptr<Channel> channel_;
  pid_t child_pid_ = -1;
  size_t in_flight_ = 0;
};

}  // namespace ipc
}  // namespace jaguar

#endif  // JAGUAR_IPC_REMOTE_EXECUTOR_H_
