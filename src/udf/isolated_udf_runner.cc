#include "udf/isolated_udf_runner.h"

#include <span>

#include "common/bytes.h"
#include "common/string_util.h"
#include "jvm/vm.h"
#include "obs/metrics.h"
#include "udf/jvm_udf_runner.h"

namespace jaguar {

namespace {

/// Shared-memory request messages that carried more than one argument row —
/// the direct count of Section 2.5 amortized crossings.
obs::Counter* BatchMessages() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("ipc.batch_messages");
  return c;
}

/// Chunks whose serialization overlapped the child's execution of the
/// previous chunk (the double-buffered IPC pipeline).
obs::Counter* PipelinedChunks() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("ipc.pipelined_chunks");
  return c;
}

/// Request chunks serialized directly into the shared-memory ring (no
/// intermediate request buffer) on the zero-copy transport.
obs::Counter* ZeroCopyBatches() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("ipc.ring.zero_copy_batches");
  return c;
}

/// Executor children SIGKILLed because their query's deadline passed while
/// they were still executing (the isolated designs' "stop button", Section 4).
obs::Counter* WatchdogKills() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("udf.watchdog.kills");
  return c;
}

/// A run of argument rows: a whole batch, or one caller-owned row viewed as
/// a batch of one (the scalar path copies nothing).
using ArgRows = std::span<const std::vector<Value>>;

/// Every request payload starts with its u32 row count.
constexpr size_t kCountBytes = 4;

/// Bytes one argument row adds to a request payload (u32 arg count + each
/// value's wire encoding).
size_t ArgRowSerializedSize(const std::vector<Value>& args) {
  size_t bytes = 4;
  for (const Value& v : args) bytes += v.SerializedSize();
  return bytes;
}

Status OversizedRequest(size_t len, size_t shm_capacity) {
  return InvalidArgument(StringPrintf(
      "serialized request (%zu bytes) exceeds channel capacity (%zu)", len,
      shm_capacity));
}

/// One request chunk: rows [begin, end) and its exact serialized size.
struct Chunk {
  size_t begin = 0;
  size_t end = 0;
  size_t len = 0;
};

/// Greedy chunking: the longest run of rows from `begin` whose request
/// still fits the shared-memory segment. Always takes at least one row; a
/// single row too large for the segment fails with InvalidArgument.
Result<Chunk> NextChunk(ArgRows rows, size_t begin, size_t shm_capacity) {
  // Slack for the channel's own framing.
  constexpr size_t kSlack = 256;
  const size_t budget = shm_capacity > kCountBytes + kSlack
                            ? shm_capacity - kCountBytes - kSlack
                            : 0;
  Chunk c;
  c.begin = begin;
  c.end = begin;
  size_t used = 0;
  while (c.end < rows.size()) {
    const size_t row_bytes = ArgRowSerializedSize(rows[c.end]);
    if (c.end > begin && used + row_bytes > budget) break;
    used += row_bytes;
    ++c.end;
  }
  c.len = kCountBytes + used;
  if (c.len > shm_capacity) return OversizedRequest(c.len, shm_capacity);
  return c;
}

/// Serializes rows [c.begin, c.end) through `w`, which may back onto ring
/// memory (fixed) or a private vector (owned).
void WriteChunk(ArgRows rows, const Chunk& c, BufferWriter* w) {
  BatchCodec::WriteCount(w, c.end - c.begin);
  for (size_t row = c.begin; row < c.end; ++row) {
    w->PutU32(static_cast<uint32_t>(rows[row].size()));
    for (const Value& v : rows[row]) v.WriteTo(w);
  }
}

/// Decodes a count-prefixed batch of result values into `out`, checking the
/// count against what the request carried. `payload` may be an in-place
/// view into transport memory (values copy out as they decode).
Status DecodeResults(Slice payload, Value* out, size_t expected) {
  BufferReader r(payload);
  JAGUAR_ASSIGN_OR_RETURN(uint32_t count, BatchCodec::ReadCount(&r));
  if (count != expected) {
    return Corruption(StringPrintf(
        "executor returned %u results for a batch of %zu",
        static_cast<unsigned>(count), expected));
  }
  for (uint32_t i = 0; i < count; ++i) {
    JAGUAR_RETURN_IF_ERROR(Value::ReadInto(&r, &out[i]));
  }
  return Status::OK();
}

// Callback wire format (child → parent payloads):
//   op 0 (Callback):  u8 0 | i64 kind | i64 arg        reply: i64
//   op 1 (FetchBytes): u8 1 | i64 handle | u64 off | u64 len
//                                                      reply: len-prefixed
constexpr uint8_t kOpCallback = 0;
constexpr uint8_t kOpFetch = 1;
constexpr size_t kCallbackBytes = 1 + 8 + 8;
constexpr size_t kFetchBytes = 1 + 8 + 8 + 8;

/// Child-side handler that forwards UDF callbacks to the parent process over
/// the channel (each callback is a full round trip — the cost Figure 8
/// shows dominating IC++). Requests serialize straight into the to-parent
/// channel and replies decode in place, so a callback allocates nothing
/// beyond what FetchBytes returns.
///
/// On the ring transport the parent may have pipelined the *next* request
/// behind the callback reply (the to-child direction is FIFO), so the round
/// trip must set aside any kRequest frame it sees and keep waiting — the
/// stash is drained by the child loop's next receive.
class ForwardingCallbackHandler : public UdfCallbackHandler {
 public:
  explicit ForwardingCallbackHandler(ipc::Channel* channel)
      : channel_(channel) {}

  Result<int64_t> Callback(int64_t kind, int64_t arg) override {
    JAGUAR_ASSIGN_OR_RETURN(uint8_t* buf,
                            channel_->PrepareToParent(kCallbackBytes));
    BufferWriter w(buf, kCallbackBytes);
    w.PutU8(kOpCallback);
    w.PutI64(kind);
    w.PutI64(arg);
    JAGUAR_ASSIGN_OR_RETURN(Slice reply, RoundTrip(kCallbackBytes));
    BufferReader r(reply);
    Result<int64_t> result = r.ReadI64();
    channel_->ReleaseInChild();
    return result;
  }

  Result<std::vector<uint8_t>> FetchBytes(int64_t handle, uint64_t offset,
                                          uint64_t len) override {
    JAGUAR_ASSIGN_OR_RETURN(uint8_t* buf,
                            channel_->PrepareToParent(kFetchBytes));
    BufferWriter w(buf, kFetchBytes);
    w.PutU8(kOpFetch);
    w.PutI64(handle);
    w.PutU64(offset);
    w.PutU64(len);
    JAGUAR_ASSIGN_OR_RETURN(Slice reply, RoundTrip(kFetchBytes));
    BufferReader r(reply);
    Result<Slice> bytes = r.ReadLengthPrefixed();
    std::vector<uint8_t> out;
    if (bytes.ok()) out = bytes->ToVector();
    channel_->ReleaseInChild();
    if (!bytes.ok()) return bytes.status();
    return out;
  }

 private:
  /// Commits the callback request prepared in the to-parent channel and
  /// waits for its reply, returned as an in-place view that the caller
  /// releases with ReleaseInChild.
  Result<Slice> RoundTrip(size_t request_len) {
    JAGUAR_RETURN_IF_ERROR(channel_->CommitToParent(
        ipc::MsgType::kCallbackRequest, request_len));
    while (true) {
      JAGUAR_ASSIGN_OR_RETURN(ipc::Channel::View msg,
                              channel_->ReceiveFreshViewInChild());
      switch (msg.first) {
        case ipc::MsgType::kCallbackReply:
          return msg.second;
        case ipc::MsgType::kRequest:
          // A pipelined next request overtook the callback reply; park a
          // copy for the child loop and keep waiting.
          channel_->StashInChild(msg.first, msg.second.ToVector());
          channel_->ReleaseInChild();
          break;
        case ipc::MsgType::kError: {
          Status error = ipc::DecodeStatus(msg.second);
          channel_->ReleaseInChild();
          return error;
        }
        default:
          channel_->ReleaseInChild();
          return Internal("unexpected message type for callback reply");
      }
    }
  }

  ipc::Channel* channel_;
};

/// Parent-side bridge: decodes a child's callback request in place,
/// services it through the invoking UdfContext, and serializes the reply
/// straight into the to-child channel (shared by Designs 2 and 4).
Status ServeCallback(UdfContext* ctx, Slice request, ipc::Channel* channel) {
  if (ctx == nullptr) return InvalidArgument("UDF callback without a context");
  BufferReader r(request);
  JAGUAR_ASSIGN_OR_RETURN(uint8_t op, r.ReadU8());
  if (op == kOpCallback) {
    JAGUAR_ASSIGN_OR_RETURN(int64_t kind, r.ReadI64());
    JAGUAR_ASSIGN_OR_RETURN(int64_t arg, r.ReadI64());
    JAGUAR_ASSIGN_OR_RETURN(int64_t result, ctx->Callback(kind, arg));
    JAGUAR_ASSIGN_OR_RETURN(uint8_t* buf, channel->PrepareToChild(8));
    BufferWriter w(buf, 8);
    w.PutI64(result);
    return channel->CommitToChild(ipc::MsgType::kCallbackReply, 8);
  }
  if (op == kOpFetch) {
    JAGUAR_ASSIGN_OR_RETURN(int64_t handle, r.ReadI64());
    JAGUAR_ASSIGN_OR_RETURN(uint64_t offset, r.ReadU64());
    JAGUAR_ASSIGN_OR_RETURN(uint64_t len, r.ReadU64());
    JAGUAR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                            ctx->FetchBytes(handle, offset, len));
    const size_t reply_len = 4 + bytes.size();
    JAGUAR_ASSIGN_OR_RETURN(uint8_t* buf, channel->PrepareToChild(reply_len));
    BufferWriter w(buf, reply_len);
    w.PutLengthPrefixed(Slice(bytes));
    return channel->CommitToChild(ipc::MsgType::kCallbackReply, reply_len);
  }
  return Corruption("unknown callback op from executor child");
}

/// Ships `rows` through a leased executor and decodes one result per row
/// into `out`, chunked to the shm segment and pipelined: while the child
/// executes chunk k, the parent serializes chunk k+1, so for multi-chunk
/// batches the serialization cost hides behind the child's execution
/// (double buffering across the process boundary). A scalar invocation is
/// the one-row, one-chunk case of the same loop.
///
/// How a chunk is staged depends on the executor's transport:
///   - zero-copy (ring): the chunk is serialized *directly into the to-child
///     ring* and committed at once — because the ring holds two maximal
///     frames, chunk k+1 is committed while chunk k is still executing.
///     Results decode in place from the ring view. No request or reply
///     buffer exists in the parent.
///   - message: the chunk is serialized into a private buffer and sent (one
///     copy into shm) once the channel's single slot frees up.
Status RunChunkedBatch(ipc::RemoteExecutor* executor, ArgRows rows,
                       Value* out, size_t shm_capacity, UdfContext* ctx) {
  // Every row must fit a request on its own. Checked before anything is
  // committed, so an oversized row never strands an earlier chunk in flight.
  if (rows.size() > 1) {
    for (const std::vector<Value>& row : rows) {
      const size_t len = kCountBytes + ArgRowSerializedSize(row);
      if (len > shm_capacity) return OversizedRequest(len, shm_capacity);
    }
  }
  const bool in_ring = executor->channel()->zero_copy() &&
                       executor->send_queue_depth() > 1;
  std::vector<uint8_t> staged;  // message transport: the next request
  auto stage = [&](const Chunk& c) -> Status {
    if (c.end - c.begin > 1) BatchMessages()->Add();
    if (!in_ring) {
      BufferWriter w;
      WriteChunk(rows, c, &w);
      staged = w.Release();
      return Status::OK();
    }
    JAGUAR_ASSIGN_OR_RETURN(uint8_t* buf, executor->PrepareRequest(c.len));
    BufferWriter w(buf, c.len);
    WriteChunk(rows, c, &w);
    if (w.overflowed() || w.size() != c.len) {
      return Internal("serialized chunk size disagrees with its computed size");
    }
    JAGUAR_RETURN_IF_ERROR(executor->BeginExecutePrepared(c.len));
    ZeroCopyBatches()->Add();
    return Status::OK();
  };
  auto launch = [&]() -> Status {
    return in_ring ? Status::OK() : executor->BeginExecute(Slice(staged));
  };
  const ipc::RemoteExecutor::CallbackResponder serve =
      [ctx](Slice request, ipc::Channel* channel) {
        return ServeCallback(ctx, request, channel);
      };

  JAGUAR_ASSIGN_OR_RETURN(Chunk cur, NextChunk(rows, 0, shm_capacity));
  JAGUAR_RETURN_IF_ERROR(stage(cur));
  JAGUAR_RETURN_IF_ERROR(launch());
  while (true) {
    // Chunk `cur` is in flight; stage the next one while the child works.
    // (Callbacks the child issues meanwhile just wait in the channel until
    // FinishExecuteWith services them.)
    const bool more = cur.end < rows.size();
    Chunk next;
    if (more) {
      JAGUAR_ASSIGN_OR_RETURN(next, NextChunk(rows, cur.end, shm_capacity));
      JAGUAR_RETURN_IF_ERROR(stage(next));
      PipelinedChunks()->Add();
    }
    Value* chunk_out = out + cur.begin;
    const size_t expected = cur.end - cur.begin;
    JAGUAR_RETURN_IF_ERROR(executor->FinishExecuteWith(
        serve, [chunk_out, expected](Slice payload) {
          return DecodeResults(payload, chunk_out, expected);
        }));
    if (!more) return Status::OK();
    JAGUAR_RETURN_IF_ERROR(launch());
    cur = next;
  }
}

/// Leases an executor and runs `rows` through it with the query deadline
/// (if any) armed on the lease's channel, then settles the lease:
///   - DeadlineExceeded: the child is still chewing on the UDF (or wedged) —
///     the watchdog SIGKILLs it via Discard and the pool respawns lazily.
///     Only this worker's lease dies; concurrent workers' leases are healthy.
///   - IoError: the child died on its own; discard as before.
/// Shared by Designs 2 (IC++) and 4 (IJNI) — the two "kill the process"
/// cells of Table 1's security column.
Status RunGuardedBatch(ExecutorPool* pool, ArgRows rows, Value* out,
                       size_t shm_capacity, UdfContext* ctx) {
  JAGUAR_ASSIGN_OR_RETURN(ExecutorPool::Lease lease, pool->Acquire());
  ipc::Channel* channel = lease->channel();
  channel->set_parent_deadline(ctx != nullptr ? ctx->deadline() : nullptr);
  Status status = RunChunkedBatch(lease.get(), rows, out, shm_capacity, ctx);
  channel->set_parent_deadline(nullptr);
  if (status.IsDeadlineExceeded()) {
    WatchdogKills()->Add();
    lease.Discard();
  } else if (status.IsIoError()) {
    lease.Discard();
  }
  return status;
}

/// Argument rows and result slots of one request, kept per executor child
/// so that decoding reuses the argument buffers from one request to the
/// next. A result slot is reset to NULL before each call, so a UDF sees the
/// same fresh `*out` as in process.
struct ChildScratch {
  std::vector<std::vector<Value>> rows;
  std::vector<Value> outs;
};

/// Decodes a request's count-prefixed argument rows into `scratch->rows`
/// and returns the row count.
Result<size_t> DecodeArgRows(Slice request, ChildScratch* scratch) {
  BufferReader r(request);
  JAGUAR_ASSIGN_OR_RETURN(uint32_t count, BatchCodec::ReadCount(&r));
  if (scratch->rows.size() < count) scratch->rows.resize(count);
  if (scratch->outs.size() < count) scratch->outs.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    JAGUAR_ASSIGN_OR_RETURN(uint32_t nargs, r.ReadU32());
    if (nargs > r.remaining()) {
      return Corruption("argument count exceeds the request payload");
    }
    std::vector<Value>& args = scratch->rows[i];
    args.resize(nargs);
    for (Value& v : args) JAGUAR_RETURN_IF_ERROR(Value::ReadInto(&r, &v));
  }
  return static_cast<size_t>(count);
}

/// Ships a computed result batch back to the parent. On the ring transport
/// the values serialize directly into the to-parent ring and the response is
/// marked sent (the child loop skips its own send); otherwise they serialize
/// into an owned buffer the loop copies out. Must only be called once every
/// result value is finished: a held ring reservation would block the child's
/// own callback sends behind it.
Result<std::vector<uint8_t>> ShipResultBatch(ipc::Channel* channel,
                                             std::span<const Value> outs) {
  size_t len = kCountBytes;
  for (const Value& v : outs) len += v.SerializedSize();
  if (channel->zero_copy() && len <= channel->data_capacity()) {
    JAGUAR_ASSIGN_OR_RETURN(uint8_t* buf, channel->PrepareToParent(len));
    BufferWriter w(buf, len);
    BatchCodec::WriteCount(&w, outs.size());
    for (const Value& v : outs) v.WriteTo(&w);
    if (w.overflowed() || w.size() != len) {
      return Internal("serialized result size disagrees with precomputed size");
    }
    JAGUAR_RETURN_IF_ERROR(
        channel->CommitToParent(ipc::MsgType::kResult, len));
    channel->MarkResponseSent();
    return std::vector<uint8_t>();
  }
  BufferWriter w;
  BatchCodec::WriteCount(&w, outs.size());
  for (const Value& v : outs) v.WriteTo(&w);
  return w.Release();
}

/// Runs inside the executor child for each request: a count-prefixed batch
/// of argument rows, each applied with a *fresh* UdfContext (so the
/// per-invocation callback quota means the same thing in both modes). One
/// failing row fails the whole request — the parent fails the batch.
/// `entry` was resolved once, before the executor was forked.
///
/// `request` is an in-place view into transport memory: all rows decode into
/// the scratch Values first, then the frame is released *before* any row
/// executes (decode-then-release), so callbacks and the pipelined next
/// request can flow through the ring while this batch runs.
Result<std::vector<uint8_t>> ChildHandleRequest(const NativeUdfEntry* entry,
                                                ChildScratch* scratch,
                                                Slice request,
                                                ipc::Channel* channel) {
  JAGUAR_ASSIGN_OR_RETURN(size_t count, DecodeArgRows(request, scratch));
  channel->ReleaseInChild();

  ForwardingCallbackHandler callbacks(channel);
  for (size_t i = 0; i < count; ++i) {
    UdfContext ctx(&callbacks);
    scratch->outs[i] = Value();
    JAGUAR_RETURN_IF_ERROR(entry->fn(scratch->rows[i], &ctx, &scratch->outs[i]));
  }
  return ShipResultBatch(channel,
                         std::span<const Value>(scratch->outs.data(), count));
}

}  // namespace

Result<std::unique_ptr<IsolatedNativeRunner>> IsolatedNativeRunner::Spawn(
    const std::string& impl_name, TypeId return_type,
    std::vector<TypeId> arg_types, size_t shm_capacity, size_t pool_size,
    ipc::Transport transport) {
  // Resolve once, in the parent: a missing function fails here rather than
  // at the first request, and every executor forked later inherits the
  // registry entry this pointer names.
  JAGUAR_ASSIGN_OR_RETURN(const NativeUdfEntry* entry,
                          NativeUdfRegistry::Global()->Lookup(impl_name));
  auto runner = std::unique_ptr<IsolatedNativeRunner>(
      new IsolatedNativeRunner());
  runner->impl_name_ = impl_name;
  runner->return_type_ = return_type;
  runner->arg_types_ = std::move(arg_types);
  runner->shm_capacity_ = shm_capacity;
  // One scratch object, copied into each child's address space by fork.
  auto scratch = std::make_shared<ChildScratch>();
  ipc::RemoteExecutor::RequestHandler handler =
      [entry, scratch](Slice request, ipc::Channel* channel) {
        return ChildHandleRequest(entry, scratch.get(), request, channel);
      };
  runner->pool_ = std::make_unique<ExecutorPool>(
      [shm_capacity, handler, transport] {
        return ipc::RemoteExecutor::Spawn(shm_capacity, handler, transport);
      },
      pool_size);
  // Pre-spawn every executor now (runner creation happens on the query's
  // bind path, single-threaded) so no parallel worker forks mid-query.
  JAGUAR_RETURN_IF_ERROR(runner->pool_->Prewarm(pool_size));
  return runner;
}

void IsolatedNativeRunner::set_ipc_timeout_seconds(unsigned seconds) {
  pool_->set_timeout_seconds(static_cast<int>(seconds));
}

Result<Value> IsolatedNativeRunner::DoInvoke(const std::vector<Value>& args,
                                             UdfContext* ctx) {
  JAGUAR_RETURN_IF_ERROR(CheckUdfArgs(impl_name_, arg_types_, args));
  Value out;
  // A transport failure or deadline expiry means the child is dead or must
  // die; only this worker's invocation fails, and the pool respawns later.
  JAGUAR_RETURN_IF_ERROR(RunGuardedBatch(pool_.get(), ArgRows(&args, 1), &out,
                                         shm_capacity_, ctx));
  return out;
}

Result<std::vector<Value>> IsolatedNativeRunner::DoInvokeBatch(
    const std::vector<std::vector<Value>>& args_batch, UdfContext* ctx) {
  for (const std::vector<Value>& args : args_batch) {
    JAGUAR_RETURN_IF_ERROR(CheckUdfArgs(impl_name_, arg_types_, args));
  }
  std::vector<Value> results(args_batch.size());
  JAGUAR_RETURN_IF_ERROR(RunGuardedBatch(pool_.get(), args_batch,
                                         results.data(), shm_capacity_, ctx));
  return results;
}

UdfManager::RunnerFactory MakeIsolatedRunnerFactory(size_t shm_capacity,
                                                    size_t pool_size,
                                                    ipc::Transport transport) {
  return [shm_capacity, pool_size, transport](const UdfInfo& info)
             -> Result<std::unique_ptr<UdfRunner>> {
    JAGUAR_ASSIGN_OR_RETURN(
        std::unique_ptr<IsolatedNativeRunner> runner,
        IsolatedNativeRunner::Spawn(info.impl_name, info.return_type,
                                    info.arg_types, shm_capacity, pool_size,
                                    transport));
    return std::unique_ptr<UdfRunner>(std::move(runner));
  };
}

}  // namespace jaguar

// ---------------------------------------------------------------------------
// Design 4: isolated JagVM (IJNI)
// ---------------------------------------------------------------------------

namespace jaguar {

namespace {

/// Everything the executor child needs to run the UDF. Constructed in the
/// parent before fork(); the child inherits it (including the loaded,
/// verified class — JIT compilation happens lazily in the child).
struct IsolatedVmState {
  jvm::Jvm vm;
  std::unique_ptr<jvm::ClassLoader> loader;
  std::string class_name;
  std::string method_name;
  TypeId return_type;
  std::vector<TypeId> arg_types;
  jvm::ResourceLimits limits;
  jvm::SecurityManager security;
  ChildScratch scratch;
};

/// Marshals one argument row into a fresh ExecContext, calls the method,
/// and unmarshals the result. Callbacks flow UDF -> Jaguar.* native ->
/// UdfContext -> ForwardingCallbackHandler -> shm channel -> server: the VM
/// boundary *and* the process boundary.
Result<Value> ChildRunVmItem(IsolatedVmState* state,
                             const std::vector<Value>& args,
                             UdfContext* udf_ctx) {
  jvm::ExecContext exec(&state->vm, state->loader.get(), &state->security,
                        state->limits, udf_ctx);

  std::vector<int64_t> slots;
  slots.reserve(args.size());
  for (const Value& v : args) {
    switch (v.type()) {
      case TypeId::kInt:
        slots.push_back(v.AsInt());
        break;
      case TypeId::kBool:
        slots.push_back(v.AsBool() ? 1 : 0);
        break;
      case TypeId::kBytes: {
        JAGUAR_ASSIGN_OR_RETURN(jvm::ArrayObject * arr,
                                exec.NewByteArray(Slice(v.AsBytes())));
        slots.push_back(reinterpret_cast<int64_t>(arr));
        break;
      }
      default:
        return NotSupported("unsupported Design-4 UDF argument type");
    }
  }
  JAGUAR_ASSIGN_OR_RETURN(
      int64_t raw,
      exec.CallStatic(state->class_name, state->method_name, slots));

  switch (state->return_type) {
    case TypeId::kInt:
      return Value::Int(raw);
    case TypeId::kBool:
      return Value::Bool(raw != 0);
    case TypeId::kBytes:
      return Value::Bytes(jvm::ExecContext::ReadByteArray(
          reinterpret_cast<const jvm::ArrayObject*>(raw)));
    default:
      return Internal("unexpected Design-4 UDF return type");
  }
}

/// Runs one Design-4 request (a count-prefixed batch of argument rows)
/// inside the executor child. Each row gets a fresh UdfContext and
/// ExecContext — per-invocation quotas and heap state are identical to the
/// scalar protocol; only the process crossing is amortized. Same
/// decode-then-release discipline as ChildHandleRequest.
Result<std::vector<uint8_t>> ChildHandleVmRequest(
    IsolatedVmState* state, Slice request, ipc::Channel* channel) {
  ChildScratch* scratch = &state->scratch;
  JAGUAR_ASSIGN_OR_RETURN(size_t count, DecodeArgRows(request, scratch));
  channel->ReleaseInChild();

  ForwardingCallbackHandler callbacks(channel);
  for (size_t i = 0; i < count; ++i) {
    UdfContext udf_ctx(&callbacks);
    JAGUAR_ASSIGN_OR_RETURN(scratch->outs[i],
                            ChildRunVmItem(state, scratch->rows[i], &udf_ctx));
  }
  return ShipResultBatch(channel,
                         std::span<const Value>(scratch->outs.data(), count));
}

}  // namespace

Result<std::unique_ptr<IsolatedJvmRunner>> IsolatedJvmRunner::Spawn(
    const UdfInfo& info, jvm::ResourceLimits limits, size_t shm_capacity,
    size_t pool_size, ipc::Transport transport) {
  size_t dot = info.impl_name.find('.');
  if (dot == std::string::npos) {
    return InvalidArgument("Design-4 UDF entry point must be 'Class.method'");
  }

  auto state = std::make_shared<IsolatedVmState>();
  JAGUAR_RETURN_IF_ERROR(InstallJaguarNatives(&state->vm));
  state->loader =
      std::make_unique<jvm::ClassLoader>(state->vm.system_loader());
  JAGUAR_RETURN_IF_ERROR(state->loader->LoadClass(Slice(info.payload)).status());
  state->class_name = info.impl_name.substr(0, dot);
  state->method_name = info.impl_name.substr(dot + 1);
  state->return_type = info.return_type;
  state->arg_types = info.arg_types;
  state->limits = limits;
  state->security.Grant("udf.callback");
  state->security.Grant("udf.fetch");

  // Validate the entry point + declared signature (parent side, before any
  // query can hit a broken child). JvmUdfRunner::Create applies exactly the
  // checks we need; it also confirms the class loads into a namespace.
  JAGUAR_RETURN_IF_ERROR(
      JvmUdfRunner::Create(&state->vm, info, limits).status());

  auto runner = std::unique_ptr<IsolatedJvmRunner>(new IsolatedJvmRunner());
  runner->return_type_ = info.return_type;
  runner->arg_types_ = info.arg_types;
  runner->shm_capacity_ = shm_capacity;
  runner->handler_ = [state](Slice request, ipc::Channel* channel) {
    return ChildHandleVmRequest(state.get(), request, channel);
  };
  ipc::RemoteExecutor::RequestHandler handler = runner->handler_;
  runner->pool_ = std::make_unique<ExecutorPool>(
      [shm_capacity, handler, transport] {
        return ipc::RemoteExecutor::Spawn(shm_capacity, handler, transport);
      },
      pool_size);
  JAGUAR_RETURN_IF_ERROR(runner->pool_->Prewarm(pool_size));
  return runner;
}

void IsolatedJvmRunner::set_ipc_timeout_seconds(unsigned seconds) {
  pool_->set_timeout_seconds(static_cast<int>(seconds));
}

Result<Value> IsolatedJvmRunner::DoInvoke(const std::vector<Value>& args,
                                          UdfContext* ctx) {
  JAGUAR_RETURN_IF_ERROR(CheckUdfArgs("isolated_jvm_udf", arg_types_, args));
  Value out;
  JAGUAR_RETURN_IF_ERROR(RunGuardedBatch(pool_.get(), ArgRows(&args, 1), &out,
                                         shm_capacity_, ctx));
  return out;
}

Result<std::vector<Value>> IsolatedJvmRunner::DoInvokeBatch(
    const std::vector<std::vector<Value>>& args_batch, UdfContext* ctx) {
  for (const std::vector<Value>& args : args_batch) {
    JAGUAR_RETURN_IF_ERROR(CheckUdfArgs("isolated_jvm_udf", arg_types_, args));
  }
  std::vector<Value> results(args_batch.size());
  JAGUAR_RETURN_IF_ERROR(RunGuardedBatch(pool_.get(), args_batch,
                                         results.data(), shm_capacity_, ctx));
  return results;
}

UdfManager::RunnerFactory MakeIsolatedJvmRunnerFactory(
    jvm::ResourceLimits limits, size_t shm_capacity, size_t pool_size,
    ipc::Transport transport) {
  return [limits, shm_capacity, pool_size, transport](const UdfInfo& info)
             -> Result<std::unique_ptr<UdfRunner>> {
    JAGUAR_ASSIGN_OR_RETURN(
        std::unique_ptr<IsolatedJvmRunner> runner,
        IsolatedJvmRunner::Spawn(info, limits, shm_capacity, pool_size,
                                 transport));
    return std::unique_ptr<UdfRunner>(std::move(runner));
  };
}

}  // namespace jaguar
