// IPC transport microbenchmark: the zero-copy shared-memory ring against the
// copying semaphore-per-message channel, at two levels.
//
//  1. Raw channel: parent streams payloads of 64 B .. 512 KB to a forked
//     echo child that answers each with an 8-byte FNV checksum. This models
//     the UDF argument path — bulk one way, tiny result back. The ring
//     serializes into shared memory in place and the child reads in place
//     (zero large copies); the message channel pays copy-in + copy-out per
//     crossing plus four semaphore syscalls.
//  2. Runner level: IsolatedNativeRunner::InvokeBatch of 256 rows x 8 KB
//     through a real executor pool, ring vs message, exercising the
//     serialize-into-ring batch codec and depth-2 pipelining.
//  3. Scalar: one-row IC++ invocations over the ring (what a one-tuple-at-a-
//     time scan pays per row) with 0 and 1 callbacks, next to the floor of
//     any cross-process crossing on the host — two processes bouncing one
//     shared cache line — timed in the same run. Reported only: the floor
//     moves with the host, so no bound is checked against it.
//
// Emits BENCH_ipc.json. Shape checks: ring >= 1.5x message throughput on
// large payloads/batches, and the ring's park count (voluntary syscall
// sleeps) must be far below the message channel's per-crossing syscall
// count. JAGUAR_BENCH_IPC_ITERS overrides the per-size iteration count for
// CI smoke runs.

#include <sched.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstring>
#include <new>
#include <thread>

#include "bench/harness.h"
#include "common/clock.h"
#include "ipc/channel.h"
#include "udf/isolated_udf_runner.h"
#include "udf/udf.h"

namespace jaguar {
namespace bench {
namespace {

uint64_t Fnv1a(const uint8_t* data, size_t len, uint64_t h) {
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Checksum of the payload's first and last 64 bytes: enough to catch
/// framing/wraparound corruption without a full read pass, whose cost both
/// transports would pay equally and which would mask the copy savings this
/// bench exists to measure.
uint64_t EdgeChecksum(const uint8_t* data, size_t len) {
  uint64_t h = 1469598103934665603ull;
  size_t head = len < 64 ? len : 64;
  h = Fnv1a(data, head, h);
  if (len > 64) {
    size_t tail = len - 64 < 64 ? len - 64 : 64;
    h = Fnv1a(data + len - tail, tail, h);
  }
  return h;
}

int IterationsFor(size_t payload) {
  if (const char* env = std::getenv("JAGUAR_BENCH_IPC_ITERS")) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  // Keep per-size wall time roughly constant: ~32 MB of traffic per point,
  // floor of 400 round trips for the small sizes.
  int n = static_cast<int>((32u << 20) / payload);
  if (n < 400) n = 400;
  if (n > 20000) n = 20000;
  return FullScale() ? n * 4 : n;
}

/// Forks an echo-checksum child on `channel`. The child answers every
/// kRequest with the FNV-64 of its payload and exits on kShutdown.
pid_t ForkChecksumChild(ipc::Channel* channel) {
  pid_t pid = ::fork();
  if (pid != 0) return pid;
  for (;;) {
    auto view = channel->ReceiveViewInChild();
    if (!view.ok()) ::_exit(1);
    if (view->first == ipc::MsgType::kShutdown) ::_exit(0);
    uint64_t sum = EdgeChecksum(view->second.data(), view->second.size());
    channel->ReleaseInChild();
    uint8_t reply[8];
    std::memcpy(reply, &sum, sizeof(sum));
    if (!channel->SendToParent(ipc::MsgType::kResult, Slice(reply, 8)).ok()) {
      ::_exit(2);
    }
  }
}

/// One transport x payload-size point: round trips/s and MB/s (payload
/// direction only).
struct EchoPoint {
  double seconds = 0;
  double mbps = 0;
  double trips_per_s = 0;
};

EchoPoint RunEcho(ipc::Transport transport, size_t payload_size, int iters) {
  auto channel = ipc::Channel::Create(transport, 1 << 20).value();
  pid_t child = ForkChecksumChild(channel.get());

  std::vector<uint8_t> staging(payload_size);
  for (size_t i = 0; i < payload_size; ++i) {
    staging[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const uint64_t expect = EdgeChecksum(staging.data(), staging.size());

  Stopwatch timer;
  for (int i = 0; i < iters; ++i) {
    if (channel->zero_copy()) {
      // The real producer serializes in place; writing the pattern into the
      // reservation stands in for that serialization pass.
      uint8_t* buf = channel->PrepareToChild(payload_size).value();
      std::memcpy(buf, staging.data(), payload_size);
      if (!channel->CommitToChild(ipc::MsgType::kRequest, payload_size)
               .ok()) {
        std::abort();
      }
    } else {
      if (!channel->SendToChild(ipc::MsgType::kRequest, Slice(staging)).ok()) {
        std::abort();
      }
    }
    auto reply = channel->ReceiveViewInParent().value();
    uint64_t sum;
    std::memcpy(&sum, reply.second.data(), sizeof(sum));
    channel->ReleaseInParent();
    if (sum != expect) std::abort();
  }
  EchoPoint point;
  point.seconds = timer.ElapsedSeconds();
  point.trips_per_s = iters / point.seconds;
  point.mbps = (static_cast<double>(iters) * payload_size) /
               (point.seconds * (1 << 20));

  (void)channel->SendToChild(ipc::MsgType::kShutdown, Slice());
  int wstatus = 0;
  ::waitpid(child, &wstatus, 0);
  return point;
}

/// Runner-level batch point: rows/s for InvokeBatch of `rows` x `row_bytes`.
double RunBatch(ipc::Transport transport, int rows, size_t row_bytes,
                int repeats) {
  RegisterGenericUdfs();
  auto runner =
      IsolatedNativeRunner::Spawn(
          "generic_udf", TypeId::kInt,
          {TypeId::kBytes, TypeId::kInt, TypeId::kInt, TypeId::kInt},
          /*shm_capacity=*/8u << 20, /*pool_size=*/1, transport)
          .value();
  std::vector<std::vector<Value>> batch;
  for (int i = 0; i < rows; ++i) {
    std::vector<uint8_t> bytes(row_bytes,
                               static_cast<uint8_t>(i * 37 + 1));
    batch.push_back({Value::Bytes(std::move(bytes)), Value::Int(1),
                     Value::Int(1), Value::Int(0)});
  }
  UdfContext ctx(nullptr);
  // Warm up (spawn + page faults), then time the best of `repeats`.
  if (!runner->InvokeBatch(batch, &ctx).ok()) std::abort();
  double best = 1e30;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch timer;
    auto result = runner->InvokeBatch(batch, &ctx);
    double s = timer.ElapsedSeconds();
    if (!result.ok() || result->size() != batch.size()) std::abort();
    if (s < best) best = s;
  }
  return rows / best;
}

int ScalarIterations() {
  if (const char* env = std::getenv("JAGUAR_BENCH_IPC_ITERS")) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return FullScale() ? 100000 : 20000;
}

/// Answers every callback with 0, standing in for the server: the paper's
/// callbacks move no data.
class NullCallbacks : public UdfCallbackHandler {
 public:
  Result<int64_t> Callback(int64_t, int64_t) override { return 0; }
  Result<std::vector<uint8_t>> FetchBytes(int64_t, uint64_t,
                                          uint64_t) override {
    return std::vector<uint8_t>();
  }
};

/// Microseconds per one-row IC++ invocation (ring transport) of generic_udf
/// on a 1-byte row making `callbacks` callbacks: best of three timed runs.
double ScalarInvokeUs(int callbacks, int iters) {
  RegisterGenericUdfs();
  auto runner =
      IsolatedNativeRunner::Spawn(
          "generic_udf", TypeId::kInt,
          {TypeId::kBytes, TypeId::kInt, TypeId::kInt, TypeId::kInt})
          .value();
  const std::vector<Value> args = {Value::Bytes({7}), Value::Int(0),
                                   Value::Int(0), Value::Int(callbacks)};
  NullCallbacks server;
  auto run = [&](int n) {
    for (int i = 0; i < n; ++i) {
      UdfContext ctx(&server);
      if (!runner->Invoke(args, &ctx).ok()) std::abort();
    }
  };
  run(iters / 10 + 100);  // warm up: page faults, branch predictors
  double best = 1e30;
  for (int r = 0; r < 3; ++r) {
    Stopwatch timer;
    run(iters);
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best * 1e6 / iters;
}

/// Microseconds per round trip of two processes bouncing one shared
/// cache-line word: the parent publishes an odd value, the child answers
/// with the next even one. Best of three timed runs.
double PingPongFloorUs(int iters) {
  void* mem = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) std::abort();
  auto* word = new (mem) std::atomic<uint32_t>(0);
  // A waiter that has spun for a while yields: when both processes share a
  // CPU, spinning on only delays the peer it waits for.
  auto await = [word](uint32_t v) {
    for (int spins = 0; word->load(std::memory_order_acquire) != v; ++spins) {
      if (spins >= 4096) {
        ::sched_yield();
      } else {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    }
  };
  const uint32_t total = 4 * static_cast<uint32_t>(iters);  // warm-up + 3
  pid_t pid = ::fork();
  if (pid == 0) {
    for (uint32_t v = 1; v < 2 * total; v += 2) {
      await(v);
      word->store(v + 1, std::memory_order_release);
    }
    ::_exit(0);
  }
  uint32_t v = 1;
  auto run = [&](int n) {
    for (int i = 0; i < n; ++i, v += 2) {
      word->store(v, std::memory_order_release);
      await(v + 1);
    }
  };
  run(iters);
  double best = 1e30;
  for (int r = 0; r < 3; ++r) {
    Stopwatch timer;
    run(iters);
    best = std::min(best, timer.ElapsedSeconds());
  }
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  ::munmap(mem, 4096);
  return best * 1e6 / iters;
}

uint64_t MetricValue(const obs::MetricsSnapshot& snap,
                     const std::string& name) {
  auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second;
}

int Run() {
  const std::vector<size_t> sizes = {64, 4096, 65536, 512 * 1024};
  PrintHeader("IPC transport - ring vs message",
              "echo round trips (bulk payload out, 8-byte checksum back) "
              "and isolated-UDF InvokeBatch, per transport");

  obs::MetricsRegistry* reg = obs::MetricsRegistry::Global();

  PrintSeriesHeader("payload B",
                    {"ring MB/s", "message MB/s", "ratio", "trips/s ring"});
  std::vector<EchoPoint> ring_points, message_points;
  obs::MetricsSnapshot before_ring = reg->Snapshot("ipc.");
  for (size_t size : sizes) {
    ring_points.push_back(
        RunEcho(ipc::Transport::kRing, size, IterationsFor(size)));
  }
  obs::MetricsSnapshot ring_delta =
      obs::SnapshotDelta(before_ring, reg->Snapshot("ipc."));

  obs::MetricsSnapshot before_message = reg->Snapshot("ipc.");
  for (size_t size : sizes) {
    message_points.push_back(
        RunEcho(ipc::Transport::kMessage, size, IterationsFor(size)));
  }
  obs::MetricsSnapshot message_delta =
      obs::SnapshotDelta(before_message, reg->Snapshot("ipc."));

  for (size_t i = 0; i < sizes.size(); ++i) {
    double ratio = message_points[i].mbps > 0
                       ? ring_points[i].mbps / message_points[i].mbps
                       : 0;
    std::printf("%10zu %12.1f %12.1f %11.2fx %12.0f\n", sizes[i],
                ring_points[i].mbps, message_points[i].mbps, ratio,
                ring_points[i].trips_per_s);
  }

  // Syscall economy: every message-transport crossing is >= 2 semaphore
  // syscalls; the ring only syscalls when a side actually parks.
  const uint64_t ring_parks = MetricValue(ring_delta, "ipc.ring.parks");
  const uint64_t ring_crossings = MetricValue(ring_delta, "ipc.shm.messages");
  const uint64_t message_crossings =
      MetricValue(message_delta, "ipc.shm.messages");
  std::printf("\nring: %" PRIu64 " crossings, %" PRIu64
              " parks (%.1f%% parked); message: %" PRIu64
              " crossings = >= %" PRIu64 " semaphore syscalls\n",
              ring_crossings, ring_parks,
              ring_crossings > 0 ? 100.0 * ring_parks / ring_crossings : 0.0,
              message_crossings, 2 * message_crossings);

  const int batch_rows = 256;
  const size_t row_bytes = 8192;
  const int repeats = FullScale() ? 9 : 3;
  double ring_rows_s = RunBatch(ipc::Transport::kRing, batch_rows, row_bytes,
                                repeats);
  double message_rows_s =
      RunBatch(ipc::Transport::kMessage, batch_rows, row_bytes, repeats);
  double batch_ratio = message_rows_s > 0 ? ring_rows_s / message_rows_s : 0;
  std::printf("\nInvokeBatch %d rows x %zu B: ring %.0f rows/s, message "
              "%.0f rows/s (%.2fx)\n",
              batch_rows, row_bytes, ring_rows_s, message_rows_s, batch_ratio);

  const int scalar_iters = ScalarIterations();
  const double scalar_us_0cb = ScalarInvokeUs(0, scalar_iters);
  const double scalar_us_1cb = ScalarInvokeUs(1, scalar_iters);
  const double pingpong_us = PingPongFloorUs(10 * scalar_iters);
  std::printf("\nScalar IC++ (ring, 1-byte row): %.3f us/invocation with 0 "
              "callbacks, %.3f us with 1; two-process ping-pong floor %.3f "
              "us/round trip\n",
              scalar_us_0cb, scalar_us_1cb, pingpong_us);

  std::FILE* json = std::fopen("BENCH_ipc.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"echo\": {\n");
    for (size_t i = 0; i < sizes.size(); ++i) {
      double ratio = message_points[i].mbps > 0
                         ? ring_points[i].mbps / message_points[i].mbps
                         : 0;
      std::fprintf(json,
                   "    \"%zu\": {\"ring_mbps\": %.2f, \"message_mbps\": "
                   "%.2f, \"ratio\": %.3f, \"ring_trips_per_s\": %.0f}%s\n",
                   sizes[i], ring_points[i].mbps, message_points[i].mbps,
                   ratio, ring_points[i].trips_per_s,
                   i + 1 < sizes.size() ? "," : "");
    }
    std::fprintf(json,
                 "  },\n  \"ring_parks\": %" PRIu64
                 ",\n  \"ring_crossings\": %" PRIu64
                 ",\n  \"message_crossings\": %" PRIu64
                 ",\n  \"batch\": {\"rows\": %d, \"row_bytes\": %zu, "
                 "\"ring_rows_per_s\": %.0f, \"message_rows_per_s\": %.0f, "
                 "\"ratio\": %.3f},\n  \"scalar\": {\"icpp_invoke_us_0cb\": "
                 "%.4f, \"icpp_invoke_us_1cb\": %.4f, \"pingpong_floor_us\": "
                 "%.4f}\n}\n",
                 ring_parks, ring_crossings, message_crossings, batch_rows,
                 row_bytes, ring_rows_s, message_rows_s, batch_ratio,
                 scalar_us_0cb, scalar_us_1cb, pingpong_us);
    std::fclose(json);
    std::printf("\nwrote BENCH_ipc.json\n");
  }

  std::printf("\nShape checks:\n");
  bool ok = true;
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < 2) {
    // On one CPU every crossing is a mandatory context switch for BOTH
    // transports — the producer cannot run while the consumer does — so the
    // ring's zero-syscall, overlap-friendly fast path has no room to show
    // its advantage and the waiter parks on every crossing. The comparisons
    // below are only meaningful with real concurrency.
    std::printf("  [SKIP] transport ratio checks need >= 2 cores (host has "
                "%u)\n",
                cores);
    return 0;
  }
  const size_t last = sizes.size() - 1;
  double large_ratio = message_points[last].mbps > 0
                           ? ring_points[last].mbps / message_points[last].mbps
                           : 0;
  ok &= ShapeCheck(large_ratio >= 1.5,
                   StringPrintf("ring >= 1.5x message at %zu B payloads "
                                "(got %.2fx): zero-copy beats copy-twice",
                                sizes[last], large_ratio));
  ok &= ShapeCheck(batch_ratio >= 1.5,
                   StringPrintf("ring >= 1.5x message on %d x %zu B "
                                "InvokeBatch (got %.2fx)",
                                batch_rows, row_bytes, batch_ratio));
  ok &= ShapeCheck(
      ring_parks * 10 < 2 * message_crossings,
      StringPrintf("ring parks (%" PRIu64 ") are < 10%% of the message "
                   "transport's semaphore syscalls (%" PRIu64 ")",
                   ring_parks, 2 * message_crossings));
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace jaguar

int main() { return jaguar::bench::Run(); }
