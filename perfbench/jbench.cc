// jbench — end-to-end benchmark of jaguar as a user drives it: one
// `net::Client` connection to an in-process `net::Server` on 127.0.0.1, in a
// closed loop, over a statement list generated from a seed.
//
//   jbench --workload udf_scan|point_rw|analytics --seed N --seconds S
//          --trace 0|1 --data-dir DIR
//   jbench --self-test --data-dir DIR
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) repeat the same statement list with spans around every call
// the benchmark makes and report the per-layer metrics. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// See README.md in this directory for the workloads and metric definitions.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "index/btree.h"
#include "jjc/jjc.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "storage/buffer_pool.h"
#include "storage/table_heap.h"
#include "udf/generic_udf.h"

namespace jaguar {
namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Small utilities

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "jbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

void MustOk(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

/// Linear-interpolated percentile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// A fixed CPU loop, timed. Printed beside the results so host drift (CPU
/// steal, frequency changes) can be told apart from program noise; never
/// used to gate or correct anything.
double CpuProbeMs() {
  Stopwatch sw;
  uint64_t x = 1;
  for (int i = 0; i < 40'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    asm volatile("" : "+r"(x));
  }
  return sw.ElapsedMillis();
}

/// Runs `fn` in a forked child and returns the number it computed, so the
/// child's memory stays out of this process's heap and `peak_rss_mb`. Call
/// it only while this process has no other threads.
double InChild(const std::function<double()>& fn, const std::string& what) {
  int fds[2];
  if (pipe(fds) != 0) Die(what + ": pipe failed");
  pid_t pid = fork();
  if (pid < 0) Die(what + ": fork failed");
  if (pid == 0) {
    close(fds[0]);
    double value = fn();
    bool ok = write(fds[1], &value, sizeof(value)) == sizeof(value);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  double value = 0;
  bool ok = read(fds[0], &value, sizeof(value)) == sizeof(value);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Die(what + " in child process failed");
  }
  return value;
}

/// A fixed memory-streaming loop (copies of a 32 MB buffer), timed in a
/// child process. The workloads scan the buffer pool and copy pages, so
/// memory bandwidth shared with the rest of the host moves them more than it
/// moves the CPU probe. Printed beside the results; never used to gate or
/// correct anything.
double MemProbeMs() {
  return InChild(
      [] {
        std::vector<uint8_t> a(32 << 20, 1), b(32 << 20);
        Stopwatch sw;
        for (int i = 0; i < 8; ++i) {
          std::memcpy(b.data(), a.data(), a.size());
          asm volatile("" : : "r"(b.data()) : "memory");
        }
        return sw.ElapsedMillis();
      },
      "memory probe");
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  uint64_t n = std::filesystem::file_size(path, ec);
  return ec ? 0 : n;
}

void RemoveDbFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

/// Seed of `randbytes` for one row: distinct per (run seed, table, id) and
/// small enough to print as an INT literal.
int64_t RowSeed(uint64_t seed, int table, int64_t id) {
  return 1 + (static_cast<int64_t>(seed % (1u << 20)) << 36) +
         (static_cast<int64_t>(table) << 32) + id;
}

std::vector<uint8_t> RowBytes(uint64_t seed, int table, int64_t id,
                              size_t n) {
  Random rng(static_cast<uint64_t>(RowSeed(seed, table, id)));
  return rng.Bytes(n);
}

template <typename T>
void Shuffle(std::vector<T>* v, Random* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

uint64_t Get(const obs::MetricsSnapshot& m, const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? 0 : it->second;
}

void Accumulate(obs::MetricsSnapshot* into, const obs::MetricsSnapshot& d) {
  for (const auto& [name, value] : d) (*into)[name] += value;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out at the end of a traced run.

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  ///< Index of the enclosing span, -1 at top level.
  int64_t stmt;    ///< Timed-phase statement id, -1 outside the timed phase.
};

class Tracer {
 public:
  int32_t Begin(const char* name, int64_t stmt) {
    spans_.push_back({name, NowNs(), 0, current_, stmt});
    current_ = static_cast<int32_t>(spans_.size() - 1);
    return current_;
  }
  void End(int32_t idx) {
    spans_[idx].end_ns = NowNs();
    current_ = spans_[idx].parent;
  }

  /// Durations of every span called `name`, in `unit_ns` units.
  std::vector<double> Durations(const std::string& name,
                                double unit_ns) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back((s.end_ns - s.start_ns) / unit_ns);
    }
    return out;
  }

  /// For each statement id with both spans: duration of `a` minus duration
  /// of `b`, in `unit_ns` units.
  std::vector<double> PairedDifferences(const std::string& a,
                                        const std::string& b,
                                        double unit_ns) const {
    std::map<int64_t, int64_t> first;
    for (const Span& s : spans_) {
      if (a == s.name) first[s.stmt] = s.end_ns - s.start_ns;
    }
    std::vector<double> out;
    for (const Span& s : spans_) {
      auto it = first.find(s.stmt);
      if (b == s.name && it != first.end()) {
        out.push_back((it->second - (s.end_ns - s.start_ns)) / unit_ns);
      }
    }
    return out;
  }

  void WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) Die("cannot write " + path);
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%" PRId64
                   ",\"end_ns\":%" PRId64 ",\"parent\":%d,\"stmt\":%" PRId64
                   "}%s\n",
                   i, s.name, s.start_ns, s.end_ns, s.parent, s.stmt,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
  int32_t current_ = -1;
};

/// RAII span; a no-op when `tracer` is null (untraced runs pay nothing).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, int64_t stmt = -1)
      : tracer_(tracer), idx_(tracer ? tracer->Begin(name, stmt) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End(idx_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int32_t idx_;
};

// ---------------------------------------------------------------------------
// Session: database + loopback server + one client.

struct Session {
  std::string path;
  DatabaseOptions options;
  std::unique_ptr<Database> db;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net::Client> client;

  void Open(Tracer* tracer) {
    {
      SpanScope span(tracer, "setup.open");
      db = Must(Database::Open(path, options), "open " + path);
    }
    SpanScope span(tracer, "setup.server_start");
    server = std::make_unique<net::Server>(db.get());
    MustOk(server->Start(0), "server start");
    client = Must(net::Client::Connect("127.0.0.1", server->port()),
                  "client connect");
  }

  void Close() {
    client.reset();
    if (server) server->Stop();
    server.reset();
    db.reset();
  }

  /// Clean close followed by a reopen of the same files.
  void Reopen() {
    Close();
    Open(nullptr);
  }

  QueryResult Exec(const std::string& sql) {
    return Must(client->Execute(sql), "execute `" + sql.substr(0, 120) + "`");
  }
};

/// Loads `rows` rows through the client in multi-row INSERTs of `batch`
/// rows; `row(id)` renders one parenthesized VALUES tuple.
void LoadRows(Session* s, const std::string& table, int64_t rows, int batch,
              const std::function<std::string(int64_t)>& row) {
  for (int64_t base = 0; base < rows; base += batch) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (int64_t id = base; id < std::min<int64_t>(rows, base + batch); ++id) {
      if (id > base) sql += ", ";
      sql += row(id);
    }
    s->Exec(sql);
  }
}

const std::vector<TypeId>& GenericSig() {
  static const std::vector<TypeId> sig = {TypeId::kBytes, TypeId::kInt,
                                          TypeId::kInt, TypeId::kInt};
  return sig;
}

/// The generic UDF under the four Table 1 designs the benchmark runs.
struct Design {
  const char* udf;     ///< Registered name.
  const char* metric;  ///< `udf.<metric>.*` key.
  const char* span;    ///< Span of the invocation probe.
  UdfLanguage language;
};
const Design kDesigns[] = {
    {"g_cpp", "cpp", "udf.invoke.cpp", UdfLanguage::kNative},
    {"g_icpp", "icpp", "udf.invoke.icpp", UdfLanguage::kNativeIsolated},
    {"g_jni", "jni", "udf.invoke.jni", UdfLanguage::kJJava},
    {"g_ijni", "ijni", "udf.invoke.ijni", UdfLanguage::kJJavaIsolated},
};

UdfInfo DesignInfo(const Design& d) {
  UdfInfo info{d.udf, d.language, TypeId::kInt, GenericSig(), "generic_udf",
               {}};
  if (d.language == UdfLanguage::kJJava ||
      d.language == UdfLanguage::kJJavaIsolated) {
    static const std::vector<uint8_t> payload =
        Must(jjc::Compile(GenericUdfJJavaSource()), "jjc").Serialize();
    info.impl_name = "GenericUdf.run";
    info.payload = payload;
  }
  return info;
}

/// Registers designs over the wire, as a client would (JJava class files
/// are compiled client-side and verified by the server).
void RegisterDesigns(Session* s, const std::vector<const char*>& names) {
  for (const Design& d : kDesigns) {
    for (const char* n : names) {
      if (std::strcmp(n, d.udf) == 0) {
        MustOk(s->client->RegisterUdf(DesignInfo(d)),
               std::string("register ") + d.udf);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Workloads

struct Stmt {
  std::string sql;
  bool write = false;
  int64_t p[6] = {0, 0, 0, 0, 0, 0};  ///< Workload-specific check inputs.
  uint64_t user_bytes = 0;             ///< Logical bytes a write inserts.
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  virtual DatabaseOptions Options() const = 0;
  /// Statements the timed phase runs per requested second (calibrated on a
  /// 4-core host so a run measures for about `--seconds`).
  virtual double StmtsPerSecond() const = 0;
  /// Statements per cycle. A cycle holds the same mix of statement costs
  /// for every seed; the timed phase is whole cycles.
  virtual size_t CycleLength() const = 0;
  /// Builds the statement list of `n` statements (whole cycles) and the
  /// expected results (untimed).
  virtual void MakeInputs(uint64_t seed, int64_t n) = 0;
  /// Creates, loads, indexes and registers through the client. Returns the
  /// logical bytes of the rows it inserted.
  virtual uint64_t Load(Session* s, Tracer* tracer) = 0;
  /// Statements of every shape, run untimed after `Load`.
  virtual std::vector<Stmt> Warmup() const = 0;
  virtual bool Check(const Stmt& st, const QueryResult& r) const = 0;
  /// Checks after the timed phase (point_rw: close, reopen, find every
  /// acknowledged insert). May reopen the session.
  virtual bool PostCheck(Session* s) { return true; }
  /// Table the heap-scan, page-fetch and index probes use.
  virtual std::string ProbeTable() const = 0;
  /// A single-row INSERT shaped like the probe table's rows.
  virtual Stmt ProbeInsert(int64_t id) const = 0;

  const std::vector<Stmt>& stmts() const { return stmts_; }
  /// Makes every expected value wrong (self-test of the checks).
  void Corrupt() { corrupt_ = 1; }

 protected:
  int64_t Expect(int64_t v) const { return v + corrupt_; }
  std::vector<Stmt> stmts_;
  uint64_t seed_ = 0;
  int64_t corrupt_ = 0;
};

// --- udf_scan: the paper's Section 5 experiment -----------------------------

class UdfScan : public Workload {
 public:
  static constexpr int64_t kRows = 10'000;
  static constexpr size_t kSizes[3] = {1, 100, 10'000};
  static constexpr const char* kRels[3] = {"Rel1", "Rel100", "Rel10000"};

  const char* name() const override { return "udf_scan"; }
  DatabaseOptions Options() const override {
    DatabaseOptions o;
    o.buffer_pool_pages = 32'768;  // 256 MB: all three relations resident
    return o;
  }
  double StmtsPerSecond() const override { return 38; }
  size_t CycleLength() const override { return 3 * 4 * kTuples; }

  void MakeInputs(uint64_t seed, int64_t n) override {
    seed_ = seed;
    // Whole cycles: each holds every (relation, design) cell once per
    // parameter tuple, so the cost mix is the same for every seed; the seed
    // picks the order and the data.
    std::vector<Stmt> cycle;
    for (int rel = 0; rel < 3; ++rel) {
      for (int design = 0; design < 4; ++design) {
        for (int t = 0; t < kTuples; ++t) {
          cycle.push_back(CellStmt(rel, design, t));
        }
      }
    }
    Random rng(seed * 0x9E3779B97F4A7C15ULL + 11);
    stmts_.clear();
    for (int64_t c = 0; c < n / static_cast<int64_t>(cycle.size()); ++c) {
      Shuffle(&cycle, &rng);
      stmts_.insert(stmts_.end(), cycle.begin(), cycle.end());
    }
    // Expected values of every (relation, i, d, c) the list uses.
    for (int rel = 0; rel < 3; ++rel) {
      std::vector<Combo> combos;
      for (const Stmt& st : stmts_) {
        if (st.p[0] == rel) combos.push_back({st.p[3], st.p[4], st.p[5]});
      }
      for (const Stmt& st : Warmup()) {
        if (st.p[0] == rel) combos.push_back({st.p[3], st.p[4], st.p[5]});
      }
      std::sort(combos.begin(), combos.end());
      combos.erase(std::unique(combos.begin(), combos.end()), combos.end());
      for (const Combo& c : combos) expected_[rel][c].resize(kRows);
      for (int64_t id = 0; id < kRows; ++id) {
        std::vector<uint8_t> bytes = RowBytes(seed, rel, id, kSizes[rel]);
        for (const Combo& c : combos) {
          expected_[rel][c][id] = GenericUdfExpected(bytes, c[0], c[1], c[2]);
        }
      }
    }
  }

  uint64_t Load(Session* s, Tracer* tracer) override {
    uint64_t bytes = 0;
    {
      SpanScope span(tracer, "setup.load");
      for (int rel = 0; rel < 3; ++rel) {
        s->Exec(std::string("CREATE TABLE ") + kRels[rel] +
                " (id INT, grp INT, ByteArray BYTEARRAY)");
        LoadRows(s, kRels[rel], kRows, 250, [&](int64_t id) {
          return StringPrintf(
              "(%" PRId64 ", %" PRId64 ", randbytes(%zu, %" PRId64 "))", id,
              id % 64, kSizes[rel], RowSeed(seed_, rel, id));
        });
        bytes += kRows * (16 + kSizes[rel]);
      }
    }
    SpanScope span(tracer, "setup.register");
    RegisterDesigns(s, {"g_cpp", "g_icpp", "g_jni", "g_ijni"});
    return bytes;
  }

  std::vector<Stmt> Warmup() const override {
    std::vector<Stmt> out;
    for (int rel = 0; rel < 3; ++rel) {
      for (int design = 0; design < 4; ++design) {
        for (int group = 0; group < 2; ++group) {
          out.push_back(Make(rel, design, group, 200, 10, rel == 2 ? 0 : 1, 1));
        }
      }
    }
    return out;
  }

  bool Check(const Stmt& st, const QueryResult& r) const override {
    const std::vector<int64_t>& e =
        expected_[st.p[0]].at({st.p[3], st.p[4], st.p[5]});
    const int64_t k = st.p[2];
    if (st.p[1] != 0) {  // GROUP BY R.grp: (grp, SUM(g))
      std::map<int64_t, int64_t> sums;
      for (int64_t id = 0; id < k; ++id) sums[id % 64] += e[id];
      if (r.rows.size() != sums.size()) return false;
      for (const Tuple& t : r.rows) {
        auto it = sums.find(t.value(0).AsInt());
        if (it == sums.end() || Expect(it->second) != t.value(1).AsInt()) {
          return false;
        }
      }
      return true;
    }
    if (static_cast<int64_t>(r.rows.size()) != k) return false;
    bool in_order = true;
    for (int64_t id = 0; id < k && in_order; ++id) {
      in_order = r.rows[id].value(0).AsInt() == Expect(e[id]);
    }
    if (in_order) return true;
    // Row order is not part of the statement's contract: compare multisets.
    std::vector<int64_t> want(e.begin(), e.begin() + k), got;
    for (int64_t& v : want) v = Expect(v);
    for (const Tuple& t : r.rows) got.push_back(t.value(0).AsInt());
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    return want == got;
  }

  std::string ProbeTable() const override { return "Rel100"; }
  Stmt ProbeInsert(int64_t id) const override {
    Stmt st;
    st.sql = StringPrintf("INSERT INTO Rel100 VALUES (%" PRId64 ", %" PRId64
                          ", randbytes(100, %" PRId64 "))",
                          id, id % 64, RowSeed(seed_, 1, id));
    st.write = true;
    st.user_bytes = 8 + 8 + 100;
    return st;
  }

 private:
  using Combo = std::array<int64_t, 3>;  // i, d, c

  /// Parameter tuple `t` of a cell, from the paper's ranges: k invocations
  /// (up to 5,000 of the 10,000 rows, so that a run holds several cycles),
  /// i data-independent additions, d data passes and c callbacks. Every
  /// statement costs within about 10x of the others: Rel10000 keeps d = 0
  /// and a smaller k (each of its tuples is a 10 KB overflow record). One
  /// tuple in four adds GROUP BY.
  static constexpr int kTuples = 12;
  static Stmt CellStmt(int rel, int design, int t) {
    static const int64_t kSmall[] = {1'250, 2'500, 3'750, 5'000};
    static const int64_t kLarge[] = {500, 750, 1'000, 1'250};
    static const int64_t kIndep[] = {0, 100, 1'000};
    static const int64_t kDep[] = {0, 1, 10};
    int64_t k = rel == 2 ? kLarge[t % 4] : kSmall[t % 4];
    int64_t i = kIndep[t / 4];
    int64_t d = rel == 2 ? 0 : kDep[t % 3];
    int64_t c = (t / 2) % 2;
    int group = t % 4 == t / 4 ? 1 : 0;
    return Make(rel, design, group, k, i, d, c);
  }

  static Stmt Make(int rel, int design, int group, int64_t k, int64_t i,
                   int64_t d, int64_t c) {
    Stmt st;
    std::string call = StringPrintf("%s(R.ByteArray, %" PRId64 ", %" PRId64
                                    ", %" PRId64 ")",
                                    kDesigns[design].udf, i, d, c);
    st.sql = group ? "SELECT R.grp, SUM(" + call + ") FROM " + kRels[rel] +
                         " R WHERE R.id < " + std::to_string(k) +
                         " GROUP BY R.grp"
                   : "SELECT " + call + " FROM " + kRels[rel] +
                         " R WHERE R.id < " + std::to_string(k);
    st.p[0] = rel;
    st.p[1] = group;
    st.p[2] = k;
    st.p[3] = i;
    st.p[4] = d;
    st.p[5] = c;
    return st;
  }

  std::map<Combo, std::vector<int64_t>> expected_[3];
};

// --- point_rw: single-row INSERTs alternating with indexed point reads ------

class PointRw : public Workload {
 public:
  static constexpr int64_t kPreload = 20'000;
  static constexpr size_t kPayload = 100;
  static constexpr int kTable = 7;

  const char* name() const override { return "point_rw"; }
  DatabaseOptions Options() const override { return {}; }  // wal_fsync on
  double StmtsPerSecond() const override { return 420; }
  size_t CycleLength() const override { return 420; }

  void MakeInputs(uint64_t seed, int64_t n) override {
    seed_ = seed;
    Random rng(seed * 0x9E3779B97F4A7C15ULL + 22);
    stmts_.clear();
    int64_t next_id = kPreload;
    for (int64_t j = 0; j < n; ++j) {
      if (j % 2 == 0) {
        stmts_.push_back(Insert(next_id++));
      } else {
        stmts_.push_back(Read(static_cast<int64_t>(rng.Uniform(next_id))));
      }
    }
    final_rows_ = next_id;
  }

  uint64_t Load(Session* s, Tracer* tracer) override {
    {
      SpanScope span(tracer, "setup.load");
      s->Exec("CREATE TABLE kv (id INT, payload BYTEARRAY)");
      LoadRows(s, "kv", kPreload, 250, [&](int64_t id) { return Row(id); });
    }
    SpanScope span(tracer, "setup.index");
    s->Exec("CREATE INDEX kv_id ON kv (id)");
    return kPreload * (8 + kPayload);
  }

  std::vector<Stmt> Warmup() const override {
    return {Read(0), Read(kPreload / 2), Read(kPreload - 1)};
  }

  bool Check(const Stmt& st, const QueryResult& r) const override {
    if (st.write) return r.rows_affected == 1;
    return r.rows.size() == 1 && RowMatches(r.rows[0], st.p[0]);
  }

  bool PostCheck(Session* s) override {
    s->Reopen();
    QueryResult count = s->Exec("SELECT COUNT(*) FROM kv");
    if (count.rows.size() != 1 ||
        count.rows[0].value(0).AsInt() != Expect(final_rows_)) {
      return false;
    }
    QueryResult inserted = s->Exec(
        "SELECT id, payload FROM kv WHERE id >= " + std::to_string(kPreload));
    std::vector<bool> seen(final_rows_ - kPreload, false);
    for (const Tuple& t : inserted.rows) {
      int64_t id = t.value(0).AsInt();
      if (id < kPreload || id >= final_rows_ || seen[id - kPreload] ||
          !RowMatches(t, id)) {
        return false;
      }
      seen[id - kPreload] = true;
    }
    return std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
  }

  std::string ProbeTable() const override { return "kv"; }
  Stmt ProbeInsert(int64_t id) const override { return Insert(id); }

 private:
  std::string Row(int64_t id) const {
    return StringPrintf("(%" PRId64 ", randbytes(%zu, %" PRId64 "))", id,
                        kPayload, RowSeed(seed_, kTable, id));
  }
  Stmt Insert(int64_t id) const {
    Stmt st;
    st.sql = "INSERT INTO kv VALUES " + Row(id);
    st.write = true;
    st.p[0] = id;
    st.user_bytes = 8 + kPayload;
    return st;
  }
  static Stmt Read(int64_t id) {
    Stmt st;
    st.sql = "SELECT id, payload FROM kv WHERE id = " + std::to_string(id);
    st.p[0] = id;
    return st;
  }
  bool RowMatches(const Tuple& t, int64_t id) const {
    std::vector<uint8_t> want = RowBytes(seed_, kTable, id, kPayload);
    if (corrupt_) want[0] ^= 1;
    return t.value(0).AsInt() == id && t.value(1).AsBytes() == want;
  }

  int64_t final_rows_ = 0;
};

// --- analytics: parallel scans over a table larger than the buffer pool -----

class Analytics : public Workload {
 public:
  static constexpr int64_t kRows = 40'000;
  static constexpr size_t kPayload = 280;  // ~300-byte rows, ~12 MB table
  static constexpr int64_t kGroups = 64;
  static constexpr int kTable = 9;

  const char* name() const override { return "analytics"; }
  DatabaseOptions Options() const override {
    DatabaseOptions o;  // 1,024-page (8 MB) pool: smaller than the table
    o.vectorized_execution = true;
    unsigned cores = std::max(2u, std::thread::hardware_concurrency());
    o.num_workers = cores - 1;  // the workers plus the client fit the cores
    return o;
  }
  double StmtsPerSecond() const override { return 19; }
  size_t CycleLength() const override { return 36; }

  void MakeInputs(uint64_t seed, int64_t n) override {
    seed_ = seed;
    for (int c = 0; c < 4; ++c) values_[c].resize(kRows);
    for (int64_t id = 0; id < kRows; ++id) {
      std::vector<uint8_t> bytes = RowBytes(seed, kTable, id, kPayload);
      for (int c = 0; c < 4; ++c) {
        values_[c][id] = GenericUdfExpected(bytes, Indep(c), 1, Callbacks(c));
      }
    }
    for (int c = 0; c < 4; ++c) {
      sorted_[c] = values_[c];
      std::sort(sorted_[c].begin(), sorted_[c].end());
    }
    // Whole cycles of 36: 12 GROUP BYs over id ranges of fixed widths, and
    // each UDF statement at every (combo, selectivity); the seed picks the
    // range offsets, the groups, the order and the data.
    static const double kQuantiles[] = {0.1, 0.5, 0.9};
    Random rng(seed * 0x9E3779B97F4A7C15ULL + 33);
    stmts_.clear();
    for (int64_t c = 0; c < n / 36; ++c) {
      std::vector<Stmt> cycle;
      for (int combo = 0; combo < 4; ++combo) {
        for (double q : kQuantiles) {
          int64_t width = kRows * (cycle.size() / 3 + 1) / 12;
          int64_t lo = rng.UniformRange(0, kRows - width);
          cycle.push_back(GroupBy(lo, lo + width));
          cycle.push_back(TopK(combo, q));
          cycle.push_back(Count(combo, q, rng.Uniform(kGroups)));
        }
      }
      Shuffle(&cycle, &rng);
      stmts_.insert(stmts_.end(), cycle.begin(), cycle.end());
    }
  }

  uint64_t Load(Session* s, Tracer* tracer) override {
    {
      SpanScope span(tracer, "setup.load");
      s->Exec("CREATE TABLE big (id INT, grp INT, payload BYTEARRAY)");
      LoadRows(s, "big", kRows, 250, [&](int64_t id) { return Row(id); });
    }
    SpanScope span(tracer, "setup.register");
    RegisterDesigns(s, {"g_cpp", "g_jni"});
    return kRows * (16 + kPayload);
  }

  std::vector<Stmt> Warmup() const override {
    std::vector<Stmt> out = {GroupBy(0, kRows)};
    for (int c = 0; c < 4; ++c) {
      out.push_back(TopK(c, 0.5));
      out.push_back(Count(c, 0.5, c));
    }
    return out;
  }

  bool Check(const Stmt& st, const QueryResult& r) const override {
    if (st.p[0] == 0) {  // (grp, COUNT(*), SUM(id)) over [lo, hi)
      const int64_t lo = st.p[1], hi = st.p[2];
      if (r.rows.size() != static_cast<size_t>(std::min(kGroups, hi - lo))) {
        return false;
      }
      for (const Tuple& t : r.rows) {
        int64_t g = t.value(0).AsInt();
        if (g < 0 || g >= kGroups) return false;
        // Closed form: ids f, f+64, ... below hi, f the first >= lo.
        int64_t f = lo + ((g - lo % kGroups) + kGroups) % kGroups;
        int64_t n = f < hi ? (hi - 1 - f) / kGroups + 1 : 0;
        int64_t sum = n * f + kGroups * n * (n - 1) / 2;
        if (t.value(1).AsInt() != Expect(n) || t.value(2).AsInt() != sum) {
          return false;
        }
      }
      return true;
    }
    const std::vector<int64_t>& v = values_[st.p[1]];
    const int64_t threshold = st.p[2];
    if (st.p[0] == 1) {  // top-10 ids, descending
      std::vector<int64_t> want;
      for (int64_t id = kRows - 1; id >= 0 && want.size() < 10; --id) {
        if (v[id] > threshold) want.push_back(Expect(id));
      }
      if (r.rows.size() != want.size()) return false;
      for (size_t j = 0; j < want.size(); ++j) {
        if (r.rows[j].value(0).AsInt() != want[j]) return false;
      }
      return true;
    }
    int64_t want = 0;  // COUNT(*) with a UDF predicate AND grp = g
    for (int64_t id = st.p[3]; id < kRows; id += kGroups) {
      want += v[id] > threshold;
    }
    return r.rows.size() == 1 && r.rows[0].value(0).AsInt() == Expect(want);
  }

  std::string ProbeTable() const override { return "big"; }
  Stmt ProbeInsert(int64_t id) const override {
    Stmt st;
    st.sql = "INSERT INTO big VALUES " + Row(id);
    st.write = true;
    st.user_bytes = 8 + 8 + kPayload;
    return st;
  }

 private:
  static int64_t Indep(int combo) { return combo % 2 == 0 ? 0 : 50; }
  static int64_t Callbacks(int combo) { return combo / 2; }

  std::string Row(int64_t id) const {
    return StringPrintf("(%" PRId64 ", %" PRId64 ", randbytes(%zu, %" PRId64
                        "))",
                        id, id % kGroups, kPayload, RowSeed(seed_, kTable, id));
  }
  std::string Call(const char* udf, int combo) const {
    return StringPrintf("%s(B.payload, %" PRId64 ", 1, %" PRId64 ")", udf,
                        Indep(combo), Callbacks(combo));
  }
  int64_t Threshold(int combo, double q) const {
    return sorted_[combo][static_cast<size_t>(q * (kRows - 1))];
  }

  Stmt GroupBy(int64_t lo, int64_t hi) const {
    Stmt st;
    st.sql = StringPrintf(
        "SELECT grp, COUNT(*), SUM(id) FROM big WHERE id >= %" PRId64
        " AND id < %" PRId64 " GROUP BY grp",
        lo, hi);
    st.p[0] = 0;
    st.p[1] = lo;
    st.p[2] = hi;
    return st;
  }
  Stmt TopK(int combo, double q) const {
    Stmt st;
    st.p[0] = 1;
    st.p[1] = combo;
    st.p[2] = Threshold(combo, q);
    st.sql = "SELECT B.id FROM big B WHERE " + Call("g_cpp", combo) + " > " +
             std::to_string(st.p[2]) + " ORDER BY B.id DESC LIMIT 10";
    return st;
  }
  Stmt Count(int combo, double q, int64_t grp) const {
    Stmt st;
    st.p[0] = 2;
    st.p[1] = combo;
    st.p[2] = Threshold(combo, q);
    st.p[3] = grp;
    st.sql = "SELECT COUNT(*) FROM big B WHERE " + Call("g_jni", combo) +
             " > " + std::to_string(st.p[2]) +
             " AND B.grp = " + std::to_string(grp);
    return st;
  }

  std::vector<int64_t> values_[4];  ///< GenericUdfExpected per combo and id.
  std::vector<int64_t> sorted_[4];
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "udf_scan") return std::make_unique<UdfScan>();
  if (name == "point_rw") return std::make_unique<PointRw>();
  if (name == "analytics") return std::make_unique<Analytics>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Running a workload

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string data_dir;
  bool self_test = false;
};

/// Ids of the rows the write probe inserts, above every workload's ids.
constexpr int64_t kProbeIds = 1'000'000'000;

/// Set-ups per untraced run; `setup_s` is their median. All but the last
/// run in forked children.
constexpr int kSetups = 3;

/// One timed phase over the statement list.
struct PhaseResult {
  double wall_s = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> read_ms, write_ms;
  /// Per cycle of the statement list: statements ÷ wall time, and the p50
  /// and p90 of its read and write latencies. The reported figures are the
  /// medians over cycles, so a burst of host noise moves one cycle only.
  std::vector<double> rate, read_p50, read_p90, write_p50, write_p90;
  obs::MetricsSnapshot read_delta, write_delta;  ///< Summed metrics_delta.
  uint64_t user_bytes = 0;
  double rows_returned = 0;
};

/// Fresh database files, open, load, register, warm up. Returns seconds.
/// Also returns the logical bytes the load inserted through `user_bytes`.
double Setup(Workload* w, Session* s, Tracer* tracer, uint64_t* user_bytes) {
  RemoveDbFiles(s->path);
  Stopwatch sw;
  SpanScope span(tracer, "setup");
  s->Open(tracer);
  *user_bytes = w->Load(s, tracer);
  SpanScope warm(tracer, "setup.warmup");
  for (const Stmt& st : w->Warmup()) {
    QueryResult r = s->Exec(st.sql);
    if (!w->Check(st, r)) Die("warm-up result check failed: " + st.sql);
  }
  return sw.ElapsedSeconds();
}

/// One set-up in a child process, on its own files; returns its seconds.
/// Runs before the parent opens anything, so the parent has no threads, and
/// leaves the parent's heap (and `peak_rss_mb`) as if it set up only once.
double SetupInChild(Workload* w, const Session& like) {
  return InChild(
      [&] {
        Session s;
        s.path = like.path + ".child";
        s.options = like.options;
        uint64_t user_bytes = 0;
        double seconds = Setup(w, &s, nullptr, &user_bytes);
        s.Close();
        RemoveDbFiles(s.path);
        return seconds;
      },
      "set-up");
}

/// Runs the statement list. With a tracer, odd cycles are traced and even
/// cycles are not, so the tracing overhead is measured on one set-up, with
/// host drift shared between the two halves.
PhaseResult RunTimed(Workload* w, Session* s, Tracer* cycle_tracer) {
  PhaseResult out;
  const size_t n = w->stmts().size();
  const size_t cycle = w->CycleLength();
  std::vector<double> cycle_reads, cycle_writes;
  int64_t cycle_start = NowNs();
  auto close_cycle = [&] {
    int64_t now = NowNs();
    out.rate.push_back(cycle / ((now - cycle_start) / 1e9));
    out.read_p50.push_back(Percentile(cycle_reads, 0.5));
    out.read_p90.push_back(Percentile(cycle_reads, 0.9));
    out.write_p50.push_back(Percentile(cycle_writes, 0.5));
    out.write_p90.push_back(Percentile(cycle_writes, 0.9));
    cycle_reads.clear();
    cycle_writes.clear();
    cycle_start = now;
  };
  Stopwatch wall;
  for (size_t j = 0; j < n; ++j) {
    if (j > 0 && j % cycle == 0) close_cycle();
    const Stmt& st = w->stmts()[j];
    Tracer* tracer = (j / cycle) % 2 == 1 ? cycle_tracer : nullptr;
    SpanScope stmt_span(tracer, "stmt", static_cast<int64_t>(j));
    ++out.attempted;
    int64_t t0 = NowNs();
    Result<QueryResult> r = [&] {
      SpanScope span(tracer, "client.execute", static_cast<int64_t>(j));
      return s->client->Execute(st.sql);
    }();
    double ms = (NowNs() - t0) / 1e6;
    if (tracer != nullptr) {
      {
        SpanScope span(tracer, "sql.parse", static_cast<int64_t>(j));
        if (!sql::Parse(st.sql).ok()) Die("parse failed: " + st.sql);
      }
      SpanScope span(tracer, "obs.snapshot", static_cast<int64_t>(j));
      obs::MetricsRegistry::Global()->Snapshot();
    }
    if (!r.ok() || !w->Check(st, *r)) {
      ++out.failed;
      std::fprintf(stderr, "jbench: statement %zu %s: %s\n", j,
                   r.ok() ? "returned a wrong result" : "failed",
                   st.sql.substr(0, 160).c_str());
      continue;
    }
    (st.write ? out.write_ms : out.read_ms).push_back(ms);
    (st.write ? cycle_writes : cycle_reads).push_back(ms);
    Accumulate(st.write ? &out.write_delta : &out.read_delta,
               r->metrics_delta);
    if (st.write) out.user_bytes += st.user_bytes;
    out.rows_returned += static_cast<double>(r->rows.size());
  }
  close_cycle();
  out.wall_s = wall.ElapsedSeconds();
  return out;
}

using Metrics = std::vector<std::tuple<std::string, double, std::string>>;

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i ? ", " : "", name.c_str(), std::isfinite(value) ? value : 0.0,
                unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintTable(const char* title, const Metrics& metrics,
                const std::map<std::string, std::string>& notes) {
  if (*title != '\0') std::printf("%s\n", title);
  for (const auto& [name, value, unit] : metrics) {
    auto it = notes.find(name);
    std::printf("  %-34s %14.4f %-6s %s\n", name.c_str(), value, unit.c_str(),
                it == notes.end() ? "" : it->second.c_str());
  }
}

/// Whole cycles, about `seconds` long at the workload's calibrated rate.
int64_t NumStatements(const Workload& w, int seconds) {
  const double cycle = static_cast<double>(w.CycleLength());
  const int64_t cycles = std::llround(w.StmtsPerSecond() * seconds / cycle);
  return std::max<int64_t>(1, cycles) * static_cast<int64_t>(w.CycleLength());
}

/// Untraced run: the end-to-end metrics.
int RunEndToEnd(Workload* w, const Args& args) {
  double probe_before = CpuProbeMs(), mem_before = MemProbeMs();
  w->MakeInputs(args.seed, NumStatements(*w, args.seconds));
  Session s;
  s.path = args.data_dir + "/" + w->name() + ".db";
  s.options = w->Options();
  std::vector<double> setups;
  for (int i = 1; i < kSetups; ++i) setups.push_back(SetupInChild(w, s));
  uint64_t user_bytes = 0;
  setups.push_back(Setup(w, &s, nullptr, &user_bytes));
  PhaseResult ph = RunTimed(w, &s, nullptr);
  user_bytes += ph.user_bytes;
  uint64_t disk_bytes = FileBytes(s.path) + FileBytes(s.path + ".wal");
  bool post_ok = w->PostCheck(&s);
  s.Close();
  RemoveDbFiles(s.path);
  double probe_after = CpuProbeMs(), mem_after = MemProbeMs();

  Metrics m = {
      {"setup_s", Median(setups), "s"},
      {"stmt_per_s", Median(ph.rate), "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"bytes_per_user_byte", Ratio(disk_bytes, user_bytes), "ratio"},
  };
  std::string setup_list;
  for (double t : setups) setup_list += StringPrintf(" %.3f", t);
  std::map<std::string, std::string> notes = {
      {"setup_s", "median of" + setup_list},
      {"stmt_per_s", StringPrintf("n=%" PRId64, ph.attempted)},
      {"peak_rss_mb", "benchmark+server; IC++/IJNI children excluded"},
  };
  std::printf("workload %s seed %" PRIu64 ": %" PRId64
              " statements in %.3f s\n",
              w->name(), args.seed, ph.attempted, ph.wall_s);
  PrintTable("end-to-end (untraced)", m, notes);
  // Printed, but not in the result object; see README.md for why.
  PrintTable("", {{"read_p50_ms", Median(ph.read_p50), "ms"},
                  {"read_p90_ms", Median(ph.read_p90), "ms"},
                  {"write_p50_ms", Median(ph.write_p50), "ms"},
                  {"write_p90_ms", Median(ph.write_p90), "ms"}},
             {{"read_p50_ms", StringPrintf("n=%zu", ph.read_ms.size())},
              {"read_p90_ms", StringPrintf("n=%zu", ph.read_ms.size())},
              {"write_p50_ms", StringPrintf("n=%zu", ph.write_ms.size())},
              {"write_p90_ms", StringPrintf("n=%zu", ph.write_ms.size())}});
  std::printf("  %-34s %14.6f %-6s\n", "failed_frac",
              Ratio(ph.failed, ph.attempted), "ratio");
  std::printf("  %-34s %14.4f %-6s (before) %.4f (after); not a gate\n",
              "cpu_probe_ms", probe_before, "ms", probe_after);
  std::printf("  %-34s %14.4f %-6s (before) %.4f (after); not a gate\n",
              "mem_probe_ms", mem_before, "ms", mem_after);
  std::printf("  post-phase checks: %s\n", post_ok ? "ok" : "FAILED");
  PrintResult(ph.failed == 0 && post_ok, ph.attempted, ph.failed, m);
  return 0;
}

/// The write probe's single-row INSERTs: how many, their logical bytes and
/// their summed metrics_delta.
struct ProbeWrites {
  int64_t count = 0;
  uint64_t user_bytes = 0;
  obs::MetricsSnapshot delta;
};

/// Timing probes of single modules' public functions, run after the traced
/// timed phase while the server is idle. Each timed call gets a span; the
/// per-layer times are read back from the spans. Returns the write probe's
/// counts, so the wal metrics exist on workloads whose timed phase only
/// reads.
ProbeWrites RunProbes(Workload* w, Session* s, Tracer* tracer) {
  Database* db = s->db.get();
  for (int i = 0; i < 500; ++i) {
    SpanScope span(tracer, "probe.ping");
    MustOk(s->client->Ping(), "ping");
  }
  // The same read statement over the wire and in-process. Whichever runs
  // second finds the pages the first one fetched, so the order alternates
  // per sample and the paired difference carries no cache-warmth bias.
  std::vector<size_t> reads;
  for (size_t j = 0; j < w->stmts().size(); ++j) {
    if (!w->stmts()[j].write) reads.push_back(j);
  }
  const size_t samples = std::min<size_t>(reads.size(), 64);
  for (size_t i = 0; i < samples; ++i) {
    const size_t j = reads[i * reads.size() / samples];
    const Stmt& st = w->stmts()[j];
    auto over_wire = [&] {
      SpanScope span(tracer, "probe.client.execute", static_cast<int64_t>(j));
      s->Exec(st.sql);
    };
    auto in_process = [&] {
      SpanScope span(tracer, "probe.engine.read", static_cast<int64_t>(j));
      Result<QueryResult> r = db->Execute(st.sql);
      if (!r.ok() || !w->Check(st, *r)) Die("in-process read: " + st.sql);
    };
    if (i % 2 == 0) {
      in_process();
      over_wire();
    } else {
      over_wire();
      in_process();
    }
  }
  ProbeWrites writes;
  for (int i = 0; i < 64; ++i) {
    const Stmt st = w->ProbeInsert(kProbeIds + i);
    Result<QueryResult> r = [&] {
      SpanScope span(tracer, "probe.engine.write");
      return db->Execute(st.sql);
    }();
    if (!r.ok() || r->rows_affected != 1) Die("in-process write: " + st.sql);
    ++writes.count;
    writes.user_bytes += st.user_bytes;
    Accumulate(&writes.delta, r->metrics_delta);
  }
  // UDF invocation on one 100-byte row, every design.
  UdfContext ctx(db);
  const std::vector<Value> args = {
      Value::Bytes(RowBytes(0, 1, 0, 100)), Value::Int(0), Value::Int(0),
      Value::Int(0)};
  const int64_t want = GenericUdfExpected(args[0].AsBytes(), 0, 0, 0);
  for (const Design& d : kDesigns) {
    Status reg = db->RegisterUdf(DesignInfo(d));
    if (!reg.ok() && !reg.IsAlreadyExists()) Die(reg.ToString());
    for (int i = 0; i < 220; ++i) {
      SpanScope span(i >= 20 ? tracer : nullptr, d.span);  // 20 warm-ups
      TypeId rt;
      std::vector<TypeId> at;
      UdfRunner* runner =
          Must(db->udf_manager()->Resolve(d.udf, &rt, &at), "resolve");
      Value v = Must(runner->Invoke(args, &ctx), "invoke");
      if (v.AsInt() != want) Die(std::string("wrong UDF value from ") + d.udf);
    }
  }
  // Heap scan, page fetch and index lookup on the workload's table.
  const TableInfo* table =
      Must(db->catalog()->GetTable(w->ProbeTable()), "probe table");
  uint64_t rows = 0;
  for (int i = 0; i < 3; ++i) {
    SpanScope span(tracer, "probe.heap_scan");
    TableHeap heap(db->storage(), table->first_page);
    TableHeap::Iterator it = heap.Scan();
    uint64_t n = 0;
    while (Must(it.Next(), "scan").has_value()) ++n;
    if (i > 0 && n != rows) Die("heap scans disagree");
    rows = n;
  }
  for (int i = 0; i < 2'020; ++i) {
    SpanScope span(i >= 20 ? tracer : nullptr, "probe.fetch_page");
    Must(db->storage()->buffer_pool()->FetchPage(table->first_page), "fetch");
  }
  std::vector<const IndexInfo*> indexes =
      db->catalog()->IndexesForTable(w->ProbeTable());
  if (indexes.empty()) {
    // Workloads without an index get one here, after their timed phase.
    SpanScope span(tracer, "probe.index_build");
    s->Exec("CREATE INDEX probe_id ON " + w->ProbeTable() + " (id)");
    indexes = db->catalog()->IndexesForTable(w->ProbeTable());
  }
  BTree tree(db->storage(), indexes.at(0)->root);
  Random rng(12345);
  const uint64_t ids = rows - 64;  // the workload's ids are 0 .. ids-1
  for (int i = 0; i < 1'000; ++i) {
    Value key = Value::Int(static_cast<int64_t>(rng.Uniform(ids)));
    SpanScope span(tracer, "probe.index_lookup");
    std::vector<RecordId> rids = Must(tree.SearchEqual(key), "btree lookup");
    if (rids.size() != 1) {
      Die("btree lookup found " + std::to_string(rids.size()) + " rows");
    }
  }
  return writes;
}

/// Traced run: the statement list with spans on every other cycle, then the
/// module probes.
int RunTraced(Workload* w, const Args& args) {
  // At least one traced and one untraced cycle.
  w->MakeInputs(args.seed,
                std::max<int64_t>(NumStatements(*w, args.seconds),
                                  2 * static_cast<int64_t>(w->CycleLength())));
  Session s;
  s.path = args.data_dir + "/" + w->name() + ".db";
  s.options = w->Options();
  uint64_t user_bytes = 0;
  Tracer tracer;
  obs::MetricsRegistry* registry = obs::MetricsRegistry::Global();
  const obs::MetricsSnapshot registry_before = registry->Snapshot();
  Setup(w, &s, &tracer, &user_bytes);
  PhaseResult ph = RunTimed(w, &s, &tracer);
  bool post_ok = w->PostCheck(&s);
  const ProbeWrites probe = RunProbes(w, &s, &tracer);
  const obs::MetricsSnapshot registry_after = registry->Snapshot();
  s.Close();
  RemoveDbFiles(s.path);
  std::string trace_file = std::string("trace-") + w->name() + ".json";
  tracer.WriteJson(args.data_dir + "/" + trace_file);

  const obs::MetricsSnapshot& rd = ph.read_delta;
  const obs::MetricsSnapshot& wd = ph.write_delta;
  obs::MetricsSnapshot all = rd;
  Accumulate(&all, wd);
  // Every write the run made: the timed phase's and the write probe's.
  obs::MetricsSnapshot writes = wd;
  Accumulate(&writes, probe.delta);
  const double n_all_writes = ph.write_ms.size() + probe.count;
  const double n_reads = static_cast<double>(ph.read_ms.size());
  const double n_writes = static_cast<double>(ph.write_ms.size());
  const double n_stmts = n_reads + n_writes;
  auto fetches = [](const obs::MetricsSnapshot& m) {
    return static_cast<double>(Get(m, "storage.bufferpool.hits") +
                               Get(m, "storage.bufferpool.misses"));
  };
  double invocations = 0, isolated = 0, busy_ns = 0;
  for (const Design& d : kDesigns) {
    std::string pre = std::string("udf.") + d.metric + ".";
    invocations += Get(all, pre + "invocations");
    busy_ns += Get(all, pre + "latency_ns.sum");
    if (d.language == UdfLanguage::kNativeIsolated ||
        d.language == UdfLanguage::kJJavaIsolated) {
      isolated += Get(all, pre + "invocations");
    }
  }
  const double jni = Get(all, "udf.jni.invocations");
  std::vector<double> traced_rates, base_rates;
  for (size_t c = 0; c < ph.rate.size(); ++c) {
    (c % 2 == 1 ? traced_rates : base_rates).push_back(ph.rate[c]);
  }
  const double traced_rate = Median(traced_rates);
  const double base_rate = Median(base_rates);
  auto p50 = [&](const char* span, double unit_ns) {
    return Median(tracer.Durations(span, unit_ns));
  };
  std::vector<double> index_build = tracer.Durations("probe.index_build", 1e9);
  if (index_build.empty()) index_build = tracer.Durations("setup.index", 1e9);
  Metrics m = {
      {"net.ping_us", p50("probe.ping", 1e3), "us"},
      {"net.overhead_us",
       Median(tracer.PairedDifferences("probe.client.execute",
                                       "probe.engine.read", 1e3)),
       "us"},
      {"sql.parse_us", p50("sql.parse", 1e3), "us"},
      {"obs.snapshot_us", p50("obs.snapshot", 1e3), "us"},
      {"engine.execute_ms.read", p50("probe.engine.read", 1e6), "ms"},
      {"engine.execute_ms.write", p50("probe.engine.write", 1e6), "ms"},
      {"exec.rows_examined_per_row",
       Ratio(Get(all, "exec.seqscan.tuples") +
                 Get(all, "exec.parallel.tuples") +
                 Get(all, "exec.index.lookups"),
             ph.rows_returned),
       "ratio"},
      {"exec.morsels_per_stmt",
       Ratio(Get(all, "exec.parallel.morsels"), n_stmts), "count"},
      {"storage.fetches_per_stmt.read", Ratio(fetches(rd), n_reads), "count"},
      {"storage.fetches_per_stmt.write", Ratio(fetches(writes), n_all_writes),
       "count"},
      {"storage.hit_ratio",
       Ratio(Get(all, "storage.bufferpool.hits"), fetches(all)), "ratio"},
      {"storage.evictions_per_stmt",
       Ratio(Get(all, "storage.bufferpool.evictions"), n_stmts), "count"},
      {"storage.readahead_useful_ratio",
       Ratio(Get(all, "storage.bufferpool.readahead.hits"),
             Get(all, "storage.bufferpool.readahead.issued")),
       "ratio"},
      {"storage.scan_ms", p50("probe.heap_scan", 1e6), "ms"},
      {"storage.fetch_hit_ns", p50("probe.fetch_page", 1), "ns"},
      {"wal.bytes_per_user_byte",
       Ratio(Get(writes, "wal.bytes"), ph.user_bytes + probe.user_bytes),
       "ratio"},
      {"wal.fsyncs_per_write", Ratio(Get(writes, "wal.fsyncs"), n_all_writes),
       "count"},
      {"wal.checkpoints", static_cast<double>(Get(writes, "wal.checkpoints")),
       "count"},
      {"index.lookup_us", p50("probe.index_lookup", 1e3), "us"},
      {"index.build_s", Median(index_build), "s"},
      {"udf.invoke_us.cpp", p50("udf.invoke.cpp", 1e3), "us"},
      {"udf.invoke_us.icpp", p50("udf.invoke.icpp", 1e3), "us"},
      {"udf.invoke_us.jni", p50("udf.invoke.jni", 1e3), "us"},
      {"udf.invoke_us.ijni", p50("udf.invoke.ijni", 1e3), "us"},
      {"udf.busy_ms_per_stmt", Ratio(busy_ns / 1e6, n_stmts), "ms"},
      {"udf.crossings_per_invocation",
       Ratio(Get(all, "jvm.boundary.crossings") + Get(all, "udf.pool.acquires"),
             invocations),
       "ratio"},
      {"udf.invocations_per_row", Ratio(invocations, ph.rows_returned),
       "ratio"},
      {"ipc.frames_per_invocation",
       Ratio(Get(all, "ipc.shm.messages"), isolated), "ratio"},
      {"ipc.bytes_per_invocation",
       Ratio(Get(all, "ipc.shm.payload_bytes"), isolated), "ratio"},
      {"ipc.parks_per_frame",
       Ratio(Get(all, "ipc.ring.parks"), Get(all, "ipc.ring.frames")), "ratio"},
      {"jvm.jit.compile_ms",
       (Get(registry_after, "jvm.jit.compile_ns.sum") -
        Get(registry_before, "jvm.jit.compile_ns.sum")) /
           1e6,
       "ms"},
      {"jvm.interp.bytecodes",
       static_cast<double>(Get(all, "jvm.interp.bytecodes")), "count"},
      {"jvm.heap.bytes_per_invocation",
       Ratio(Get(all, "jvm.heap.alloc_bytes"), jni), "ratio"},
      {"trace.overhead_pct", (Ratio(base_rate, traced_rate) - 1) * 100, "%"},
  };
  std::printf("workload %s seed %" PRIu64 ": %" PRId64
              " statements in %.3f s, odd cycles traced; spans in %s\n",
              w->name(), args.seed, ph.attempted, ph.wall_s,
              trace_file.c_str());
  PrintTable("per-layer (traced)", m,
             {{"trace.overhead_pct",
               StringPrintf("traced %.2f vs untraced %.2f stmt/s "
                            "(cycle medians)",
                            traced_rate, base_rate)}});
  PrintResult(ph.failed == 0 && post_ok, ph.attempted, ph.failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace jaguar

namespace jaguar {
namespace perfbench {
namespace {

/// Proves the result checks catch a wrong expected value: a short run of
/// every workload must pass its checks, and the same results must all fail
/// once the workload's expectations are corrupted.
int SelfTest(const Args& args) {
  bool ok = true;
  for (const char* name : {"udf_scan", "point_rw", "analytics"}) {
    std::unique_ptr<Workload> w = MakeWorkload(name);
    w->MakeInputs(args.seed, static_cast<int64_t>(w->CycleLength()));
    Session s;
    s.path = args.data_dir + "/selftest-" + name + ".db";
    s.options = w->Options();
    uint64_t user_bytes = 0;
    Setup(w.get(), &s, nullptr, &user_bytes);
    std::vector<std::pair<const Stmt*, QueryResult>> results;
    int passed = 0;
    for (const Stmt& st : w->stmts()) {
      QueryResult r = s.Exec(st.sql);
      passed += w->Check(st, r);
      results.emplace_back(&st, std::move(r));
    }
    bool post_ok = w->PostCheck(&s);
    w->Corrupt();
    int caught = 0, reads = 0;
    for (const auto& [st, r] : results) {
      if (st->write) continue;  // INSERT acks carry no expected value
      ++reads;
      caught += !w->Check(*st, r);
    }
    bool post_caught = dynamic_cast<PointRw*>(w.get()) == nullptr ||
                       !w->PostCheck(&s);
    s.Close();
    RemoveDbFiles(s.path);
    bool pass = passed == static_cast<int>(results.size()) && post_ok &&
                caught == reads && reads > 0 && post_caught;
    std::printf("self-test %-10s %s: %d/%zu checks pass, %d/%d corrupted "
                "expectations caught%s\n",
                name, pass ? "PASS" : "FAIL", passed, results.size(), caught,
                reads, post_caught ? "" : ", corrupted reopen check missed");
    ok = ok && pass;
  }
  return ok ? 0 : 1;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = next();
    } else if (k == "--seed") {
      a.seed = std::stoull(next());
    } else if (k == "--seconds") {
      a.seconds = std::stoi(next());
    } else if (k == "--trace") {
      a.trace = next() == "1";
    } else if (k == "--data-dir") {
      a.data_dir = next();
    } else if (k == "--self-test") {
      a.self_test = true;
    } else {
      Die("unknown argument " + k);
    }
  }
  if (a.data_dir.empty()) Die("--data-dir is required");
  if (a.seconds < 1) Die("--seconds must be >= 1");
  return a;
}

}  // namespace
}  // namespace perfbench
}  // namespace jaguar

int main(int argc, char** argv) {
  using namespace jaguar::perfbench;
  Args args = ParseArgs(argc, argv);
  std::filesystem::create_directories(args.data_dir);
  if (args.self_test) return SelfTest(args);
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) Die("unknown workload '" + args.workload + "'");
  return args.trace ? RunTraced(w.get(), args) : RunEndToEnd(w.get(), args);
}
