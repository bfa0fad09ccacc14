// Tests for the src/obs metrics layer: registry registration/lookup, counter
// concurrency, histogram bucket/percentile math, snapshot-delta semantics,
// prefix filtering — plus the end-to-end acceptance path: a query invoking a
// JNI-design UDF 10,000 times is fully observable through both SHOW METRICS
// and the QueryResult metrics delta.

#include "obs/metrics.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "engine/database.h"
#include "jjc/jjc.h"
#include "udf/generic_udf.h"
#include "udf/udf.h"

namespace jaguar {
namespace {

using obs::Counter;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

// Metric names in these tests are namespaced under "test.obs." so they never
// collide with the real instrumentation (the registry is process-global and
// shared with every other test in this binary).

TEST(MetricsRegistryTest, CounterRegistrationAndLookup) {
  MetricsRegistry* reg = MetricsRegistry::Global();
  Counter* a = reg->GetCounter("test.obs.reg.a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reg->GetCounter("test.obs.reg.a"), a);  // stable pointer
  EXPECT_NE(reg->GetCounter("test.obs.reg.b"), a);

  a->Add();
  a->Add(41);
  EXPECT_EQ(a->value(), 42u);
}

TEST(MetricsRegistryTest, NameHoldsOneKindOnly) {
  MetricsRegistry* reg = MetricsRegistry::Global();
  ASSERT_NE(reg->GetCounter("test.obs.kind.counter"), nullptr);
  EXPECT_EQ(reg->GetHistogram("test.obs.kind.counter"), nullptr);
  ASSERT_NE(reg->GetHistogram("test.obs.kind.hist"), nullptr);
  EXPECT_EQ(reg->GetCounter("test.obs.kind.hist"), nullptr);
}

TEST(MetricsRegistryTest, CounterConcurrencySumsExactly) {
  Counter* c = MetricsRegistry::Global()->GetCounter("test.obs.concurrent");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kIncrements; ++i) c->Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket index == bit width: bucket 0 holds only 0, bucket i holds
  // [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 4);
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 62), 63);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<uint64_t>::max()), 63);

  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(63),
            std::numeric_limits<uint64_t>::max());

  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(3);
  h.Record(8);
  std::vector<uint64_t> buckets = h.BucketCounts();
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[4], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 12u);
  EXPECT_DOUBLE_EQ(h.Mean(), 3.0);
}

TEST(HistogramTest, PercentileMath) {
  Histogram empty;
  EXPECT_EQ(empty.ValueAtPercentile(50), 0u);

  Histogram single;
  single.Record(5);
  // One sample in bucket 3 ([4,7]); every percentile answers that bucket's
  // upper bound.
  EXPECT_EQ(single.ValueAtPercentile(0), 7u);
  EXPECT_EQ(single.ValueAtPercentile(50), 7u);
  EXPECT_EQ(single.ValueAtPercentile(100), 7u);

  // 1..100 once each: cumulative bucket counts are 1,3,7,15,31,63,100.
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.ValueAtPercentile(1), 1u);     // rank 1 -> bucket 1
  EXPECT_EQ(h.ValueAtPercentile(25), 31u);   // rank 25 -> bucket 5 [16,31]
  EXPECT_EQ(h.ValueAtPercentile(50), 63u);   // rank 50 -> bucket 6 [32,63]
  EXPECT_EQ(h.ValueAtPercentile(100), 127u);  // rank 100 -> bucket 7 [64,127]
  // The approximation never undershoots the true percentile and stays
  // within one power of two above it.
  for (double p : {10.0, 30.0, 60.0, 90.0, 99.0}) {
    uint64_t truth = static_cast<uint64_t>(p);  // value v has rank v here
    EXPECT_GE(h.ValueAtPercentile(p), truth);
    EXPECT_LT(h.ValueAtPercentile(p), truth * 2 + 2);
  }
}

TEST(MetricsRegistryTest, TimerRecordsIntoHistogram) {
  Histogram* h = MetricsRegistry::Global()->GetHistogram("test.obs.timer");
  { obs::Timer t(h); }
  EXPECT_EQ(h->count(), 1u);
  { obs::Timer t(nullptr); }  // null histogram: no-op, must not crash
  EXPECT_EQ(h->count(), 1u);
}

TEST(MetricsRegistryTest, SnapshotDeltaSemantics) {
  MetricsRegistry* reg = MetricsRegistry::Global();
  Counter* changed = reg->GetCounter("test.obs.delta.changed");
  reg->GetCounter("test.obs.delta.idle");
  Histogram* hist = reg->GetHistogram("test.obs.delta.hist");

  MetricsSnapshot before = reg->Snapshot("test.obs.delta.");
  changed->Add(7);
  hist->Record(100);
  Counter* late = reg->GetCounter("test.obs.delta.late");  // born after
  late->Add(2);
  MetricsSnapshot after = reg->Snapshot("test.obs.delta.");

  MetricsSnapshot delta = obs::SnapshotDelta(before, after);
  EXPECT_EQ(delta.at("test.obs.delta.changed"), 7u);
  EXPECT_EQ(delta.at("test.obs.delta.hist.count"), 1u);
  EXPECT_EQ(delta.at("test.obs.delta.hist.sum"), 100u);
  // Metrics registered after `before` count from zero.
  EXPECT_EQ(delta.at("test.obs.delta.late"), 2u);
  // Unchanged metrics are dropped.
  EXPECT_EQ(delta.count("test.obs.delta.idle"), 0u);
}

TEST(MetricsRegistryTest, PrefixFiltering) {
  MetricsRegistry* reg = MetricsRegistry::Global();
  reg->GetCounter("test.obs.like.alpha")->Add();
  reg->GetCounter("test.obs.like.beta")->Add();
  reg->GetCounter("test.obs.unlike.gamma")->Add();

  MetricsSnapshot snap = reg->Snapshot("test.obs.like.");
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.count("test.obs.like.alpha"), 1u);
  EXPECT_EQ(snap.count("test.obs.unlike.gamma"), 0u);

  std::string text = reg->DumpText("test.obs.like.");
  EXPECT_NE(text.find("test.obs.like.alpha"), std::string::npos);
  EXPECT_EQ(text.find("test.obs.unlike.gamma"), std::string::npos);

  std::string json = reg->DumpJson("test.obs.like.");
  EXPECT_NE(json.find("\"test.obs.like.beta\":"), std::string::npos);
  EXPECT_EQ(json.find("gamma"), std::string::npos);

  auto rows = reg->Rows("test.obs.like.");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, "test.obs.like.alpha");
  EXPECT_EQ(rows[0].second, "1");
}

TEST(MetricsRegistryTest, DesignMetricKeyMapping) {
  EXPECT_EQ(UdfRunner::DesignMetricKey("C++"), "cpp");
  EXPECT_EQ(UdfRunner::DesignMetricKey("IC++"), "icpp");
  EXPECT_EQ(UdfRunner::DesignMetricKey("JNI"), "jni");
  EXPECT_EQ(UdfRunner::DesignMetricKey("IJNI"), "ijni");
  EXPECT_EQ(UdfRunner::DesignMetricKey("SFI-C++"), "sfi_cpp");
}

// ---------------------------------------------------------------------------
// End-to-end: SHOW METRICS + QueryResult delta over a real JNI workload
// ---------------------------------------------------------------------------

class MetricsE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("jaguar_obs_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".db"))
                .string();
    std::remove(path_.c_str());
    db_ = Database::Open(path_).value();
  }
  void TearDown() override {
    db_.reset();
    std::remove(path_.c_str());
  }

  QueryResult MustExecute(const std::string& sql) {
    Result<QueryResult> r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  /// Finds a metric row by exact name in a SHOW METRICS result; returns its
  /// value parsed as an integer (-1 if absent).
  static int64_t MetricRow(const QueryResult& result,
                           const std::string& name) {
    for (const Tuple& row : result.rows) {
      if (row.value(0).AsString() == name) {
        return atoll(row.value(1).AsString().c_str());
      }
    }
    return -1;
  }

  std::string path_;
  std::unique_ptr<Database> db_;
};

TEST_F(MetricsE2eTest, JniWorkloadIsObservableThreeWays) {
  // The acceptance workload: a JNI-design UDF invoked exactly 10,000 times.
  constexpr int kRows = 10000;
  MustExecute("CREATE TABLE r (id INT, b BYTEARRAY)");
  for (int base = 0; base < kRows; base += 500) {
    std::string sql = "INSERT INTO r VALUES ";
    for (int i = 0; i < 500; ++i) {
      if (i > 0) sql += ", ";
      sql += StringPrintf("(%d, randbytes(4, %d))", base + i, base + i);
    }
    MustExecute(sql);
  }

  UdfInfo info;
  info.name = "g_jni";
  info.language = UdfLanguage::kJJava;
  info.return_type = TypeId::kInt;
  info.arg_types = {TypeId::kBytes, TypeId::kInt, TypeId::kInt, TypeId::kInt};
  info.impl_name = "GenericUdf.run";
  info.payload = jjc::Compile(GenericUdfJJavaSource()).value().Serialize();
  ASSERT_TRUE(db_->RegisterUdf(info).ok());

  obs::MetricsSnapshot before = MetricsRegistry::Global()->Snapshot("udf.jni.");

  QueryResult r = MustExecute("SELECT g_jni(b, 10, 10, 0) FROM r");
  ASSERT_EQ(r.rows.size(), static_cast<size_t>(kRows));

  // Way 1: programmatic per-query snapshot delta in the QueryResult.
  EXPECT_EQ(r.metrics_delta.at("udf.jni.invocations"), 10000u);
  EXPECT_EQ(r.metrics_delta.at("udf.jni.latency_ns.count"), 10000u);
  EXPECT_GT(r.metrics_delta.at("udf.jni.latency_ns.sum"), 0u);
  EXPECT_GT(r.metrics_delta.at("udf.jni.arg_bytes"), 0u);
  EXPECT_GE(r.metrics_delta.at("jvm.jit.compiled_methods"), 1u);
  EXPECT_GT(r.metrics_delta.at("jvm.heap.allocations"), 0u);

  // Way 2: the raw registry (what DumpText/DumpJson serve). `before` may
  // predate the udf.jni.* counters entirely (they are born on first use), so
  // compare via SnapshotDelta, which treats absent-before as zero.
  obs::MetricsSnapshot registry_delta = obs::SnapshotDelta(
      before, MetricsRegistry::Global()->Snapshot("udf.jni."));
  EXPECT_EQ(registry_delta.at("udf.jni.invocations"), 10000u);

  // Way 3: SHOW METRICS through the SQL front door.
  QueryResult shown = MustExecute("SHOW METRICS LIKE 'udf.jni.'");
  ASSERT_EQ(shown.schema.num_columns(), 2u);
  EXPECT_GE(MetricRow(shown, "udf.jni.invocations"), 10000);
  EXPECT_GE(MetricRow(shown, "udf.jni.latency_ns.count"), 10000);
  EXPECT_GT(MetricRow(shown, "udf.jni.latency_ns.p50"), 0);
  // The LIKE filter really filters.
  EXPECT_EQ(MetricRow(shown, "jvm.jit.compiled_methods"), -1);

  QueryResult jit = MustExecute("SHOW METRICS LIKE 'jvm.jit.'");
  EXPECT_GE(MetricRow(jit, "jvm.jit.compiled_methods"), 1);

  QueryResult all = MustExecute("SHOW METRICS");
  EXPECT_GT(all.rows.size(), shown.rows.size());
}

TEST_F(MetricsE2eTest, ShowMetricsParseErrors) {
  EXPECT_FALSE(db_->Execute("SHOW METRICS LIKE udf").ok());  // unquoted
  EXPECT_FALSE(db_->Execute("SHOW TABLES").ok());
  EXPECT_FALSE(db_->Execute("SHOW METRICS 'x'").ok());  // trailing junk
}

TEST_F(MetricsE2eTest, DmlStatementsCarryDeltas) {
  MustExecute("CREATE TABLE t (x INT)");
  QueryResult ins = MustExecute("INSERT INTO t VALUES (1), (2), (3)");
  // Storage-layer activity shows up in the DML delta (page writes hit the
  // buffer pool at minimum).
  bool saw_storage = false;
  for (const auto& [name, value] : ins.metrics_delta) {
    if (name.rfind("storage.bufferpool.", 0) == 0 && value > 0) {
      saw_storage = true;
    }
  }
  EXPECT_TRUE(saw_storage);

  QueryResult sel = MustExecute("SELECT x FROM t");
  EXPECT_EQ(sel.metrics_delta.at("exec.seqscan.tuples"), 3u);
  EXPECT_EQ(sel.metrics_delta.at("exec.project.tuples"), 3u);
}

TEST_F(MetricsE2eTest, RepeatedScanCarriesIdenticalStorageDelta) {
  // The pool runs no threads of its own, so a statement's storage counters
  // are its own fetches only: the same serial scan over a table larger than
  // the pool reports the same hits, misses and evictions every time.
  db_.reset();
  DatabaseOptions options;
  options.buffer_pool_pages = 8;
  options.num_workers = 1;
  db_ = Database::Open(path_, options).value();
  MustExecute("CREATE TABLE big (id INT, b BYTEARRAY)");
  std::string insert = "INSERT INTO big VALUES ";
  for (int i = 0; i < 200; ++i) {
    if (i > 0) insert += ", ";
    insert += StringPrintf("(%d, randbytes(1000, %d))", i, i);
  }
  MustExecute(insert);
  const std::string scan = "SELECT id, length(b) FROM big";
  MustExecute(scan);  // settles the pool after the load's dirty pages

  auto storage = [](const QueryResult& r) {
    std::vector<uint64_t> counts;
    for (const char* name :
         {"storage.bufferpool.hits", "storage.bufferpool.misses",
          "storage.bufferpool.evictions"}) {
      auto it = r.metrics_delta.find(name);
      counts.push_back(it != r.metrics_delta.end() ? it->second : 0);
    }
    return counts;
  };
  QueryResult first = MustExecute(scan);
  QueryResult second = MustExecute(scan);
  ASSERT_EQ(first.rows.size(), 200u);
  const std::vector<uint64_t> counts = storage(first);
  EXPECT_GT(counts[1], 0u);  // the table does not fit: the scan misses
  EXPECT_GT(counts[2], 0u);  // ... and evicts
  EXPECT_EQ(counts, storage(second));
}

}  // namespace
}  // namespace jaguar
