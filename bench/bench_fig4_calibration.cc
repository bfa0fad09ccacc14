// Figure 4 — Calibration: Table Access Costs.
//
// The paper's first calibration: run the experiment query with a trivial
// integrated C++ UDF that does no work, varying the number of UDF
// invocations along the X axis, one line per relation (Rel1, Rel100,
// Rel10000). These are the base system costs (scan + predicate + projection)
// that later figures subtract to isolate UDF effects.
//
// The scan checks `R.id < k` on a record's leading columns, read from the
// first page of a Rel10000 record's overflow chain, before it reads the
// rest; a row that fails it never has its second overflow page read.
// Rel10000's base cost therefore rises with k, up to a full read of every
// chain at k = 10000, the row the shape checks compare.

#include "bench/harness.h"

namespace jaguar {
namespace bench {
namespace {

int Run() {
  const int card = 10000;  // the paper cardinality in every mode
  PrintHeader("Figure 4 - Calibration: table access costs",
              "Query: SELECT noop_udf(R.ByteArray,0,0,0) FROM RelN R "
              "WHERE R.id < k   (trivial integrated C++ UDF)");
  auto env = BenchEnv::Create(PaperRelations(), card);

  std::vector<int64_t> ks = {1, 10, 100, 1000, card};
  std::vector<std::string> rels = {"Rel1", "Rel100", "Rel10000"};

  PrintSeriesHeader("# calls", rels);
  std::vector<std::vector<double>> times(ks.size());
  for (size_t i = 0; i < ks.size(); ++i) {
    for (const std::string& rel : rels) {
      times[i].push_back(env->TimeGeneric("noop_udf", rel, ks[i], 0, 0, 0,
                                          /*repeats=*/3));
    }
    PrintSeriesRow(ks[i], times[i]);
  }

  std::printf("\nShape checks (vs the paper):\n");
  bool ok = true;
  // The query always scans the whole relation; with every row passing
  // (k = 10000) cost is dominated by the scan and grows with tuple size,
  // while extra no-op invocations are cheap.
  ok &= ShapeCheck(times.back()[2] > times.back()[0],
                   "scanning Rel10000 costs more than Rel1 (larger tuples)");
  ok &= ShapeCheck(times.back()[0] >= times[0][0] * 0.5,
                   "base cost is scan-dominated (invocation count is minor "
                   "for a no-op UDF)");
  ok &= ShapeCheck(times.back()[2] < 30.0,
                   "full-table access completes in interactive time");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace jaguar

int main() { return jaguar::bench::Run(); }
