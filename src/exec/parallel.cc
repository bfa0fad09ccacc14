#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "storage/table_heap.h"

namespace jaguar {
namespace exec {

namespace {

/// Bumps a per-query counter (looked up per query, never per tuple).
void Count(const std::string& name, uint64_t n = 1) {
  obs::MetricsRegistry::Global()->GetCounter(name)->Add(n);
}

/// Page-chain split shared by every morsel-driven plan shape.
struct MorselPlan {
  std::vector<PageId> pages;
  size_t morsel_pages = 1;
  size_t num_morsels = 0;
  size_t num_workers = 1;
};

Result<MorselPlan> PlanMorsels(const MorselScanSpec& spec) {
  MorselPlan plan;
  plan.morsel_pages = spec.morsel_pages > 0 ? spec.morsel_pages : 1;
  TableHeap heap(spec.engine, spec.first_page);
  JAGUAR_ASSIGN_OR_RETURN(plan.pages, heap.ListPages());
  plan.num_morsels =
      (plan.pages.size() + plan.morsel_pages - 1) / plan.morsel_pages;
  plan.num_workers = std::max<size_t>(
      1, std::min(spec.num_workers, std::max<size_t>(1, plan.num_morsels)));
  return plan;
}

/// Morsel `m`: pages [page_begin, page_end) of the chain, run with the
/// worker's private cursor and UDF context.
struct Morsel {
  size_t m;
  size_t page_begin;
  size_t page_end;
  TableHeap* heap;
  UdfContext* ctx;
};

/// Launches workers pulling morsel indices from an atomic dispenser and
/// running `fn` on each. First error wins and cancels remaining morsels.
Status DriveMorsels(const MorselScanSpec& spec, const MorselPlan& plan,
                    const std::function<Status(const Morsel&)>& fn) {
  Count("exec.parallel.queries");
  Count("exec.parallel.workers", plan.num_workers);
  Count("exec.parallel.morsels", plan.num_morsels);

  std::atomic<size_t> dispenser{0};
  std::atomic<bool> stop{false};
  std::mutex error_mutex;
  Status first_error;

  auto worker = [&] {
    // Per-worker cursor and callback context; everything else the worker
    // touches (buffer pool, runners, metrics) is shared and thread-safe.
    TableHeap worker_heap(spec.engine, spec.first_page);
    UdfContext ctx(spec.callback_handler);
    ctx.set_callback_quota(spec.callback_quota);
    ctx.set_deadline(spec.deadline);
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t m = dispenser.fetch_add(1, std::memory_order_relaxed);
      if (m >= plan.num_morsels) break;
      const size_t page_begin = m * plan.morsel_pages;
      const size_t page_end =
          std::min(plan.pages.size(), page_begin + plan.morsel_pages);
      Status s = fn(Morsel{m, page_begin, page_end, &worker_heap, &ctx});
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error.ok()) first_error = std::move(s);
        stop.store(true, std::memory_order_relaxed);
        break;
      }
    }
  };

  if (plan.num_workers == 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(plan.num_workers);
    for (size_t w = 0; w < plan.num_workers; ++w) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }
  return first_error;
}

/// Scans one morsel a window of `batch_size` records at a time: the prefix
/// drops records as they are read, the predicate runs on each window's
/// survivors (UDFs cross once per batch), and `on_batch` gets the rest.
/// exec.parallel.tuples counts every record examined, dropped ones too (the
/// exec.seqscan.tuples definition), once per window.
Status ScanMorselBatches(
    const MorselScanSpec& spec, const MorselPlan& plan, const Morsel& morsel,
    const std::function<Status(std::vector<Tuple>*)>& on_batch) {
  static obs::Counter* examined =
      obs::MetricsRegistry::Global()->GetCounter("exec.parallel.tuples");
  const size_t batch_cap = spec.batch_size > 0 ? spec.batch_size : 1;
  std::vector<Tuple> batch;
  batch.reserve(batch_cap);
  size_t window = 0;  // records read since the last flush, dropped ones too
  auto flush = [&]() -> Status {
    if (window == 0) return Status::OK();
    examined->Add(window);
    window = 0;
    // Per-batch cancellation point: an expired deadline stops this worker
    // before the next round of (potentially expensive) UDF evaluation.
    JAGUAR_RETURN_IF_ERROR(CheckDeadline(spec.deadline));
    if (spec.predicate != nullptr && !batch.empty()) {
      JAGUAR_RETURN_IF_ERROR(FilterBatch(*spec.predicate, &batch, morsel.ctx));
    }
    if (batch.empty()) return Status::OK();
    Status s = on_batch(&batch);
    batch.clear();
    return s;
  };
  for (size_t p = morsel.page_begin; p < morsel.page_end; ++p) {
    TableHeap::Iterator it = morsel.heap->ScanPage(plan.pages[p]);
    std::optional<Tuple> row;
    while (true) {
      JAGUAR_ASSIGN_OR_RETURN(auto rec, ScanRecord(&it, spec.prefix, &row));
      if (rec == nullptr) break;
      if (row.has_value()) batch.push_back(std::move(*row));
      if (++window >= batch_cap) JAGUAR_RETURN_IF_ERROR(flush());
    }
  }
  return flush();
}

}  // namespace

Result<std::vector<Tuple>> RunParallelScan(const ParallelScanSpec& spec) {
  if (spec.engine == nullptr || spec.out_exprs == nullptr) {
    return InvalidArgument("parallel scan spec is missing engine or exprs");
  }
  JAGUAR_ASSIGN_OR_RETURN(MorselPlan plan, PlanMorsels(spec));

  // One result slot per morsel: merging in morsel index order reproduces
  // the serial scan order exactly, whichever worker ran which morsel.
  std::vector<std::vector<Tuple>> morsel_results(plan.num_morsels);
  JAGUAR_RETURN_IF_ERROR(DriveMorsels(spec, plan, [&](const Morsel& morsel) {
    std::vector<Tuple>* out = &morsel_results[morsel.m];
    return ScanMorselBatches(
        spec, plan, morsel, [&](std::vector<Tuple>* survivors) -> Status {
          JAGUAR_ASSIGN_OR_RETURN(
              std::vector<Tuple> rows,
              ProjectBatch(*spec.out_exprs, *survivors, morsel.ctx));
          out->insert(out->end(), std::make_move_iterator(rows.begin()),
                      std::make_move_iterator(rows.end()));
          return Status::OK();
        });
  }));

  std::vector<Tuple> rows;
  for (std::vector<Tuple>& chunk : morsel_results) {
    for (Tuple& t : chunk) {
      if (spec.limit >= 0 && rows.size() >= static_cast<size_t>(spec.limit)) {
        break;
      }
      rows.push_back(std::move(t));
    }
  }
  return rows;
}

Result<std::vector<Tuple>> RunParallelAggregate(
    const ParallelAggregateSpec& spec) {
  if (spec.engine == nullptr || spec.plan == nullptr) {
    return InvalidArgument("parallel aggregate spec is missing engine or plan");
  }
  JAGUAR_ASSIGN_OR_RETURN(MorselPlan plan, PlanMorsels(spec));
  Count("exec.agg.queries");
  Count("exec.agg.parallel_queries");

  // One partial aggregator per morsel. Merging the partials in morsel
  // index order keeps min/max tie-breaks and float-sum addition order
  // deterministic regardless of worker scheduling.
  std::vector<std::unique_ptr<HashAggregator>> partials(plan.num_morsels);
  JAGUAR_RETURN_IF_ERROR(DriveMorsels(spec, plan, [&](const Morsel& morsel) {
    auto partial = std::make_unique<HashAggregator>(spec.plan);
    JAGUAR_RETURN_IF_ERROR(ScanMorselBatches(
        spec, plan, morsel, [&](std::vector<Tuple>* survivors) -> Status {
          return partial->ConsumeBatch(*survivors, morsel.ctx);
        }));
    partials[morsel.m] = std::move(partial);
    return Status::OK();
  }));

  HashAggregator merged(spec.plan);
  for (std::unique_ptr<HashAggregator>& partial : partials) {
    JAGUAR_RETURN_IF_ERROR(merged.MergeFrom(partial.get(), spec.deadline));
  }
  return merged.Finalize(spec.deadline);
}

Result<std::vector<Tuple>> RunParallelSort(const ParallelSortSpec& spec) {
  if (spec.engine == nullptr || spec.order_key == nullptr ||
      spec.out_exprs == nullptr) {
    return InvalidArgument("parallel sort spec is missing engine or exprs");
  }
  JAGUAR_ASSIGN_OR_RETURN(MorselPlan plan, PlanMorsels(spec));
  Count("exec.sort.queries");
  Count("exec.sort.parallel_queries");
  if (spec.limit >= 0) Count("exec.sort.topk_queries");

  // One sorted run per morsel (run id = morsel index, so tie-breaks match
  // serial scan order); each run is top-k-bounded when LIMIT is set.
  std::vector<std::vector<Sorter::Entry>> runs(plan.num_morsels);
  JAGUAR_RETURN_IF_ERROR(DriveMorsels(spec, plan, [&](const Morsel& morsel) {
    Sorter sorter(spec.descending, spec.limit, /*run_id=*/morsel.m);
    JAGUAR_RETURN_IF_ERROR(ScanMorselBatches(
        spec, plan, morsel, [&](std::vector<Tuple>* survivors) -> Status {
          return SortConsumeBatch(&sorter, *spec.order_key, *spec.out_exprs,
                                  *survivors, morsel.ctx);
        }));
    JAGUAR_RETURN_IF_ERROR(sorter.Finish());
    runs[morsel.m] = sorter.TakeEntries();
    return Status::OK();
  }));

  return Sorter::MergeRuns(std::move(runs), spec.descending, spec.limit,
                           spec.deadline);
}

}  // namespace exec
}  // namespace jaguar
