// Concurrent batched top-k query engine with graceful degradation.
//
// A QueryEngine wraps one shared, already-built, const top-k structure
// and answers batches of (predicate, k) requests on a fixed thread
// pool. Workers self-schedule requests off an atomic cursor (no
// per-task queue, so heterogeneous query costs balance automatically),
// write results into disjoint slots of the output vector, and charge
// all accounting to thread-local tallies; the only synchronization on
// the query path is the cursor's fetch_add. After the batch barrier the
// tallies are merged into an optional serve::Metrics registry.
//
// Two sources for the served structure (see the two constructors):
//   * static mode — a caller-owned const structure, pinned for the
//     engine's lifetime (the original contract);
//   * epoch mode — a serve::EpochManager whose writer republishes
//     mutated snapshots concurrently; each batch pins the then-current
//     epoch for its whole duration through the manager's lock-free
//     reader protocol (serve/epoch.h), so serving continues DURING
//     mutation with no reader-side lock anywhere on the query path.
//
// Robustness layer (see serve/result.h for the per-slot contract):
//   * Admission control — Options::max_batch bounds how many requests
//     of a batch are admitted; the tail beyond it is shed (kShed)
//     without ever touching the structure.
//   * Cancellation — Cancel() is cooperative: checked between requests
//     (remaining ones shed) and between the stages of cost-monitored
//     loops (the prefix so far is returned flagged kDegraded). The
//     flag clears when the batch finishes.
//   * Cost budgets — Request::cost_budget bounds the QueryStats work
//     units a request may consume. The request runs as a staged
//     doubling loop (core/budgeted_query.h), so exceeding the budget
//     yields a flagged, heaviest-first PREFIX of the true top-k —
//     bounded work, never wrong output.
//   * Deadlines — Request::deadline_ns is a wall-clock bound relative
//     to batch start, checked before the request and between stages
//     (kDeadlineExceeded, same prefix guarantee).
//
// Thread-safety contract: the structure must satisfy
// ShareableTopKStructure — const-queryable with no hidden mutable
// state. EM-backed structures fail that concept (their BufferPool is
// single-threaded mutable state) and are rejected at compile time.
// Results are bitwise-identical to single-threaded Query calls: the
// structures are deterministic at query time, so only the interleaving
// of *accounting* differs — and QueryStats addition is commutative.

#ifndef TOPK_SERVE_ENGINE_H_
#define TOPK_SERVE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "core/budgeted_query.h"
#include "parallel/context.h"
#include "serve/epoch.h"
#include "serve/histogram.h"
#include "serve/metrics.h"
#include "serve/result.h"
#include "serve/shareable.h"
#include "serve/thread_pool.h"
#include "trace/chrome_json.h"
#include "trace/tracer.h"

namespace topk::serve {

// One top-k request. Keyed by the predicate type, not the engine, so a
// batch can be replayed against every structure of the same problem.
template <typename Predicate>
struct Request {
  Predicate predicate;
  size_t k = 1;
  // Degradation knobs; 0 disables either. cost_budget is in QueryStats
  // work units (QueryStats::work); deadline_ns is wall-clock time from
  // batch start. A request with neither runs the plain single Query.
  uint64_t cost_budget = 0;
  uint64_t deadline_ns = 0;
};

template <ShareableTopKStructure Structure>
class QueryEngine {
 public:
  using Element = typename Structure::Element;
  using Predicate = typename Structure::Predicate;
  using Request = serve::Request<Predicate>;
  using Result = QueryResult<Element>;

  struct Options {
    size_t num_threads = 1;
    // Admission control: at most this many requests of a batch are
    // served; the rest are shed. 0 = unbounded.
    size_t max_batch = 0;
    // Tracing: event capacity of each per-thread trace::Tracer (one per
    // worker plus one for the coordinator). 0 = tracing off — every
    // call site passes a null tracer, the one-branch disabled path.
    size_t trace_capacity = 0;
    // Slow-query log: requests whose serving latency is >= this land in
    // the MetricsSnapshot slow-query log (bounded, top-by-latency; see
    // serve/metrics.h). 0 = off.
    uint64_t slow_query_ns = 0;
    // Intra-query parallelism: each request worker owns a
    // parallel::Context with this many shards, threaded into the
    // structure's QueryInto so degenerate monitored fetches run the
    // sharded flat kernel (see DESIGN.md "intra-query parallelism
    // contract"). 0 or 1 = serial (no contexts built). Values > 1 are
    // clamped so num_threads * intra_query_workers does not exceed the
    // hardware concurrency (no oversubscription) unless
    // unclamped_intra_query_workers is set.
    size_t intra_query_workers = 1;
    // Escape hatch for deterministic tests/benchmarks on small
    // machines: take intra_query_workers literally, skipping the
    // hardware clamp.
    bool unclamped_intra_query_workers = false;
  };

  // `structure` must outlive the engine. `metrics` may be null (no
  // registry) or shared between engines; it must outlive the engine.
  QueryEngine(const Structure* structure, const Options& options,
              Metrics* metrics = nullptr)
      : structure_(structure), metrics_(metrics), max_batch_(options.max_batch),
        slow_query_ns_(options.slow_query_ns), pool_(options.num_threads),
        tallies_(pool_.num_threads()) {
    TOPK_CHECK(structure_ != nullptr);
    Init(options);
  }

  // Epoch mode: serve from whatever `epochs` currently publishes while
  // a writer mutates and republishes concurrently. Each batch pins ONE
  // epoch for its whole duration (so a batch's answers are mutually
  // consistent and brute-force checkable against that snapshot), via
  // the manager's lock-free reader protocol — the query path never
  // blocks on the writer. `epochs` must outlive the engine, and the
  // engine's registered slot drains (batch ends) before retired epochs
  // free.
  QueryEngine(EpochManager<Structure>* epochs, const Options& options,
              Metrics* metrics = nullptr)
      : epochs_(epochs), metrics_(metrics), max_batch_(options.max_batch),
        slow_query_ns_(options.slow_query_ns), pool_(options.num_threads),
        tallies_(pool_.num_threads()) {
    TOPK_CHECK(epochs_ != nullptr);
    reader_slot_ = epochs_->RegisterReader();
    Init(options);
  }

  size_t num_threads() const { return pool_.num_threads(); }

  // Worker `t`'s scratch arena (diagnostics: tests pin that its pools
  // stop growing once warm). Read it only between batches.
  const Scratch& worker_scratch(size_t t) const { return *scratches_[t]; }

  // Shards each request may split its dominant loop across (1 =
  // serial); reflects the oversubscription clamp, so tests and
  // benchmarks can report the effective value.
  size_t intra_query_workers() const {
    return contexts_.empty() ? 1 : contexts_.front()->shards();
  }

  // Epoch mode only: the sequence number of the epoch that served the
  // most recent batch (0 before any batch, or in static mode). Lets a
  // caller pair each batch's answers with the snapshot they came from.
  uint64_t last_batch_epoch() const { return last_batch_epoch_; }

  // --- tracing (empty/0 unless Options::trace_capacity was set) -------

  bool tracing_enabled() const { return !tracers_.empty(); }
  // Worker tracers are [0, num_threads); the last one is the
  // coordinator's (batch/merge spans).
  size_t num_tracers() const { return tracers_.size(); }
  const trace::Tracer& tracer(size_t i) const { return *tracers_[i]; }

  // Drops all recorded events (e.g. between a warmup and a measured
  // run). Must not be called while a batch is in flight.
  void ClearTraces() {
    for (const std::unique_ptr<trace::Tracer>& t : tracers_) t->Clear();
  }

  // All tracers as one Chrome trace-event document (tid = tracer index,
  // thread names "worker-N" / "coordinator"); loads directly into
  // Perfetto / chrome://tracing.
  std::string ChromeTraceJson() const {
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    for (size_t t = 0; t < tracers_.size(); ++t) {
      const bool coordinator = t + 1 == tracers_.size();
      const std::string name =
          coordinator ? std::string("coordinator")
                      : "worker-" + std::to_string(t);
      trace::AppendChromeEvents(*tracers_[t], t, name.c_str(), &first,
                                &out);
    }
    out += "]}";
    return out;
  }

  // Requests cooperative cancellation of the current (or, if none is
  // running, the next) batch: unstarted requests are shed, in-flight
  // cost-monitored loops stop at the next stage boundary with a
  // degraded prefix. Safe to call from any thread; the flag clears when
  // the batch completes.
  void Cancel() { cancel_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }

  // Answers requests[i] into slot i of the returned vector — order is
  // preserved regardless of which worker served which request.
  std::vector<Result> QueryBatch(const std::vector<Request>& requests) {
    std::vector<Result> results;
    QueryBatchInto(requests, &results);
    return results;
  }

  // In-place form: *results is resized to requests.size() and slot i
  // answers requests[i]. A caller that recycles the same results vector
  // keeps every slot's element buffer warm, which together with the
  // per-worker scratch arenas makes the steady-state batch loop
  // allocation-free (tests/alloc_regression_test.cc pins this).
  void QueryBatchInto(const std::vector<Request>& requests,
                      std::vector<Result>* results) {
    results->resize(requests.size());
    if (requests.empty()) {
      cancel_.store(false, std::memory_order_relaxed);
      if (metrics_ != nullptr) {
        MetricsSnapshot empty;
        empty.batches = 1;
        metrics_->Absorb(empty);
      }
      return;
    }

    const size_t admitted =
        max_batch_ == 0 ? requests.size()
                        : (requests.size() < max_batch_ ? requests.size()
                                                        : max_batch_);
    // Epoch mode: pin ONE epoch for the whole batch. Every request of
    // the batch answers against the same immutable snapshot, and the
    // pin (released when this function returns, after the barrier)
    // keeps the writer from freeing it mid-flight. Static mode serves
    // the lifetime-pinned structure as before.
    typename EpochManager<Structure>::Pin pin;
    const Structure* structure = structure_;
    if (epochs_ != nullptr) {
      pin = epochs_->Acquire(reader_slot_);
      structure = pin.get();
      last_batch_epoch_ = pin.seq();
    }
    const uint64_t batch_seq = ++batch_seq_;
    trace::Tracer* coordinator =
        tracers_.empty() ? nullptr : tracers_.back().get();
    const auto batch_start = Clock::now();
    for (MetricsSnapshot& t : tallies_) t.Reset();
    std::atomic<size_t> cursor{0};
    {
      trace::Span batch_span(coordinator, "batch");
      batch_span.Arg("batch", batch_seq);
      batch_span.Arg("requests", requests.size());
      batch_span.Arg("admitted", admitted);
      if (epochs_ != nullptr) batch_span.Arg("epoch", last_batch_epoch_);
      pool_.RunOnAll([&](size_t worker) {
        MetricsSnapshot& tally = tallies_[worker];
        Scratch* scratch = scratches_[worker].get();
        parallel::Context* par =
            contexts_.empty() ? nullptr : contexts_[worker].get();
        // Each worker owns its tracer exclusively for the whole batch;
        // RunOnAll's barrier publishes the events to the coordinator.
        trace::Tracer* tracer =
            tracers_.empty() ? nullptr : tracers_[worker].get();
        for (size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
             i < requests.size();
             i = cursor.fetch_add(1, std::memory_order_relaxed)) {
          Result& slot = (*results)[i];
          // Recycled slots carry the previous batch's answer; every
          // path below must start from an empty (but warm) slot.
          slot.elements.clear();
          // Admission control and between-request cancellation: shed
          // slots must not touch the structure at all.
          if (i >= admitted || cancel_requested()) {
            slot.status = ResultStatus::kShed;
            tally.CountStatus(slot.status);
            continue;
          }
          const auto start = Clock::now();
          const uint64_t work_before = tally.stats.work();
          {
            // Root span of the request: queue wait is the argument,
            // execution is the "exec" child, results_returned lands in
            // the self counts (charged before the span closes).
            trace::Span request_span(tracer, "request", &tally.stats);
            request_span.Arg("slot", i);
            request_span.Arg("k", requests[i].k);
            request_span.Arg(
                "queue_wait_ns",
                static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        start - batch_start)
                        .count()));
            ServeOne(structure, requests[i], batch_start, scratch, par,
                     &slot, &tally.stats, tracer);
            tally.stats.results_returned += slot.elements.size();
            request_span.Arg("status",
                             static_cast<uint64_t>(slot.status));
          }
          const auto stop = Clock::now();
          const uint64_t latency_ns = static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(stop -
                                                                   start)
                  .count());
          tally.latency.Record(latency_ns);
          ++tally.queries;
          tally.CountStatus(slot.status);
          if (slow_query_ns_ > 0 && latency_ns >= slow_query_ns_) {
            tally.RecordSlow(SlowQuery{latency_ns, batch_seq, i,
                                       tally.stats.work() - work_before,
                                       slot.status});
          }
        }
      });
    }
    cancel_.store(false, std::memory_order_relaxed);

    if (metrics_ != nullptr) {
      trace::Span merge_span(coordinator, "merge");
      merge_span.Arg("batch", batch_seq);
      MetricsSnapshot batch;
      batch.batches = 1;
      for (const MetricsSnapshot& t : tallies_) batch.Merge(t);
      metrics_->Absorb(batch);
    }
  }

  // Primes EVERY worker's scratch arena by serving each request once on
  // each worker (results discarded, no metrics, no tracing). Batch
  // scheduling is first-come-first-served, so a fast batch can drain
  // before a parked worker wakes — leaving that worker's arena cold for
  // many batches. After Warmup, any request-to-worker assignment of a
  // workload drawn from these requests runs allocation-free (pools are
  // per-element-type, sized to the high-water mark across the set).
  void Warmup(const std::vector<Request>& requests) {
    typename EpochManager<Structure>::Pin pin;
    const Structure* structure = structure_;
    if (epochs_ != nullptr) {
      pin = epochs_->Acquire(reader_slot_);
      structure = pin.get();
    }
    pool_.RunOnAll([&](size_t worker) {
      Scratch* scratch = scratches_[worker].get();
      parallel::Context* par =
          contexts_.empty() ? nullptr : contexts_[worker].get();
      Result slot;
      QueryStats stats;
      const auto start = Clock::now();
      for (const Request& r : requests) {
        slot.elements.clear();
        ServeOne(structure, r, start, scratch, par, &slot, &stats,
                 nullptr);
      }
    });
  }

 private:
  using Clock = std::chrono::steady_clock;

  void Init(const Options& options) {
    // One scratch arena per worker, reused across requests AND batches:
    // after warm-up every pool sits at its high-water mark and the
    // steady-state query path allocates nothing. unique_ptr: Scratch is
    // non-movable (handles point back at it).
    scratches_.reserve(pool_.num_threads());
    for (size_t t = 0; t < pool_.num_threads(); ++t) {
      scratches_.push_back(std::make_unique<Scratch>());
    }
    // One intra-query Context per worker (so a worker's shard helpers
    // are as private to it as its scratch arena). Clamped against the
    // hardware so per-request workers times per-query shards never
    // oversubscribe the machine.
    size_t shards = options.intra_query_workers;
    if (shards > 1 && !options.unclamped_intra_query_workers) {
      const size_t hw = std::thread::hardware_concurrency();
      if (hw > 0) {
        const size_t per_worker = hw / pool_.num_threads();
        if (shards > per_worker) shards = per_worker > 1 ? per_worker : 1;
      }
    }
    if (shards > 1) {
      contexts_.reserve(pool_.num_threads());
      for (size_t t = 0; t < pool_.num_threads(); ++t) {
        contexts_.push_back(std::make_unique<parallel::Context>(shards));
      }
    }
    if (options.trace_capacity > 0) {
      tracers_.reserve(pool_.num_threads() + 1);
      for (size_t t = 0; t < pool_.num_threads() + 1; ++t) {
        tracers_.push_back(
            std::make_unique<trace::Tracer>(options.trace_capacity));
      }
    }
  }

  void ServeOne(const Structure* structure, const Request& r,
                Clock::time_point batch_start, Scratch* scratch,
                parallel::Context* par, Result* slot, QueryStats* stats,
                trace::Tracer* tracer) const {
    trace::Span span(tracer, "exec", stats);
    const bool has_deadline = r.deadline_ns > 0;
    const auto deadline =
        batch_start + std::chrono::nanoseconds(r.deadline_ns);
    if (has_deadline && Clock::now() >= deadline) {
      // Already late: the empty prefix, flagged. Zero structure work.
      slot->status = ResultStatus::kDeadlineExceeded;
      return;
    }
    if (r.cost_budget == 0 && !has_deadline) {
      StructureQueryInto(structure, r.predicate, r.k, scratch, par,
                         &slot->elements, stats, tracer);
      slot->status = ResultStatus::kOk;
      return;
    }
    // Cost-monitored path: staged doubling with the stop predicate
    // consulted between stages; the reason for the LAST stop check to
    // fire decides the flag.
    const uint64_t work_start = stats->work();
    ResultStatus stop_reason = ResultStatus::kOk;
    auto should_stop = [&] {
      if (cancel_requested()) {
        stop_reason = ResultStatus::kDegraded;
        return true;
      }
      if (r.cost_budget > 0 &&
          stats->work() - work_start >= r.cost_budget) {
        stop_reason = ResultStatus::kDegraded;
        return true;
      }
      if (has_deadline && Clock::now() >= deadline) {
        stop_reason = ResultStatus::kDeadlineExceeded;
        return true;
      }
      return false;
    };
    const BudgetedRun run =
        BudgetedTopKInto(*structure, r.predicate, r.k, should_stop,
                         scratch, &slot->elements, stats, tracer);
    slot->status = run.complete ? ResultStatus::kOk : stop_reason;
  }

  // The ShareableTopKStructure concept only guarantees Query(q, k,
  // stats); prefer the scratch-threaded QueryInto when the structure
  // has one, passing the intra-query Context and the tracer through
  // when they are accepted (the cost-budgeted path above never gets a
  // Context: staged doubling re-issues budgeted — never degenerate —
  // fetches, so there is nothing to shard).
  void StructureQueryInto(const Structure* structure, const Predicate& q,
                          size_t k, Scratch* scratch,
                          parallel::Context* par,
                          std::vector<Element>* out, QueryStats* stats,
                          trace::Tracer* tracer) const {
    if constexpr (requires {
                    structure->QueryInto(q, k, scratch, out, stats,
                                         tracer, par);
                  }) {
      structure->QueryInto(q, k, scratch, out, stats, tracer, par);
    } else if constexpr (requires {
                           structure->QueryInto(q, k, scratch, out,
                                                stats, par);
                         }) {
      structure->QueryInto(q, k, scratch, out, stats, par);
    } else if constexpr (requires {
                           structure->QueryInto(q, k, scratch, out,
                                                stats, tracer);
                         }) {
      structure->QueryInto(q, k, scratch, out, stats, tracer);
    } else if constexpr (requires {
                           structure->QueryInto(q, k, scratch, out,
                                                stats);
                         }) {
      structure->QueryInto(q, k, scratch, out, stats);
    } else if constexpr (requires {
                           structure->Query(q, k, stats, tracer);
                         }) {
      *out = structure->Query(q, k, stats, tracer);
    } else {
      *out = structure->Query(q, k, stats);
    }
  }

  // Exactly one of structure_ (static mode, lifetime-pinned) and
  // epochs_ (epoch mode, pinned per batch) is non-null.
  const Structure* structure_ = nullptr;
  EpochManager<Structure>* epochs_ = nullptr;
  size_t reader_slot_ = 0;
  uint64_t last_batch_epoch_ = 0;
  Metrics* metrics_;
  size_t max_batch_;
  uint64_t slow_query_ns_;
  std::atomic<bool> cancel_{false};
  uint64_t batch_seq_ = 0;
  // One tracer per worker plus the coordinator's (last); empty when
  // tracing is off. unique_ptr: Tracer is non-movable.
  std::vector<std::unique_ptr<trace::Tracer>> tracers_;
  ThreadPool pool_;
  // Per-worker accounting and scratch arenas, recycled across batches
  // (Reset keeps capacity; the arenas never shrink). Worker t touches
  // only tallies_[t] / scratches_[t] during a batch, so neither needs
  // synchronization beyond RunOnAll's barrier.
  // Thread-safety: guarded by the batch barrier (QueryBatchInto is not
  // itself concurrent; see class comment).
  std::vector<MetricsSnapshot> tallies_;
  std::vector<std::unique_ptr<Scratch>> scratches_;
  // Per-worker intra-query shard contexts (empty = serial). Worker t
  // touches only contexts_[t], same ownership discipline as
  // scratches_[t]. unique_ptr: Context is non-movable (it owns parked
  // threads).
  std::vector<std::unique_ptr<parallel::Context>> contexts_;
};

}  // namespace topk::serve

#endif  // TOPK_SERVE_ENGINE_H_
