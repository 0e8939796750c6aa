// The serving layer's observability registry.
//
// Workers accumulate per-worker tallies (QueryStats + latency
// histogram + query counts); after each batch barrier the engine folds
// them into a Metrics registry under a mutex — the hot path never
// synchronizes. ToJson() renders one self-describing JSON object whose
// "stats" keys come straight from QueryStats::ForEachField, so a
// counter added to QueryStats shows up in the export (and in
// tools/summarize_bench.py) without touching this file.

#ifndef TOPK_SERVE_METRICS_H_
#define TOPK_SERVE_METRICS_H_

#include <algorithm>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/format.h"
#include "common/stats.h"
#include "serve/histogram.h"
#include "serve/result.h"

namespace topk::serve {

// One request that exceeded the engine's slow_query_ns threshold.
struct SlowQuery {
  uint64_t latency_ns = 0;
  uint64_t batch = 0;  // batch sequence number
  uint64_t slot = 0;   // request index within the batch
  uint64_t work = 0;   // QueryStats::work() attributable to the request
  ResultStatus status = ResultStatus::kOk;
};

// One thread's (or one batch's) worth of accounting; plain data.
struct MetricsSnapshot {
  // Bound on the retained slow-query log: the top-N by latency survive
  // Merge, the rest are dropped (the histogram keeps the full
  // distribution; this log exists to name the outliers).
  static constexpr size_t kMaxSlowQueries = 8;

  QueryStats stats;
  LatencyHistogram latency;
  uint64_t queries = 0;  // requests actually served (shed ones excluded)
  uint64_t batches = 0;
  // Degradation outcomes, one count per request slot (ok + degraded +
  // deadline_exceeded == queries; shed slots never ran).
  uint64_t ok = 0;
  uint64_t degraded = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  // Descending by latency_ns; at most kMaxSlowQueries entries.
  std::vector<SlowQuery> slow_queries;

  void CountStatus(ResultStatus s) {
    switch (s) {
      case ResultStatus::kOk: ++ok; break;
      case ResultStatus::kDegraded: ++degraded; break;
      case ResultStatus::kShed: ++shed; break;
      case ResultStatus::kDeadlineExceeded: ++deadline_exceeded; break;
    }
  }

  void RecordSlow(const SlowQuery& q) {
    auto pos = std::upper_bound(
        slow_queries.begin(), slow_queries.end(), q,
        [](const SlowQuery& a, const SlowQuery& b) {
          return a.latency_ns > b.latency_ns;
        });
    if (pos == slow_queries.end() &&
        slow_queries.size() >= kMaxSlowQueries) {
      return;  // slower entries already fill the log
    }
    slow_queries.insert(pos, q);
    if (slow_queries.size() > kMaxSlowQueries) slow_queries.pop_back();
  }

  // Back to the empty state without releasing memory: the slow-query
  // log keeps its capacity, so a recycled per-worker tally records
  // whole batches allocation-free.
  void Reset() {
    stats = QueryStats{};
    latency.Reset();
    queries = 0;
    batches = 0;
    ok = 0;
    degraded = 0;
    shed = 0;
    deadline_exceeded = 0;
    slow_queries.clear();
  }

  void Merge(const MetricsSnapshot& o) {
    stats += o.stats;
    latency.Merge(o.latency);
    queries += o.queries;
    batches += o.batches;
    ok += o.ok;
    degraded += o.degraded;
    shed += o.shed;
    deadline_exceeded += o.deadline_exceeded;
    for (const SlowQuery& q : o.slow_queries) RecordSlow(q);
  }
};

// Renders a snapshot as one JSON object (no trailing newline), e.g.
//   {"queries":128,"batches":2,
//    "results":{"ok":120,"degraded":6,"shed":0,"deadline_exceeded":2},
//    "stats":{"nodes_visited":9000,...},
//    "latency_ns":{"count":128,"mean":810.5,"min":402,"p50":771.0,
//                  "p95":1523.1,"p99":1898.0,"max":2210},
//    "slow_queries":[{"latency_ns":2210,"batch":1,"slot":7,"work":900,
//                     "status":"ok"},...]}
// (the "slow_queries" key appears only when the log is non-empty).
// Formatting goes through common/format.h's AppendF, which grows the
// output on demand — near-saturated uint64 counters and huge doubles
// (%.1f of 1e300 prints 300+ characters) render in full instead of
// truncating into malformed JSON as the old fixed 256-byte buffer did.
inline std::string ToJson(const MetricsSnapshot& s) {
  std::string out;
  out.reserve(512);
  AppendF(&out,
          "{\"queries\":%" PRIu64 ",\"batches\":%" PRIu64
          ",\"results\":{\"ok\":%" PRIu64 ",\"degraded\":%" PRIu64
          ",\"shed\":%" PRIu64 ",\"deadline_exceeded\":%" PRIu64
          "},\"stats\":{",
          s.queries, s.batches, s.ok, s.degraded, s.shed,
          s.deadline_exceeded);
  bool first = true;
  QueryStats::ForEachField([&](const char* name, auto member) {
    AppendF(&out, "%s\"%s\":%" PRIu64, first ? "" : ",", name,
            s.stats.*member);
    first = false;
  });
  const LatencyHistogram& h = s.latency;
  AppendF(&out,
          "},\"latency_ns\":{\"count\":%" PRIu64 ",\"mean\":%.1f,\"min\":%"
          PRIu64 ",\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f,\"max\":%" PRIu64
          "}",
          h.count(), h.mean_ns(), h.min_ns(), h.PercentileNs(50.0),
          h.PercentileNs(95.0), h.PercentileNs(99.0), h.max_ns());
  if (!s.slow_queries.empty()) {
    out += ",\"slow_queries\":[";
    for (size_t i = 0; i < s.slow_queries.size(); ++i) {
      const SlowQuery& q = s.slow_queries[i];
      AppendF(&out,
              "%s{\"latency_ns\":%" PRIu64 ",\"batch\":%" PRIu64
              ",\"slot\":%" PRIu64 ",\"work\":%" PRIu64
              ",\"status\":\"%s\"}",
              i == 0 ? "" : ",", q.latency_ns, q.batch, q.slot, q.work,
              ToString(q.status));
    }
    out += ']';
  }
  out += '}';
  return out;
}

// Shared registry: many engines (or many batches of one engine) may
// absorb into the same Metrics concurrently.
class Metrics {
 public:
  void Absorb(const MetricsSnapshot& s) {
    std::lock_guard<std::mutex> lock(mu_);
    agg_.Merge(s);
  }

  MetricsSnapshot Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return agg_;
  }

  std::string ToJson() const { return serve::ToJson(Snapshot()); }

 private:
  mutable std::mutex mu_;
  MetricsSnapshot agg_;
};

}  // namespace topk::serve

#endif  // TOPK_SERVE_METRICS_H_
