// Shared pieces of the three workloads: arguments, seeded inputs, the
// brute-force oracle, and the per-layer metric list.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "range1d/point1d.h"
#include "report.h"

namespace topk::serve {}

namespace perfbench {

namespace serve = topk::serve;
using topk::range1d::Point1D;
using topk::range1d::Range1D;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for durable files and span dumps.
  std::string work_dir = ".bench_build/perfbench-tmp";
};

// Untimed warm-up before every measured window (the first cold pass
// runs ~35% slower and would otherwise land in the samples).
constexpr double kWarmupSeconds = 1.0;

// Per-layer values of one traced run, keyed by declared metric name.
using LayerValues = std::map<std::string, double>;

struct MetricDecl {
  const char* name;
  const char* unit;
};

// Per-layer metrics every workload reports in the traced run. A layer a
// workload does not drive reads 0 there.
inline const std::vector<MetricDecl>& PerLayerMetrics() {
  static const std::vector<MetricDecl> kList = {
      // End-to-end figures not gated: read p99 (every workload) and the
      // write path (fed_churn only).
      {"e2e.read_p99_us", "us"},
      {"e2e.write_p50_us", "us"},
      {"e2e.write_p99_us", "us"},
      {"e2e.visible_p99_ms", "ms"},
      {"e2e.durable_space_amp", "ratio"},
      {"e2e.error_rate", "ratio"},
      {"driver.read_self_us", "us"},
      {"driver.speed_ref_ms", "ms"},
      {"driver.writer_late_us_p99", "us"},
      {"serve.dispatch_us", "us"},
      {"serve.batch_self_us", "us"},
      {"serve.not_ok", "count"},
      {"core.request_us_p50", "us"},
      {"core.request_us_p99", "us"},
      {"core.hist_request_us_p50", "us"},
      {"core.rounds_per_req", "count"},
      {"core.max_queries_per_req", "count"},
      {"core.prioritized_queries_per_req", "count"},
      {"core.nodes_visited_per_req", "count"},
      {"core.elements_emitted_per_req", "count"},
      {"core.fallbacks", "count"},
      {"core.full_scans", "count"},
      {"core.emit_yield", "ratio"},
      {"core.build_s", "s"},
      {"core.rebuild_ms", "ms"},
      {"range1d.pri_fetch_us_per_req", "us"},
      {"range1d.pri_nodes_per_req", "count"},
      {"range1d.max_us_per_req", "us"},
      {"common.select_us_per_req", "us"},
      {"federate.hit_ratio", "ratio"},
      {"federate.invalidations_per_publish", "count"},
      {"federate.hit_us_p50", "us"},
      {"federate.miss_us_p50", "us"},
      {"federate.miss_us_p99", "us"},
      {"federate.rounds_per_miss", "count"},
      {"federate.shard_fetches_per_miss", "count"},
      {"federate.pull_ratio", "ratio"},
      {"federate.unstable_retries", "count"},
      {"federate.exhaustive_fallbacks", "count"},
      {"federate.fanout_self_us", "us"},
      {"epoch.publish_us", "us"},
      {"epoch.live_epochs_max", "count"},
      {"epoch.cold_start_s", "s"},
      {"em.ack_us_p50", "us"},
      {"em.ack_us_p99", "us"},
      {"em.syncs_per_ack", "count"},
      {"em.bytes_written_per_ack", "B"},
      {"em.checkpoint_ms", "ms"},
      {"em.checkpoints", "count"},
      {"em.recover_ms", "ms"},
      {"em.wal_records_replayed", "count"},
      {"em.disk_bytes", "B"},
      {"trace.overhead_pct", "%"},
  };
  return kList;
}

inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

// bench::Points1D-style data: x and weight uniform, ids 1..n.
inline std::vector<Point1D> MakePoints(size_t n, topk::Rng* rng) {
  std::vector<Point1D> out(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng->NextDouble();
    out[i] = {x, rng->NextDouble() * 1e6, i + 1};
  }
  return out;
}

// The library-wide strict total order, restated here so the oracle does
// not share code with what it checks: heavier weight first, then larger
// id.
inline bool Heavier(const Point1D& a, const Point1D& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  return a.id > b.id;
}

inline bool XLess(const Point1D& a, const Point1D& b) {
  if (a.x != b.x) return a.x < b.x;
  return a.id < b.id;
}

// Brute force over an x-sorted copy of the data: q(D) is one contiguous
// run, selected by binary search.
class Oracle {
 public:
  Oracle() = default;
  explicit Oracle(std::vector<Point1D> data) : by_x_(std::move(data)) {
    std::sort(by_x_.begin(), by_x_.end(), XLess);
  }

  // q(D), in x order.
  std::vector<Point1D> Matching(const Range1D& q) const {
    const auto lo = std::lower_bound(
        by_x_.begin(), by_x_.end(), q.lo,
        [](const Point1D& p, double v) { return p.x < v; });
    const auto hi = std::upper_bound(
        by_x_.begin(), by_x_.end(), q.hi,
        [](double v, const Point1D& p) { return v < p.x; });
    if (lo >= hi) return {};
    return std::vector<Point1D>(lo, hi);
  }

  std::vector<Point1D> TopK(const Range1D& q, size_t k) const {
    std::vector<Point1D> m = Matching(q);
    return TopKOfPool(std::move(m), k);
  }

  static std::vector<Point1D> TopKOfPool(std::vector<Point1D> pool,
                                         size_t k) {
    const size_t keep = std::min(k, pool.size());
    std::partial_sort(pool.begin(), pool.begin() + static_cast<long>(keep),
                      pool.end(), Heavier);
    pool.resize(keep);
    return pool;
  }

 private:
  std::vector<Point1D> by_x_;
};

// Order-sensitive fingerprint of an answer over every element's id and
// weight bits, so a swapped, missing or wrong element changes it.
inline uint64_t Fingerprint(const Point1D* p, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h = (h ^ v) * 1099511628211ULL;
    h ^= h >> 29;
  };
  for (size_t i = 0; i < n; ++i) {
    uint64_t w = 0;
    std::memcpy(&w, &p[i].weight, sizeof(w));
    mix(p[i].id);
    mix(w);
  }
  mix(n);
  return h;
}
inline uint64_t Fingerprint(const std::vector<Point1D>& v) {
  return Fingerprint(v.data(), v.size());
}

// One answer kept for the post-run check: what was asked and what came
// back, reduced to a fingerprint so keeping it costs no copy.
struct KeptAnswer {
  Range1D range;
  size_t k = 0;
  uint64_t fingerprint = 0;
  uint64_t seqs[2] = {0, 0};  // per-shard epochs (fed_churn)
};

// Evenly spaced subset of at most `cap` indices into [0, n).
inline std::vector<size_t> Spread(size_t n, size_t cap) {
  std::vector<size_t> out;
  if (n == 0) return out;
  const size_t take = std::min(n, cap);
  for (size_t i = 0; i < take; ++i) out.push_back(i * n / take);
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
