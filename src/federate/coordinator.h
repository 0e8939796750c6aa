// Federated scatter-gather top-k across S shard engines, with
// threshold-algorithm-style early termination and a hot-query cache.
//
// A Coordinator fronts S serve::QueryEngines, one per hash shard of the
// dataset (federate/shard_map.h). A query fans out to every healthy
// shard in parallel (one fan-out worker per shard: the calling thread
// drives shard 0, a parked thread each other shard) and the per-shard
// answers are merged under the library-wide (weight, id) strict total
// order, so the federated answer is bitwise-identical to a single
// engine over the union — never merely "close".
//
// Early termination (the threshold-algorithm idea specialized to
// heaviest-first prefixes): a shard's answer to "top a_s" is its a_s
// heaviest matches, so every element it has NOT returned is strictly
// lighter than the lightest element it has (prefix.back()). The
// coordinator asks each shard for a small prefix first (k/S plus
// cushion), doubles a shard's ask each round, and retires a shard as
// soon as (a) it returned fewer than asked (exhausted), (b) it was
// asked the full k, or (c) the merged candidate pool already holds k
// elements and the shard's bound cannot beat the current global k-th —
// the k-th only gets heavier as the pool grows, so a retired shard
// stays retired. Stats::elements_pulled (the per-shard final prefix
// depths — TA's sorted-access count) is what bench_federate (E28)
// proves strictly below the exhaustive S*k gather.
//
// Epoch consistency: multi-round pulls are only sound if every round
// saw the same per-shard snapshot. EpochManager::current_seq() is
// writer-side-only, so the coordinator registers its OWN reader slot
// per epoch-mode shard and probes sequence numbers through pins
// (lock-free, allocation-free). A query captures the seq vector before
// fan-out and after the last round; on mismatch (a publish landed
// mid-query) it retries, and after kMaxUnstableRetries falls back to a
// single-round exhaustive gather — one batch per shard pins one epoch,
// so each shard's contribution is complete for the snapshot it pinned
// and no cross-round consistency is needed. last_epoch_seqs() exposes
// the per-shard snapshot versions each answer was computed against.
//
// Result cache: a bounded direct-mapped array keyed by the predicate's
// value bytes plus k (predicates are trivially copyable PODs; padding
// differences can only cause misses, never wrong answers). Each entry
// records the per-shard epoch seq vector it was computed under; a hit
// is served only if every shard's current seq still matches (a shard
// publish invalidates implicitly by bumping its seq) and every shard is
// healthy. The hit path copies into the caller's recycled buffer and
// performs no allocation in steady state. Only kOk, all-shards-healthy
// answers are cached.
//
// Partial failure: SetShardHealthy(s, false) removes a shard from the
// fan-out; the answer is EXACT over the surviving shards and flagged
// kDegraded (PR 3 semantics lifted shard-wide). A healthy shard that
// degrades itself (budget/deadline) returns a correct heaviest-first
// prefix; the merged answer is truncated at the heaviest such shard
// bound — everything kept provably beats anything any degraded shard
// still holds, so the output is a correct prefix of the true global
// top-k. Per-status tallies land in metrics() for serve::ToJson.
//
// Thread-safety: a Coordinator is externally synchronized — one query
// at a time, like QueryEngine::QueryBatchInto. The shard engines and
// epoch managers must outlive it; each engine is driven only by its
// own fan-out worker (shard 0's by the thread calling QueryInto), so it
// sees one caller at a time.

#ifndef TOPK_FEDERATE_COORDINATOR_H_
#define TOPK_FEDERATE_COORDINATOR_H_

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/kselect.h"
#include "common/scratch.h"
#include "common/weighted.h"
#include "serve/engine.h"
#include "serve/epoch.h"
#include "serve/metrics.h"
#include "serve/result.h"
#include "serve/thread_pool.h"

namespace topk::federate {

template <serve::ShareableTopKStructure Structure>
class Coordinator {
 public:
  using Engine = serve::QueryEngine<Structure>;
  using Element = typename Structure::Element;
  using Predicate = typename Structure::Predicate;
  using Request = typename Engine::Request;
  using Result = typename Engine::Result;

  static_assert(std::is_trivially_copyable_v<Predicate>,
                "the federation result cache keys predicates by value "
                "bytes (memcmp); predicates must stay trivially "
                "copyable PODs");

  // One shard: an engine (static or epoch mode) plus, when the shard
  // serves a mutating chain, the epoch manager the engine reads from —
  // the coordinator probes it for cache invalidation and query
  // stability. epochs == nullptr means a static shard (seq reported 0).
  struct Shard {
    Engine* engine = nullptr;
    serve::EpochManager<Structure>* epochs = nullptr;
  };

  struct Options {
    // First-round ask per shard; 0 = auto (k/S plus a cushion of
    // 3*sqrt(k/S)+4, so a near-uniform weight spread usually finishes
    // in one round). Doubled per round, capped at k.
    size_t initial_k = 0;
    // Skip early termination: ask every shard for the full k in one
    // round. Always correct; exists as the comparison baseline for the
    // early-termination claim and as the unstable-query fallback.
    bool exhaustive = false;
    // Result cache entries (direct-mapped); 0 disables the cache.
    size_t cache_entries = 0;
    // Per-shard-fetch degradation knobs, passed through to each shard
    // request (serve::Request semantics; deadline is per fetch,
    // relative to that batch's start). 0 disables either.
    uint64_t cost_budget = 0;
    uint64_t deadline_ns = 0;
  };

  // Aggregate counters across every query served; plain data, reset
  // with ResetStats().
  struct Stats {
    uint64_t queries = 0;
    uint64_t rounds = 0;
    // Shard batches dispatched (a shard refetched in round 2 counts
    // twice here).
    uint64_t shard_fetches = 0;
    // TA sorted-access depth: sum over shards of the FINAL prefix
    // length pulled for each query. This is the early-termination
    // metric: exhaustive mode pulls min(k, shard size) per shard.
    uint64_t elements_pulled = 0;
    // Total elements moved shard -> coordinator, refetch overlap
    // included; equals the sum of the shard engines' results_returned
    // QueryStats counters.
    uint64_t elements_transferred = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t cache_invalidations = 0;
    // Queries whose epoch-seq window moved mid-gather and were retried.
    uint64_t unstable_retries = 0;
    // Retried queries that exhausted retries and ran the single-round
    // exhaustive fallback.
    uint64_t exhaustive_fallbacks = 0;
  };

  static constexpr size_t kMaxUnstableRetries = 3;

  Coordinator(std::vector<Shard> shards, const Options& options)
      : shards_(std::move(shards)),
        options_(options),
        fanout_(shards_.empty() ? 1 : shards_.size()) {
    TOPK_CHECK(!shards_.empty());
    const size_t s = shards_.size();
    requests_.resize(s);
    results_.resize(s);
    reader_slots_.assign(s, 0);
    for (size_t i = 0; i < s; ++i) {
      TOPK_CHECK(shards_[i].engine != nullptr);
      requests_[i].resize(1);
      if (shards_[i].epochs != nullptr) {
        reader_slots_[i] = shards_[i].epochs->RegisterReader();
      }
    }
    asked_.assign(s, 0);
    fetch_.assign(s, 0);
    done_.assign(s, 0);
    healthy_.assign(s, 1);
    healthy_count_ = s;
    pre_seqs_.assign(s, 0);
    last_seqs_.assign(s, 0);
    probe_seqs_.assign(s, 0);
    cache_.resize(options_.cache_entries);
    for (CacheEntry& e : cache_) e.seqs.assign(s, 0);
  }

  size_t num_shards() const { return shards_.size(); }

  // Marks a shard in or out of the fan-out. While any shard is
  // unhealthy, answers cover the surviving shards exactly and are
  // flagged kDegraded; the cache neither serves nor fills.
  void SetShardHealthy(size_t shard, bool healthy) {
    TOPK_CHECK(shard < shards_.size());
    const uint8_t want = healthy ? uint8_t{1} : uint8_t{0};
    if (healthy_[shard] == want) return;
    healthy_[shard] = want;
    if (healthy) {
      ++healthy_count_;
    } else {
      --healthy_count_;
    }
  }
  bool shard_healthy(size_t shard) const {
    TOPK_CHECK(shard < shards_.size());
    return healthy_[shard] != 0;
  }

  const Stats& stats() const { return stats_; }
  // Per-query status tallies + latency histogram + results_returned,
  // renderable by serve::ToJson (the per-status Metrics JSON surface).
  const serve::MetricsSnapshot& metrics() const { return metrics_; }
  void ResetStats() {
    stats_ = Stats{};
    metrics_.Reset();
  }

  // The per-shard epoch sequence numbers the most recent answer was
  // computed against (0 for static shards / before any query). Under a
  // live writer this pairs each answer with its per-shard snapshots.
  const std::vector<uint64_t>& last_epoch_seqs() const {
    return last_seqs_;
  }

  // Federated top-k: heaviest-first, exact over the healthy shards.
  // *out is the caller's recycled buffer (cleared first); with warm
  // buffers the whole path — cache hit or full fan-out — allocates
  // nothing. Externally synchronized: one call at a time.
  serve::ResultStatus QueryInto(const Predicate& q, size_t k,
                                std::vector<Element>* out) {
    const auto start = Clock::now();
    ++stats_.queries;
    out->clear();
    serve::ResultStatus status;
    if (TryCacheServe(q, k, out)) {
      status = serve::ResultStatus::kOk;
    } else {
      status = GatherInto(q, k, out);
      MaybeCacheFill(q, k, *out, status);
    }
    const auto stop = Clock::now();
    ++metrics_.queries;
    metrics_.CountStatus(status);
    metrics_.latency.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count()));
    metrics_.stats.results_returned += out->size();
    return status;
  }

  // Convenience value form (allocates; tests and cold paths).
  serve::QueryResult<Element> Query(const Predicate& q, size_t k) {
    serve::QueryResult<Element> r;
    r.status = QueryInto(q, k, &r.elements);
    return r;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct CacheEntry {
    bool valid = false;
    size_t k = 0;
    unsigned char key[sizeof(Predicate)] = {};
    std::vector<Element> elements;
    std::vector<uint64_t> seqs;  // per-shard, sized at construction
  };

  // Current per-shard epoch seqs, read through this coordinator's own
  // reader slots (current_seq() is writer-side only: between its load
  // and the seq dereference the epoch could retire and free under a
  // racing publish; a pin cannot). Static shards report 0.
  void ReadSeqs(std::vector<uint64_t>* seqs) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s].epochs == nullptr) {
        (*seqs)[s] = 0;
        continue;
      }
      const auto pin = shards_[s].epochs->Acquire(reader_slots_[s]);
      (*seqs)[s] = pin.seq();
    }
  }

  size_t InitialKFor(size_t k) const {
    if (options_.initial_k > 0) {
      return options_.initial_k < k ? options_.initial_k : k;
    }
    const size_t per = k / shards_.size();
    const size_t k0 =
        per + static_cast<size_t>(3.0 * std::sqrt(static_cast<double>(per)))
        + 4;
    return k0 < k ? k0 : k;
  }

  static uint64_t HashKey(const unsigned char* bytes, size_t len,
                          size_t k) {
    // FNV-1a over the predicate bytes, then k folded in.
    uint64_t h = 1469598103934665603ULL;
    for (size_t i = 0; i < len; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
    h ^= static_cast<uint64_t>(k);
    h *= 1099511628211ULL;
    return h;
  }

  bool TryCacheServe(const Predicate& q, size_t k,
                     std::vector<Element>* out) {
    if (cache_.empty()) return false;
    if (healthy_count_ < shards_.size()) {
      ++stats_.cache_misses;
      return false;
    }
    unsigned char key[sizeof(Predicate)];
    std::memcpy(key, &q, sizeof(Predicate));
    const uint64_t h = HashKey(key, sizeof(Predicate), k);
    CacheEntry& e = cache_[static_cast<size_t>(h % cache_.size())];
    if (!e.valid || e.k != k ||
        std::memcmp(e.key, key, sizeof(Predicate)) != 0) {
      ++stats_.cache_misses;
      return false;
    }
    // Epoch validation: serve only if every shard still publishes the
    // seq the entry was computed under. A publish that lands after
    // this probe makes the answer stale by at most one in-flight
    // publish — the same window any single batch has.
    ReadSeqs(&probe_seqs_);
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (e.seqs[s] != probe_seqs_[s]) {
        e.valid = false;
        ++stats_.cache_invalidations;
        ++stats_.cache_misses;
        return false;
      }
    }
    out->assign(e.elements.begin(), e.elements.end());
    for (size_t s = 0; s < shards_.size(); ++s) {
      last_seqs_[s] = e.seqs[s];
    }
    ++stats_.cache_hits;
    return true;
  }

  void MaybeCacheFill(const Predicate& q, size_t k,
                      const std::vector<Element>& elements,
                      serve::ResultStatus status) {
    if (cache_.empty() || status != serve::ResultStatus::kOk ||
        healthy_count_ < shards_.size()) {
      return;
    }
    unsigned char key[sizeof(Predicate)];
    std::memcpy(key, &q, sizeof(Predicate));
    const uint64_t h = HashKey(key, sizeof(Predicate), k);
    CacheEntry& e = cache_[static_cast<size_t>(h % cache_.size())];
    e.valid = true;
    e.k = k;
    std::memcpy(e.key, key, sizeof(Predicate));
    e.elements.assign(elements.begin(), elements.end());
    // last_seqs_ holds the exact per-shard snapshot versions this
    // answer was computed against (stable window, or per-batch pins on
    // the exhaustive fallback) — exactly the validity condition.
    e.seqs.assign(last_seqs_.begin(), last_seqs_.end());
  }

  // One query, retried until its epoch-seq window is stable. Every
  // retry re-gathers from scratch; the capped fallback runs exhaustive
  // (single round), whose per-shard batches each pin one epoch, so the
  // merge is exact per-shard-snapshot without cross-round stability.
  serve::ResultStatus GatherInto(const Predicate& q, size_t k,
                                 std::vector<Element>* out) {
    if (healthy_count_ == 0) {
      return serve::ResultStatus::kDegraded;
    }
    if (k == 0) {
      // Nothing to fetch; trivially complete.
      ReadSeqs(&last_seqs_);
      return healthy_count_ < shards_.size()
                 ? serve::ResultStatus::kDegraded
                 : serve::ResultStatus::kOk;
    }
    for (size_t attempt = 0;; ++attempt) {
      const bool exhaustive =
          options_.exhaustive || attempt >= kMaxUnstableRetries;
      ReadSeqs(&pre_seqs_);
      out->clear();
      const serve::ResultStatus status =
          GatherOnceInto(q, k, exhaustive, out);
      ReadSeqs(&last_seqs_);
      bool stable = true;
      for (size_t s = 0; s < shards_.size(); ++s) {
        if (pre_seqs_[s] != last_seqs_[s]) stable = false;
      }
      if (stable) return status;
      if (exhaustive) {
        // Single-round gather under a racing writer: record the epoch
        // each shard's one batch actually pinned.
        if (attempt >= kMaxUnstableRetries) ++stats_.exhaustive_fallbacks;
        for (size_t s = 0; s < shards_.size(); ++s) {
          if (healthy_[s] != 0 && shards_[s].epochs != nullptr) {
            last_seqs_[s] = shards_[s].engine->last_batch_epoch();
          }
        }
        return status;
      }
      ++stats_.unstable_retries;
    }
  }

  // One scatter-gather pass: bounded rounds of parallel per-shard
  // fetches with k-doubling asks and TA retirement, then one merge +
  // k-select + degraded-bound truncation into *out.
  serve::ResultStatus GatherOnceInto(const Predicate& q, size_t k,
                                     bool exhaustive,
                                     std::vector<Element>* out) {
    const size_t num = shards_.size();
    for (size_t s = 0; s < num; ++s) {
      asked_[s] = 0;
      done_[s] = static_cast<uint8_t>(healthy_[s] == 0);
    }
    const size_t ask0 = exhaustive ? k : InitialKFor(k);
    bool deadline = false;    // any shard fetch hit its deadline
    bool uncertain = false;   // any shard returned a degraded prefix
    bool unbounded = false;   // ... an EMPTY one (no bound at all)
    bool has_bound = false;
    Element bound{};  // heaviest lightest-returned among degraded shards
    ScratchVec<Element> pool = scratch_.Borrow<Element>();
    for (;;) {
      bool any = false;
      for (size_t s = 0; s < num; ++s) {
        fetch_[s] = 0;
        if (done_[s] != 0) continue;
        size_t ask = asked_[s] == 0 ? ask0 : asked_[s] * 2;
        if (ask > k) ask = k;
        asked_[s] = ask;
        Request& r = requests_[s][0];
        r.predicate = q;
        r.k = ask;
        r.cost_budget = options_.cost_budget;
        r.deadline_ns = options_.deadline_ns;
        fetch_[s] = 1;
        any = true;
      }
      if (!any) break;
      ++stats_.rounds;
      ++metrics_.stats.rounds;
      // Scatter: worker w drives shard w's engine (and nothing else),
      // so each engine sees one externally-synchronized caller.
      fanout_.RunOnAll([this](size_t w) {
        if (fetch_[w] != 0) {
          shards_[w].engine->QueryBatchInto(requests_[w], &results_[w]);
        }
      });
      // Account this round and retire exhausted / fully-asked shards.
      for (size_t s = 0; s < num; ++s) {
        if (fetch_[s] == 0) continue;
        ++stats_.shard_fetches;
        const Result& res = results_[s][0];
        stats_.elements_transferred += res.elements.size();
        if (res.status != serve::ResultStatus::kOk) {
          // A degraded shard still returned a correct heaviest-first
          // prefix; everything it did NOT return is strictly lighter
          // than prefix.back(). Deeper refetching is pointless — the
          // same budget would re-degrade — so retire it and remember
          // the bound for the final truncation.
          done_[s] = 1;
          if (res.status == serve::ResultStatus::kDeadlineExceeded) {
            deadline = true;
          }
          uncertain = true;
          if (res.elements.empty()) {
            unbounded = true;
          } else if (!has_bound ||
                     HeavierThan(res.elements.back(), bound)) {
            bound = res.elements.back();
            has_bound = true;
          }
          continue;
        }
        if (res.elements.size() < asked_[s]) {
          done_[s] = 1;  // shard exhausted: that is its whole answer
        } else if (asked_[s] >= k) {
          done_[s] = 1;  // full top-k pulled; nothing more can matter
        }
      }
      // Merge: rebuild the candidate pool from every healthy shard's
      // LATEST prefix (a refetch supersedes the earlier, shorter one).
      pool.clear();
      for (size_t s = 0; s < num; ++s) {
        if (healthy_[s] == 0 || asked_[s] == 0) continue;
        for (const Element& e : results_[s][0].elements) {
          pool.push_back(e);
        }
      }
      SelectTopK(&pool.vec(), k);
      // TA retirement: once the pool holds k candidates, a live shard
      // whose lightest pulled element does not beat the global k-th
      // has nothing left that could enter the answer.
      if (pool.size() >= k) {
        const Element& kth = pool[k - 1];
        for (size_t s = 0; s < num; ++s) {
          if (done_[s] != 0 || asked_[s] == 0) continue;
          const Result& res = results_[s][0];
          if (!res.elements.empty() &&
              !HeavierThan(res.elements.back(), kth)) {
            done_[s] = 1;
          }
        }
      }
    }
    for (size_t s = 0; s < num; ++s) {
      if (healthy_[s] != 0 && asked_[s] > 0) {
        stats_.elements_pulled += results_[s][0].elements.size();
      }
    }
    out->assign(pool.begin(), pool.end());
    if (uncertain) {
      // Keep only elements that provably beat everything any degraded
      // shard still holds: e survives iff e >= bound under the strict
      // total order (missing elements are strictly lighter than their
      // shard's bound, hence lighter than every survivor). An empty
      // degraded prefix bounds nothing — the answer collapses to the
      // empty (trivially correct) prefix.
      if (unbounded) {
        out->clear();
      } else {
        size_t keep = 0;
        while (keep < out->size() && !HeavierThan(bound, (*out)[keep])) {
          ++keep;
        }
        out->resize(keep);
      }
    }
    if (deadline) return serve::ResultStatus::kDeadlineExceeded;
    if (uncertain || healthy_count_ < num) {
      return serve::ResultStatus::kDegraded;
    }
    return serve::ResultStatus::kOk;
  }

  std::vector<Shard> shards_;
  Options options_;
  // One worker per shard, the calling thread as shard 0's; RunOnAll is
  // the scatter barrier.
  serve::ThreadPool fanout_;
  Scratch scratch_;
  // Per-shard 1-request batches and recycled result slots; worker w
  // touches only requests_[w]/results_[w] during a fan-out.
  // Thread-safety: guarded by the fan-out barrier (QueryInto is not
  // itself concurrent; see class comment).
  std::vector<std::vector<Request>> requests_;
  std::vector<std::vector<Result>> results_;
  std::vector<size_t> asked_;
  std::vector<uint8_t> fetch_;
  std::vector<uint8_t> done_;
  std::vector<uint8_t> healthy_;
  size_t healthy_count_ = 0;
  std::vector<size_t> reader_slots_;
  std::vector<uint64_t> pre_seqs_;
  std::vector<uint64_t> last_seqs_;
  std::vector<uint64_t> probe_seqs_;
  std::vector<CacheEntry> cache_;
  Stats stats_;
  serve::MetricsSnapshot metrics_;
};

}  // namespace topk::federate

#endif  // TOPK_FEDERATE_COORDINATOR_H_
