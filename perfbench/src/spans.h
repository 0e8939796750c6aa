// The benchmark's own spans: one interval per call into a layer.
//
// A span records name, start, end, its parent span and the request it
// belongs to. Spans are opened and closed by the benchmark's code
// around calls into the library's public functions; nothing inside the
// library is instrumented. Each thread owns one SpanLog (no sharing, no
// locks); events stay in memory and are read after the run.
//
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover. Summed over a request's spans, self
// times telescope to the root span's duration (tests/spans_test.cc).
//
// OverheadPairs measures what the spans themselves cost.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "report.h"

namespace perfbench {

struct Span {
  const char* name = nullptr;  // a string literal
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  // index into the same log; -1 = root
  uint64_t request = 0;
  uint64_t dur_ns() const { return end_ns - start_ns; }
};

class SpanLog {
 public:
  // `enabled` is shared by the logs of one run, so tracing can be
  // switched on mid-run from the driver thread.
  SpanLog(Clock::time_point origin, const std::atomic<bool>* enabled,
          size_t reserve)
      : origin_(origin), enabled_(enabled) {
    spans_.reserve(reserve);
  }

  bool enabled() const {
    return enabled_ != nullptr && enabled_->load(std::memory_order_relaxed);
  }

  // Returns the span's index, or -1 when tracing is off.
  int64_t Begin(const char* name, uint64_t request) {
    if (!enabled()) return -1;
    Span s;
    s.name = name;
    s.request = request;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = Now();
    spans_.push_back(s);
    const int64_t idx = static_cast<int64_t>(spans_.size() - 1);
    open_.push_back(idx);
    return idx;
  }
  void End(int64_t idx) {
    if (idx < 0) return;
    spans_[static_cast<size_t>(idx)].end_ns = Now();
    // Spans close LIFO; a span opened before tracing was switched on
    // was never pushed, so only pop what this call opened.
    if (!open_.empty() && open_.back() == idx) open_.pop_back();
  }
  // Records an already-measured interval (e.g. a call timed by a
  // clock the caller needed anyway) as a child of the open span.
  void Record(const char* name, uint64_t request, Clock::time_point start,
              Clock::time_point end) {
    if (!enabled()) return;
    Span s;
    s.name = name;
    s.request = request;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = ToNs(start);
    s.end_ns = ToNs(end);
    spans_.push_back(s);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t ToNs(Clock::time_point t) const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count());
  }
  uint64_t Now() const { return ToNs(Clock::now()); }

  Clock::time_point origin_;
  const std::atomic<bool>* enabled_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

// RAII span; a null log or disabled tracing makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request)
      : log_(log), idx_(log == nullptr ? -1 : log->Begin(name, request)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int64_t idx_;
};

// Self time of every span: its duration minus the union of its
// children's intervals clipped to it. Children of one thread's span run
// sequentially, but the union keeps the definition exact for any
// overlap.
inline std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<uint64_t, uint64_t>>& k = kids[i];
    std::sort(k.begin(), k.end());
    uint64_t covered = 0;
    uint64_t reach = spans[i].start_ns;
    for (const auto& [a0, b0] : k) {
      const uint64_t a = std::max(a0, reach);
      const uint64_t b = std::min(b0, spans[i].end_ns);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self[i] = spans[i].dur_ns() - covered;
  }
  return self;
}

// Tracing overhead from alternating chunks of a measured window. Calls
// are cut into chunks of `chunk` calls; even chunks run untraced, odd
// chunks traced, and each traced chunk is paired with the untraced one
// just before it. Drift of the machine moves both sides of a pair
// alike, so the median over pairs of the traced side's extra time is
// the cost of the spans, not of the machine's drift.
class OverheadPairs {
 public:
  OverheadPairs(Clock::time_point start, uint64_t chunk)
      : chunk_(chunk), chunk_start_(start) {}

  bool Traced(uint64_t seq) const { return (seq / chunk_) % 2 == 1; }
  // Index of the input call `seq` serves when both chunks of a pair
  // serve the same inputs.
  uint64_t Replay(uint64_t seq) const {
    return seq / (2 * chunk_) * chunk_ + seq % chunk_;
  }
  // Call `seq` completed at `end`.
  void Done(uint64_t seq, Clock::time_point end) {
    if ((seq + 1) % chunk_ != 0) return;
    const double d = Seconds(end - chunk_start_);
    chunk_start_ = end;
    if (Traced(seq)) {
      pct_.Add(100.0 * (d - untraced_s_) / untraced_s_);
    } else {
      untraced_s_ = d;
    }
  }
  // Median over complete pairs, in percent (0 with no complete pair).
  double Percent() const { return pct_.Median(); }
  size_t pairs() const { return pct_.size(); }

 private:
  uint64_t chunk_;
  Clock::time_point chunk_start_;
  double untraced_s_ = 0.0;
  Samples pct_;
};

// Per span name: duration samples (µs) and self-time samples (µs).
struct SpanSummary {
  Samples dur_us;
  Samples self_us;
};

// `self` is SelfTimesNs(spans), computed once per log.
inline SpanSummary Summarize(const std::vector<Span>& spans,
                             const std::vector<uint64_t>& self,
                             const std::string& name) {
  SpanSummary out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (name != spans[i].name) continue;
    out.dur_us.Add(static_cast<double>(spans[i].dur_ns()) / 1e3);
    out.self_us.Add(static_cast<double>(self[i]) / 1e3);
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
