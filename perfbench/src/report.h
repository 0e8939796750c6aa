// Sample statistics, process gauges and the result line.
//
// Every timing is kept as raw samples (no histogram bucketing), so a
// percentile is exact over the run. The result line is the benchmark's
// contract with its caller: the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; everything
// printed before it is a human-readable report.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// Raw samples of one quantity; percentiles interpolate linearly between
// closest ranks (numpy's default), so they are exact order statistics
// with no bucketing error.
class Samples {
 public:
  void Reserve(size_t n) { v_.reserve(n); }
  void Add(double x) { v_.push_back(x); }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  const std::vector<double>& values() const { return v_; }

  double Percentile(double p) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double rank = p / 100.0 * static_cast<double>(s.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = lo + 1 < s.size() ? lo + 1 : lo;
    const double frac = rank - static_cast<double>(lo);
    return s[lo] + (s[hi] - s[lo]) * frac;
  }
  double Median() const { return Percentile(50.0); }
  double Mean() const {
    if (v_.empty()) return 0.0;
    double sum = 0.0;
    for (double x : v_) sum += x;
    return sum / static_cast<double>(v_.size());
  }

 private:
  std::vector<double> v_;
};

// The read calls of one measured window, in completion order. The calls
// are grouped into chunks of kChunk, and the whole chunks are cut into
// kSlices consecutive slices; each slice yields a throughput and a
// median latency. Interference from the rest of the machine only ever
// adds time, so the gated figures come from the window's better slices:
// throughput is the 75th percentile of the slice throughputs, p50 the
// 25th percentile of the slice medians. A burst of interference that
// covers less than a quarter of the window cannot move them, while a
// change that slows every call moves them by the same factor. p99 is
// exact over every call of the window.
//
// The latency buffer is touched in full up front, so the benchmark's
// own bookkeeping adds the same resident memory to every run however
// many calls it completes.
class Window {
 public:
  static constexpr size_t kChunk = 50;
  static constexpr size_t kSlices = 20;
  static constexpr double kQpsQuantile = 75.0;
  static constexpr double kP50Quantile = 25.0;

  struct Stats {
    double qps = 0, p50_us = 0, p99_us = 0;
    size_t samples = 0;
    Samples slice_qps, slice_p50;
  };

  Window(size_t capacity, uint32_t requests_per_call)
      : requests_per_call_(requests_per_call) {
    latency_us_.resize(capacity);
    latency_us_.clear();
  }
  // `end_s`: completion time in seconds since the window opened.
  void Add(double end_s, double latency_us) {
    latency_us_.push_back(static_cast<float>(latency_us));
    if (latency_us_.size() % kChunk == 0) chunk_end_s_.push_back(end_s);
    last_end_s_ = end_s;
  }

  Stats Compute() const {
    Stats out;
    const size_t chunks = chunk_end_s_.size();
    // A window shorter than kSlices chunks is one slice of everything.
    const bool whole = chunks < kSlices;
    const size_t k = whole ? 1 : kSlices;
    Samples all;
    all.Reserve(latency_us_.size());
    for (size_t s = 0; s < k; ++s) {
      const size_t lo = s * chunks / k, hi = (s + 1) * chunks / k;
      const size_t first = lo * kChunk;
      const size_t last = whole ? latency_us_.size() : hi * kChunk;
      const double begin = lo == 0 ? 0.0 : chunk_end_s_[lo - 1];
      const double end = whole ? last_end_s_ : chunk_end_s_[hi - 1];
      Samples lat;
      lat.Reserve(last - first);
      for (size_t i = first; i < last; ++i) {
        lat.Add(latency_us_[i]);
        all.Add(latency_us_[i]);
      }
      const double requests =
          static_cast<double>((last - first) * requests_per_call_);
      out.slice_qps.Add(end > begin ? requests / (end - begin) : 0.0);
      out.slice_p50.Add(lat.Median());
      out.samples += last - first;
    }
    out.qps = out.slice_qps.Percentile(kQpsQuantile);
    out.p50_us = out.slice_p50.Percentile(kP50Quantile);
    out.p99_us = all.Percentile(99.0);
    return out;
  }

 private:
  uint32_t requests_per_call_;
  std::vector<float> latency_us_;
  std::vector<double> chunk_end_s_;
  double last_end_s_ = 0.0;
};

inline void PrintSlices(const Window::Stats& w) {
  std::printf("read slices (qps/p50_us):");
  for (size_t i = 0; i < w.slice_qps.size(); ++i) {
    std::printf(" %.0f/%.2f", w.slice_qps.values()[i],
                w.slice_p50.values()[i]);
  }
  std::printf("\n");
}

// getrusage's high-water resident set, in MiB (Linux reports KiB).
inline double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

// The machine's speed, measured with a fixed kernel the benchmark owns:
// sorting kKeys pseudo-random doubles. On a shared VM the same code runs
// up to about 1.6x faster in one few-minute period than in another (a
// quieter host, an idle sibling core), and every workload, the kernel
// included, moves by roughly the same factor. Between Start() and Stop()
// a thread of its own times the kernel once every kPeriod, through setup
// and the measured window alike, at well under 1% of one core. The
// median kernel time divided by kNominalMs is the run's slowdown; the
// gated timings are scaled by it, so they read as if the kernel had
// taken kNominalMs. No change to the library can move the kernel.
class SpeedReference {
 public:
  static constexpr size_t kKeys = 16384;
  static constexpr auto kPeriod = std::chrono::milliseconds(100);
  static constexpr double kNominalMs = 1.0;

  SpeedReference() : keys_(kKeys), work_(kKeys) {
    uint64_t x = 0x243f6a8885a308d3ULL;
    for (double& k : keys_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = static_cast<double>(x >> 11);
    }
  }
  ~SpeedReference() { Stop(); }

  void Start() {
    thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mu_);
      while (!cv_.wait_for(lock, kPeriod, [this] { return stop_; })) {
        std::copy(keys_.begin(), keys_.end(), work_.begin());
        const auto t0 = Clock::now();
        std::sort(work_.begin(), work_.end());
        const auto t1 = Clock::now();
        ms_.Add(Micros(t1 - t0) / 1e3);
        double median = work_[kKeys / 2];
        asm volatile("" : : "g"(median) : "memory");
      }
    });
  }
  void Stop() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  // Valid after Stop(); setup alone outlasts several periods, so there
  // is always a sample.
  double ms() const { return ms_.Median(); }
  size_t samples() const { return ms_.size(); }
  // > 1 when the machine ran slower than nominal.
  double slowdown() const { return ms() / kNominalMs; }

 private:
  std::vector<double> keys_, work_;
  Samples ms_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // Sample count behind a timing (0 for counts, ratios and gauges).
  size_t samples = 0;
};

// Everything one run reports. `metrics` is what the result line carries;
// `extra` is printed in the human-readable report only.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> extra;

  void Add(std::string name, double value, std::string unit,
           size_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void AddExtra(std::string name, double value, std::string unit,
                size_t samples = 0) {
    extra.push_back({std::move(name), value, std::move(unit), samples});
  }
};

inline void PrintMetricLine(const Metric& m) {
  if (m.samples > 0) {
    std::printf("  %-36s %16.6f %-8s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  } else {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// The gated timings, scaled to the nominal speed of the machine, and
// beside them, in the human-readable report only, as measured.
inline void AddScaledTimings(const Window::Stats& w, const Samples& setup_s,
                             const SpeedReference& speed, Report* report) {
  const double slow = speed.slowdown();
  report->Add("read_qps", w.qps * slow, "req/s", w.samples);
  report->Add("read_p50_us", w.p50_us / slow, "us", w.samples);
  report->Add("setup_s", setup_s.Median() / slow, "s", setup_s.size());
  report->AddExtra("speed_ref_ms", speed.ms(), "ms", speed.samples());
  report->AddExtra("measured_read_qps", w.qps, "req/s", w.samples);
  report->AddExtra("measured_read_p50_us", w.p50_us, "us", w.samples);
  report->AddExtra("measured_setup_s", setup_s.Median(), "s", setup_s.size());
  report->AddExtra("read_p99_us", w.p99_us, "us", w.samples);
}

// Human-readable table, then the JSON result as the last line.
inline void PrintReport(const std::string& workload, bool traced,
                        const Report& r) {
  std::printf("workload %s (%s run): %s, %llu attempted, %llu failed\n",
              workload.c_str(), traced ? "traced" : "untraced",
              r.correct ? "outputs correct" : "OUTPUTS WRONG",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const Metric& m : r.metrics) PrintMetricLine(m);
  if (!r.extra.empty()) {
    std::printf("  -- also measured (not in the result line):\n");
    for (const Metric& m : r.extra) PrintMetricLine(m);
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
