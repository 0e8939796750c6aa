// fed_churn: two hash shards of dynamic Theorem 2 in epoch mode behind a
// federate::Coordinator, each shard backed by an em::DurableStore on
// real files. One driver thread issues Zipf reads closed-loop; one
// writer thread sends paced inserts and erases through the WAL; one
// publisher thread rebuilds and publishes a shard every P acked ops.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.h"
#include "common/zipf.h"
#include "core/reduction_options.h"
#include "core/sampled_topk.h"
#include "em/durable_store.h"
#include "em/file_block_device.h"
#include "em/storage.h"
#include "federate/coordinator.h"
#include "layer_probe.h"
#include "range1d/dyn_pst.h"
#include "range1d/dyn_range_max.h"
#include "report.h"
#include "serve/cold_start.h"
#include "serve/engine.h"
#include "serve/epoch.h"
#include "serve/metrics.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace em = topk::em;
namespace fs = std::filesystem;
using topk::range1d::DynamicPst;
using topk::range1d::DynamicRangeMax;
using topk::range1d::Range1DProblem;
using Dyn = topk::SampledTopK<Range1DProblem, DynamicPst, DynamicRangeMax>;
using Engine = serve::QueryEngine<Dyn>;
using Epochs = serve::EpochManager<Dyn>;
using Coord = topk::federate::Coordinator<Dyn>;
using Store = em::DurableStore<Point1D>;

constexpr size_t kShards = 2;
constexpr size_t kTotal = size_t{1} << 15;
constexpr size_t kCacheEntries = 4096;
constexpr size_t kPredicates = 16384;
constexpr double kZipfSkew = 1.1;
constexpr size_t kReadDraws = size_t{1} << 20;
// Every kPhaseReads draws the Zipf ranks move to other predicates, so a
// run averages many draws of which predicates are popular (their widths,
// their k and their slots in the direct-mapped cache) instead of
// hanging on the seed's one draw.
constexpr size_t kPhaseReads = size_t{1} << 14;
constexpr size_t kPhaseStride = 1031;  // odd: the hot k cycles too
constexpr double kWritesPerSecond = 1000.0;
constexpr size_t kPublishEvery = 128;        // P, acked ops per shard
constexpr size_t kCheckpointsPerShard = 2;   // pinned per run
constexpr size_t kTailOps = 1024;            // WAL tail replayed at setup
constexpr size_t kPageBytes = 4096;
constexpr size_t kSetupReps = 31;
constexpr size_t kCheckCap = 400;
constexpr size_t kFanoutProbes = 512;
constexpr size_t kCoreProbes = 1024;
constexpr size_t kOverheadChunk = 1000;  // reads per chunk of a pair

uint64_t SplitMix(uint64_t x) {
  uint64_t z = x + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Placement by a SplitMix64 finaliser of the id: any disjoint split is
// valid for the coordinator, this one is balanced for dense ids.
size_t ShardOfId(uint64_t id) {
  return static_cast<size_t>(SplitMix(id) % kShards);
}

// Every build of a shard draws its own samples. With one fixed sampling
// seed, each rebuild of a slowly changing element set would redraw
// nearly the same samples, and one run would measure one draw's luck.
topk::ReductionOptions BuildOptions(uint64_t run_seed, size_t shard,
                                    uint64_t epoch) {
  return topk::ReductionOptions{
      .seed = SplitMix(run_seed ^ SplitMix(shard * 0x10000 + epoch))};
}

// Forwards every call unchanged to the wrapped storage and counts
// syncs and bytes written.
class CountingStorage final : public em::ByteStorage {
 public:
  explicit CountingStorage(em::ByteStorage* inner) : inner_(inner) {}
  uint64_t size() const override { return inner_->size(); }
  void Read(uint64_t offset, size_t len, uint8_t* out) const override {
    inner_->Read(offset, len, out);
  }
  [[nodiscard]] em::IoResult Write(uint64_t offset, const uint8_t* data,
                                   size_t len) override {
    bytes_written += len;
    return inner_->Write(offset, data, len);
  }
  [[nodiscard]] em::IoResult Sync() override {
    ++syncs;
    return inner_->Sync();
  }
  [[nodiscard]] em::IoResult Truncate(uint64_t new_size) override {
    return inner_->Truncate(new_size);
  }
  uint64_t syncs = 0;
  uint64_t bytes_written = 0;

 private:
  em::ByteStorage* inner_;
};

// Plain in-memory bytes, used only to lay out the durable image before
// the run (no per-record fsync); the result is copied to real files.
class ImageStorage final : public em::ByteStorage {
 public:
  uint64_t size() const override { return bytes_.size(); }
  void Read(uint64_t offset, size_t len, uint8_t* out) const override {
    std::copy_n(bytes_.begin() + static_cast<long>(offset), len, out);
  }
  [[nodiscard]] em::IoResult Write(uint64_t offset, const uint8_t* data,
                                   size_t len) override {
    if (offset + len > bytes_.size()) bytes_.resize(offset + len);
    std::copy_n(data, len, bytes_.begin() + static_cast<long>(offset));
    return em::IoResult::kOk;
  }
  [[nodiscard]] em::IoResult Sync() override { return em::IoResult::kOk; }
  [[nodiscard]] em::IoResult Truncate(uint64_t new_size) override {
    bytes_.resize(new_size);
    return em::IoResult::kOk;
  }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

struct ShardPaths {
  std::string pages, wal, manifest;
};

// One shard's durable store over real files, with counting wrappers.
struct DurableShard {
  explicit DurableShard(const ShardPaths& p)
      : pages_file(p.pages),
        wal_file(p.wal),
        manifest_file(p.manifest),
        pages(&pages_file),
        wal(&wal_file),
        manifest(&manifest_file),
        device(&pages, kPageBytes),
        store(&device, &pages, &wal, &manifest) {}
  em::FileStorage pages_file, wal_file, manifest_file;
  CountingStorage pages, wal, manifest;
  em::FileBlockDevice device;
  Store store;
  uint64_t syncs() const { return pages.syncs + wal.syncs + manifest.syncs; }
  uint64_t bytes_written() const {
    return pages.bytes_written + wal.bytes_written + manifest.bytes_written;
  }
};

struct Op {
  bool insert = true;
  Point1D point;
  size_t shard = 0;
};

// An element set that applies ops in O(1) (swap-remove on erase).
class LiveSet {
 public:
  explicit LiveSet(std::vector<Point1D> v) : v_(std::move(v)) {
    for (size_t i = 0; i < v_.size(); ++i) where_[v_[i].id] = i;
  }
  void Apply(const Op& op) {
    if (op.insert) {
      where_[op.point.id] = v_.size();
      v_.push_back(op.point);
      return;
    }
    const size_t i = where_.at(op.point.id);
    where_[v_.back().id] = i;
    v_[i] = v_.back();
    v_.pop_back();
    where_.erase(op.point.id);
  }
  const std::vector<Point1D>& elements() const { return v_; }

 private:
  std::vector<Point1D> v_;
  std::unordered_map<uint64_t, size_t> where_;
};

// Inserts and erases, 50/50; erases pick a uniformly random live id.
std::vector<Op> MakeOps(const std::vector<Point1D>& initial, size_t count,
                        topk::Rng* rng) {
  LiveSet live(initial);
  uint64_t next_id = 0;
  for (const Point1D& p : initial) next_id = std::max(next_id, p.id);
  std::vector<Op> ops(count);
  for (Op& op : ops) {
    const std::vector<Point1D>& now = live.elements();
    if (rng->Bernoulli(0.5) || now.empty()) {
      const double x = rng->NextDouble();
      op.insert = true;
      op.point = {x, rng->NextDouble() * 1e6, ++next_id};
    } else {
      op.insert = false;
      op.point = now[static_cast<size_t>(rng->Below(now.size()))];
    }
    op.shard = ShardOfId(op.point.id);
    live.Apply(op);
  }
  return ops;
}

// Lays out the durable image: the initial elements, one checkpoint,
// then a WAL tail of `tail` ops, written through the store into memory
// and copied to the shard's files in one synced write each.
void Provision(const ShardPaths& paths, const std::vector<Point1D>& initial,
               const std::vector<Op>& tail) {
  ImageStorage pages, wal, manifest;
  em::FileBlockDevice device(&pages, kPageBytes);
  Store store(&device, &pages, &wal, &manifest);
  store.Recover();
  bool ok = true;
  for (const Point1D& p : initial) ok = ok && store.Insert(p);
  ok = ok && store.Checkpoint();
  for (const Op& op : tail) {
    ok = ok && (op.insert ? store.Insert(op.point) : store.Erase(op.point.id));
  }
  TOPK_CHECK(ok);
  const std::pair<const ImageStorage*, std::string> files[] = {
      {&pages, paths.pages}, {&wal, paths.wal}, {&manifest, paths.manifest}};
  for (const auto& [image, path] : files) {
    em::FileStorage file(path);
    TOPK_CHECK(file.Write(0, image->bytes().data(), image->bytes().size()) ==
               em::IoResult::kOk);
    TOPK_CHECK(file.Sync() == em::IoResult::kOk);
  }
}

// The serving stack, in construction order (destroyed in reverse: the
// coordinator and engines release their epoch pins first).
struct Stack {
  std::vector<std::unique_ptr<DurableShard>> durable;
  std::vector<std::unique_ptr<Epochs>> epochs;
  std::vector<std::unique_ptr<serve::Metrics>> metrics;
  std::vector<std::unique_ptr<Engine>> engines;
  std::unique_ptr<Coord> coord;
};

struct SetupTimes {
  double total_s = 0, recover_ms = 0, cold_start_s = 0, build_s = 0;
  uint64_t wal_records_replayed = 0;
};

// Recover -> ColdStart -> engines -> coordinator.
std::unique_ptr<Stack> BuildStack(const std::vector<ShardPaths>& paths,
                                  uint64_t run_seed, SetupTimes* t) {
  auto stack = std::make_unique<Stack>();
  const auto t0 = Clock::now();
  for (size_t s = 0; s < kShards; ++s) {
    stack->durable.push_back(std::make_unique<DurableShard>(paths[s]));
    const auto r0 = Clock::now();
    const Store::RecoverStats rs = stack->durable[s]->store.Recover();
    t->recover_ms += Micros(Clock::now() - r0) / 1e3;
    t->wal_records_replayed += rs.wal_records_replayed;
  }
  std::vector<Coord::Shard> shards;
  for (size_t s = 0; s < kShards; ++s) {
    const auto c0 = Clock::now();
    stack->epochs.push_back(serve::ColdStart<Point1D>(
        stack->durable[s]->store.Elements(),
        [t, options = BuildOptions(run_seed, s, 1)](std::vector<Point1D> v) {
          const auto b0 = Clock::now();
          Dyn d(std::move(v), options);
          t->build_s += Seconds(Clock::now() - b0);
          return d;
        }));
    t->cold_start_s += Seconds(Clock::now() - c0);
    stack->metrics.push_back(std::make_unique<serve::Metrics>());
    stack->engines.push_back(std::make_unique<Engine>(
        stack->epochs[s].get(), Engine::Options{.num_threads = 1},
        stack->metrics[s].get()));
    shards.push_back({stack->engines[s].get(), stack->epochs[s].get()});
  }
  stack->coord = std::make_unique<Coord>(
      std::move(shards), Coord::Options{.cache_entries = kCacheEntries});
  t->total_s = Seconds(Clock::now() - t0);
  return stack;
}

// Writer and publisher state shared through one mutex.
struct Pipeline {
  struct Acked {
    Op op;
    Clock::time_point scheduled, acked;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Acked> pending[kShards];
  bool writer_done = false;
};

struct WriterOut {
  Samples write_us, late_us;
  uint64_t attempted = 0, acked = 0, checkpoints = 0;
  uint64_t acked_all = 0;  // warm-up included
};

struct PublisherOut {
  Samples visible_ms;
  uint64_t publishes = 0, publishes_in_window = 0;
  size_t live_epochs_max = 0;
  // applied[s][seq - 1]: how many of shard s's acked ops epoch seq holds.
  std::vector<size_t> applied[kShards];
};

void WriterLoop(Stack* stack, const std::vector<Op>& ops,
                Clock::time_point t_start, Clock::time_point window,
                size_t checkpoint_every, Pipeline* pipe, SpanLog* log,
                WriterOut* out) {
  size_t since_checkpoint[kShards] = {};
  size_t checkpoints[kShards] = {};
  const auto period = std::chrono::duration<double>(1.0 / kWritesPerSecond);
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const auto scheduled =
        t_start + std::chrono::duration_cast<Clock::duration>(
                      period * static_cast<double>(i));
    std::this_thread::sleep_until(scheduled);
    const auto sent = Clock::now();
    ScopedSpan write(log, "write", i);
    Store& store = stack->durable[op.shard]->store;
    const bool ok =
        op.insert ? store.Insert(op.point) : store.Erase(op.point.id);
    const auto acked = Clock::now();
    log->Record("em.append", i, sent, acked);
    const bool measured = scheduled >= window;
    if (measured) ++out->attempted;
    if (!ok) {
      // Un-acked: later ops may depend on this one, so stop; every
      // remaining scheduled op counts as failed.
      out->attempted += ops.size() - i - 1;
      break;
    }
    ++out->acked_all;
    if (measured) {
      ++out->acked;
      out->write_us.Add(Micros(acked - scheduled));
      out->late_us.Add(Micros(sent - scheduled));
    }
    {
      std::lock_guard<std::mutex> lock(pipe->mu);
      pipe->pending[op.shard].push_back({op, scheduled, acked});
      if (pipe->pending[op.shard].size() >= kPublishEvery) {
        pipe->cv.notify_one();
      }
    }
    if (++since_checkpoint[op.shard] == checkpoint_every &&
        checkpoints[op.shard] < kCheckpointsPerShard) {
      since_checkpoint[op.shard] = 0;
      ++checkpoints[op.shard];
      const auto c0 = Clock::now();
      const bool cok = store.Checkpoint();
      log->Record("em.checkpoint", i, c0, Clock::now());
      ++out->checkpoints;
      TOPK_CHECK(cok);
    }
  }
  std::lock_guard<std::mutex> lock(pipe->mu);
  pipe->writer_done = true;
  pipe->cv.notify_one();
}

void PublisherLoop(Stack* stack, uint64_t run_seed,
                   std::vector<LiveSet>* live, Clock::time_point window,
                   Pipeline* pipe, SpanLog* log, PublisherOut* out) {
  size_t next = 0;
  for (uint64_t seq = 0;; ++seq) {
    std::vector<Pipeline::Acked> chunk;
    size_t shard = 0;
    {
      std::unique_lock<std::mutex> lock(pipe->mu);
      auto ready = [&](size_t s) {
        return pipe->pending[s].size() >= kPublishEvery ||
               (pipe->writer_done && !pipe->pending[s].empty());
      };
      auto any_ready = [&] {
        for (size_t s = 0; s < kShards; ++s) {
          if (ready(s)) return true;
        }
        return false;
      };
      pipe->cv.wait(lock, [&] { return any_ready() || pipe->writer_done; });
      if (!any_ready()) return;  // writer done and everything published
      while (!ready(next)) next = (next + 1) % kShards;
      shard = next;
      next = (next + 1) % kShards;
      std::deque<Pipeline::Acked>& q = pipe->pending[shard];
      const size_t take = pipe->writer_done
                              ? q.size()
                              : q.size() / kPublishEvery * kPublishEvery;
      chunk.assign(q.begin(), q.begin() + static_cast<long>(take));
      q.erase(q.begin(), q.begin() + static_cast<long>(take));
    }
    LiveSet& set = (*live)[shard];
    for (const Pipeline::Acked& a : chunk) set.Apply(a.op);
    ScopedSpan publish(log, "publish", seq);
    const auto b0 = Clock::now();
    const uint64_t seq_next = out->applied[shard].size() + 1;
    Dyn next_epoch(set.elements(), BuildOptions(run_seed, shard, seq_next));
    const auto b1 = Clock::now();
    const uint64_t epoch = stack->epochs[shard]->Publish(std::move(next_epoch));
    const auto b2 = Clock::now();
    log->Record("core.rebuild", seq, b0, b1);
    log->Record("epoch.publish", seq, b1, b2);
    ++out->publishes;
    if (b2 >= window) ++out->publishes_in_window;
    out->live_epochs_max =
        std::max(out->live_epochs_max, stack->epochs[shard]->live_epochs());
    for (const Pipeline::Acked& a : chunk) {
      if (a.scheduled >= window) {
        out->visible_ms.Add(Micros(b2 - a.acked) / 1e3);
      }
    }
    TOPK_CHECK_EQ(epoch, seq_next);
    out->applied[shard].push_back(out->applied[shard].back() + chunk.size());
  }
}

// What the coordinator counted between two stats() snapshots.
Coord::Stats StatsSince(const Coord::Stats& a, const Coord::Stats& b) {
  Coord::Stats d;
  d.queries = b.queries - a.queries;
  d.rounds = b.rounds - a.rounds;
  d.shard_fetches = b.shard_fetches - a.shard_fetches;
  d.elements_pulled = b.elements_pulled - a.elements_pulled;
  d.elements_transferred = b.elements_transferred - a.elements_transferred;
  d.cache_hits = b.cache_hits - a.cache_hits;
  d.cache_misses = b.cache_misses - a.cache_misses;
  d.cache_invalidations = b.cache_invalidations - a.cache_invalidations;
  d.unstable_retries = b.unstable_retries - a.unstable_retries;
  d.exhaustive_fallbacks = b.exhaustive_fallbacks - a.exhaustive_fallbacks;
  return d;
}

uint64_t DiskBytes(const std::vector<ShardPaths>& paths) {
  uint64_t total = 0;
  for (const ShardPaths& p : paths) {
    total += fs::file_size(p.pages) + fs::file_size(p.wal) +
             fs::file_size(p.manifest);
  }
  return total;
}

}  // namespace

void RunFedChurn(const Args& args, Report* report, LayerValues* layers) {
  const fs::path dir = fs::path(args.work_dir) /
                       ("fed_churn-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<ShardPaths> paths(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    const std::string base = (dir / ("shard" + std::to_string(s))).string();
    paths[s] = {base + ".pages", base + ".wal", base + ".manifest"};
  }

  // Inputs, all from the seed: initial elements, the WAL tail written
  // before the run, the run's ops, read predicates and Zipf draws.
  topk::Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 3);
  const std::vector<Point1D> initial = MakePoints(kTotal, &rng);
  const size_t run_ops = static_cast<size_t>(
      kWritesPerSecond * (kWarmupSeconds + args.seconds));
  const std::vector<Op> all_ops =
      MakeOps(initial, kTailOps + run_ops, &rng);
  const std::vector<Op> tail(all_ops.begin(),
                             all_ops.begin() + static_cast<long>(kTailOps));
  const std::vector<Op> ops(all_ops.begin() + static_cast<long>(tail.size()),
                            all_ops.end());
  std::vector<Range1D> predicates(kPredicates);
  for (Range1D& q : predicates) {
    double lo = rng.NextDouble(), hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    q = {lo, hi};
  }
  auto k_of = [](size_t pred) -> size_t { return pred % 16 == 0 ? 256 : 16; };
  const topk::ZipfDistribution zipf(kPredicates, kZipfSkew);
  std::vector<uint32_t> draws(kReadDraws);
  for (size_t i = 0; i < kReadDraws; ++i) {
    const size_t shift = i / kPhaseReads * kPhaseStride;
    draws[i] = static_cast<uint32_t>((zipf.Next(&rng) + shift) % kPredicates);
  }

  // Untimed provisioning of the durable image.
  {
    std::vector<std::vector<Point1D>> parts(kShards);
    std::vector<std::vector<Op>> tails(kShards);
    for (const Point1D& p : initial) parts[ShardOfId(p.id)].push_back(p);
    for (const Op& op : tail) tails[op.shard].push_back(op);
    for (size_t s = 0; s < kShards; ++s) {
      Provision(paths[s], parts[s], tails[s]);
    }
  }

  // The machine's speed is sampled through setup and the window.
  SpeedReference speed;
  speed.Start();

  // Setup, repeated; the last stack serves.
  Samples setup_s, recover_ms, cold_start_s, build_s;
  std::unique_ptr<Stack> stack;
  SetupTimes times;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    times = SetupTimes{};
    stack = BuildStack(paths, args.seed, &times);
    setup_s.Add(times.total_s);
    recover_ms.Add(times.recover_ms);
    cold_start_s.Add(times.cold_start_s);
    build_s.Add(times.build_s);
  }

  // The writer's and publisher's starting state: what recovery found
  // (epoch 1 of every shard).
  std::vector<LiveSet> live;
  std::vector<std::vector<Point1D>> recovered_at_start;
  PublisherOut pub;
  for (size_t s = 0; s < kShards; ++s) {
    recovered_at_start.push_back(stack->durable[s]->store.Elements());
    live.emplace_back(recovered_at_start.back());
    pub.applied[s].push_back(0);
  }
  size_t shard_ops[kShards] = {};
  for (const Op& op : ops) ++shard_ops[op.shard];
  const size_t checkpoint_every =
      std::max<size_t>(1, std::min(shard_ops[0], shard_ops[1]) /
                              (kCheckpointsPerShard + 1));
  const uint64_t syncs0 =
      stack->durable[0]->syncs() + stack->durable[1]->syncs();
  const uint64_t bytes0 = stack->durable[0]->bytes_written() +
                          stack->durable[1]->bytes_written();

  // The traced run traces the writer and publisher through the whole
  // window, and the reads in alternating chunks (OverheadPairs).
  const Clock::time_point origin = Clock::now();
  std::atomic<bool> read_tracing{false}, side_tracing{false};
  SpanLog read_log(origin, &read_tracing, 1 << 21);
  SpanLog writer_log(origin, &side_tracing, 1 << 16);
  SpanLog publisher_log(origin, &side_tracing, 1 << 12);
  Pipeline pipe;
  WriterOut wout;
  const auto t_start = Clock::now() + std::chrono::milliseconds(5);
  const auto window =
      t_start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(kWarmupSeconds));
  const auto end = window + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(args.seconds));
  std::thread writer(WriterLoop, stack.get(), std::cref(ops), t_start, window,
                     checkpoint_every, &pipe, &writer_log, &wout);
  std::thread publisher(PublisherLoop, stack.get(), args.seed, &live, window,
                        &pipe, &publisher_log, &pub);

  // Reads: warm-up until the window opens, then measured.
  Coord& coord = *stack->coord;
  std::vector<Point1D> out;
  std::vector<KeptAnswer> kept;
  Window window_reads(static_cast<size_t>(args.seconds * 60000) + 1, 1);
  uint64_t reads = 0, not_ok = 0, miss_k = 0;
  size_t d = 0;
  while (Clock::now() < window) {
    const size_t pred = draws[d++ % kReadDraws];
    coord.QueryInto(predicates[pred], k_of(pred), &out);
  }
  side_tracing.store(args.trace);
  const Coord::Stats stats0 = coord.stats();
  Clock::time_point last = Clock::now();
  const Clock::time_point read_start = last;
  OverheadPairs overhead(read_start, kOverheadChunk);
  for (uint64_t seq = 0; last < end; ++seq) {
    if (args.trace) read_tracing.store(overhead.Traced(seq));
    const size_t pred = draws[d++ % kReadDraws];
    const size_t k = k_of(pred);
    ScopedSpan read(&read_log, "read", seq);
    const uint64_t hits = coord.stats().cache_hits;
    const auto t0 = Clock::now();
    const serve::ResultStatus status = coord.QueryInto(predicates[pred], k, &out);
    const auto t1 = Clock::now();
    const bool hit = coord.stats().cache_hits != hits;
    read_log.Record(hit ? "federate.hit" : "federate.miss", seq, t0, t1);
    if (!hit) miss_k += k;
    window_reads.Add(Seconds(t1 - read_start), Micros(t1 - t0));
    overhead.Done(seq, t1);
    ++reads;
    if (status != serve::ResultStatus::kOk) ++not_ok;
    if (seq % 64 == 0) {
      KeptAnswer a{predicates[pred], k, Fingerprint(out), {0, 0}};
      for (size_t s = 0; s < kShards; ++s) a.seqs[s] = coord.last_epoch_seqs()[s];
      kept.push_back(a);
    }
    last = t1;
  }
  const Coord::Stats fstats = StatsSince(stats0, coord.stats());
  const double peak_rss_mb = PeakRssMb();  // before the checks allocate
  writer.join();
  publisher.join();
  speed.Stop();
  read_tracing.store(args.trace);

  // Correctness 1: every kept read equals brute force over the
  // per-shard snapshots its answer names. Snapshot (s, seq) is shard s's
  // recovered set plus its first applied[s][seq - 1] acked ops; reads
  // are checked in order, so each shard's set only ever moves forward.
  std::vector<std::vector<Op>> ops_of(kShards);
  for (const Op& op : ops) ops_of[op.shard].push_back(op);
  std::vector<LiveSet> at;
  std::vector<size_t> at_ops(kShards, 0);
  for (size_t s = 0; s < kShards; ++s) at.emplace_back(recovered_at_start[s]);
  for (size_t i : Spread(kept.size(), kCheckCap)) {
    const KeptAnswer& a = kept[i];
    std::vector<Point1D> pool;
    for (size_t s = 0; s < kShards; ++s) {
      TOPK_CHECK(a.seqs[s] >= 1 && a.seqs[s] <= pub.applied[s].size());
      const size_t want = pub.applied[s][a.seqs[s] - 1];
      if (want < at_ops[s]) {  // an older epoch than the last check
        at[s] = LiveSet(recovered_at_start[s]);
        at_ops[s] = 0;
      }
      for (; at_ops[s] < want; ++at_ops[s]) at[s].Apply(ops_of[s][at_ops[s]]);
      for (const Point1D& p : at[s].elements()) {
        if (a.range.lo <= p.x && p.x <= a.range.hi) pool.push_back(p);
      }
    }
    if (Fingerprint(Oracle::TopKOfPool(std::move(pool), a.k)) !=
        a.fingerprint) {
      std::fprintf(stderr,
                   "wrong answer: range [%.17g, %.17g] k=%zu epochs %llu/%llu\n",
                   a.range.lo, a.range.hi, a.k,
                   static_cast<unsigned long long>(a.seqs[0]),
                   static_cast<unsigned long long>(a.seqs[1]));
      report->correct = false;
    }
  }

  // Correctness 2: recovery on fresh store objects reproduces exactly
  // the acked element set.
  {
    std::map<uint64_t, Point1D> expected;
    for (const std::vector<Point1D>& part : recovered_at_start) {
      for (const Point1D& p : part) expected[p.id] = p;
    }
    for (size_t i = 0; i < wout.acked_all; ++i) {
      if (ops[i].insert) {
        expected[ops[i].point.id] = ops[i].point;
      } else {
        expected.erase(ops[i].point.id);
      }
    }
    std::vector<Point1D> recovered;
    for (size_t s = 0; s < kShards; ++s) {
      DurableShard fresh(paths[s]);
      fresh.store.Recover();
      const std::vector<Point1D> e = fresh.store.Elements();
      recovered.insert(recovered.end(), e.begin(), e.end());
    }
    std::sort(recovered.begin(), recovered.end(),
              [](const Point1D& a, const Point1D& b) { return a.id < b.id; });
    bool same = recovered.size() == expected.size();
    size_t i = 0;
    for (auto it = expected.begin(); same && it != expected.end(); ++it, ++i) {
      const Point1D& r = recovered[i];
      same = r.id == it->second.id && r.x == it->second.x &&
             r.weight == it->second.weight;
    }
    if (!same) {
      std::fprintf(stderr, "recovery mismatch: %zu recovered, %zu acked\n",
                   recovered.size(), expected.size());
      report->correct = false;
    }
  }

  const uint64_t live_total = live[0].elements().size() +
                              live[1].elements().size();
  const uint64_t disk = DiskBytes(paths);
  const double space_amp =
      Ratio(double(disk), double(live_total) * double(sizeof(Point1D)));
  const uint64_t write_failed = wout.attempted - wout.acked;
  report->attempted = reads + wout.attempted;
  report->failed = not_ok + write_failed;
  const double error_rate =
      Ratio(double(report->failed), double(report->attempted));
  const Window::Stats w = window_reads.Compute();

  if (!args.trace) {
    PrintSlices(w);
    AddScaledTimings(w, setup_s, speed, report);
    report->Add("peak_rss_mb", peak_rss_mb, "MiB");
    report->AddExtra("write_p50_us", wout.write_us.Median(), "us",
                     wout.write_us.size());
    report->AddExtra("write_p99_us", wout.write_us.Percentile(99.0), "us",
                     wout.write_us.size());
    report->AddExtra("visible_p99_ms", pub.visible_ms.Percentile(99.0), "ms",
                     pub.visible_ms.size());
    report->AddExtra("durable_space_amp", space_amp, "ratio");
    report->AddExtra("error_rate", error_rate, "ratio");
    report->AddExtra("hit_ratio",
                     Ratio(double(fstats.cache_hits), double(fstats.queries)),
                     "ratio");
    report->AddExtra("checkpoints", double(wout.checkpoints), "count");
    fs::remove_all(dir);
    return;
  }

  // Traced run.
  LayerValues& L = *layers;
  L["trace.overhead_pct"] = overhead.Percent();
  L["e2e.read_p99_us"] = w.p99_us;
  L["driver.speed_ref_ms"] = speed.ms();
  L["e2e.write_p50_us"] = wout.write_us.Median();
  L["e2e.write_p99_us"] = wout.write_us.Percentile(99.0);
  L["e2e.visible_p99_ms"] = pub.visible_ms.Percentile(99.0);
  L["e2e.durable_space_amp"] = space_amp;
  L["e2e.error_rate"] = error_rate;
  L["driver.writer_late_us_p99"] = wout.late_us.Percentile(99.0);
  L["serve.not_ok"] = double(not_ok);

  const std::vector<uint64_t> read_self = SelfTimesNs(read_log.spans());
  const SpanSummary hit_spans =
      Summarize(read_log.spans(), read_self, "federate.hit");
  const SpanSummary miss_spans =
      Summarize(read_log.spans(), read_self, "federate.miss");
  L["driver.read_self_us"] =
      Summarize(read_log.spans(), read_self, "read").self_us.Mean();
  const double misses = double(fstats.cache_misses);
  L["federate.hit_ratio"] =
      Ratio(double(fstats.cache_hits), double(fstats.queries));
  L["federate.invalidations_per_publish"] =
      Ratio(double(fstats.cache_invalidations),
            double(pub.publishes_in_window));
  L["federate.hit_us_p50"] = hit_spans.dur_us.Median();
  L["federate.miss_us_p50"] = miss_spans.dur_us.Median();
  L["federate.miss_us_p99"] = miss_spans.dur_us.Percentile(99.0);
  L["federate.rounds_per_miss"] = Ratio(double(fstats.rounds), misses);
  L["federate.shard_fetches_per_miss"] =
      Ratio(double(fstats.shard_fetches), misses);
  L["federate.pull_ratio"] = Ratio(double(fstats.elements_pulled),
                                   double(kShards) * double(miss_k));
  L["federate.unstable_retries"] = double(fstats.unstable_retries);
  L["federate.exhaustive_fallbacks"] = double(fstats.exhaustive_fallbacks);

  const std::vector<uint64_t> writer_self = SelfTimesNs(writer_log.spans());
  const SpanSummary append =
      Summarize(writer_log.spans(), writer_self, "em.append");
  const SpanSummary checkpoint =
      Summarize(writer_log.spans(), writer_self, "em.checkpoint");
  const std::vector<uint64_t> pub_self = SelfTimesNs(publisher_log.spans());
  const SpanSummary rebuild =
      Summarize(publisher_log.spans(), pub_self, "core.rebuild");
  const SpanSummary publish =
      Summarize(publisher_log.spans(), pub_self, "epoch.publish");
  L["em.ack_us_p50"] = append.dur_us.Median();
  L["em.ack_us_p99"] = append.dur_us.Percentile(99.0);
  const uint64_t acks_all = wout.acked_all;
  const uint64_t syncs =
      stack->durable[0]->syncs() + stack->durable[1]->syncs() - syncs0;
  const uint64_t bytes = stack->durable[0]->bytes_written() +
                         stack->durable[1]->bytes_written() - bytes0;
  L["em.syncs_per_ack"] = Ratio(double(syncs), double(acks_all));
  L["em.bytes_written_per_ack"] = Ratio(double(bytes), double(acks_all));
  L["em.checkpoint_ms"] = checkpoint.dur_us.Median() / 1e3;
  L["em.checkpoints"] = double(wout.checkpoints);
  L["em.recover_ms"] = recover_ms.Median();
  L["em.wal_records_replayed"] = double(times.wal_records_replayed);
  L["em.disk_bytes"] = double(disk);
  L["core.rebuild_ms"] = rebuild.dur_us.Median() / 1e3;
  L["core.build_s"] = build_s.Median();
  L["epoch.publish_us"] = publish.dur_us.Median();
  L["epoch.live_epochs_max"] = double(pub.live_epochs_max);
  L["epoch.cold_start_s"] = cold_start_s.Median();

  // Fan-out self time: a cache-less coordinator's miss minus the slowest
  // shard's direct one-request engine call for the same (q, k).
  {
    Coord probe({{stack->engines[0].get(), stack->epochs[0].get()},
                 {stack->engines[1].get(), stack->epochs[1].get()}},
                Coord::Options{});
    std::vector<serve::Request<Range1D>> one(1);
    std::vector<Engine::Result> slots;
    Samples fanout_self;
    for (size_t i = 0; i < kFanoutProbes + 64; ++i) {
      const size_t pred = i % kPredicates;
      const auto t0 = Clock::now();
      probe.QueryInto(predicates[pred], k_of(pred), &out);
      const auto t1 = Clock::now();
      read_log.Record("federate.probe_miss", i, t0, t1);
      double slowest = 0.0;
      one[0] = serve::Request<Range1D>{predicates[pred], k_of(pred)};
      for (size_t s = 0; s < kShards; ++s) {
        const auto e0 = Clock::now();
        stack->engines[s]->QueryBatchInto(one, &slots);
        const auto e1 = Clock::now();
        read_log.Record("serve.shard_batch", i, e0, e1);
        slowest = std::max(slowest, Micros(e1 - e0));
      }
      if (i >= 64) fanout_self.Add(Micros(t1 - t0) - slowest);  // warm-up
    }
    L["federate.fanout_self_us"] = fanout_self.Median();
  }

  // Layers under one shard: a static build of shard 0's final elements,
  // probed with the workload's own predicates.
  {
    const std::vector<Point1D>& data = live[0].elements();
    const Dyn shard0(data);
    const Oracle oracle(data);
    std::vector<serve::Request<Range1D>> probe(kCoreProbes);
    for (size_t i = 0; i < kCoreProbes; ++i) {
      const size_t pred = draws[i];
      probe[i] = serve::Request<Range1D>{predicates[pred], k_of(pred)};
    }
    const ProbeResult pr =
        ProbeLayers(shard0, oracle, data, probe, &read_log, layers);
    if (!pr.correct) report->correct = false;
  }
  WriteSpans(args, read_log.spans(), SelfTimesNs(read_log.spans()));
  stack.reset();
  fs::remove_all(dir);
}

}  // namespace perfbench
