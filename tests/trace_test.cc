// src/trace/: span nesting/ordering invariants, bounded-buffer drop
// accounting, counter-argument merging, the QueryStats self-attribution
// telescoping contract on the real reductions, and the shape of the
// Chrome trace-event export.

#include "trace/tracer.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stats.h"
#include "common/scratch.h"
#include "core/core_set_topk.h"
#include "core/counting_topk.h"
#include "core/sampled_topk.h"
#include "range1d/count_tree.h"
#include "range1d/point1d.h"
#include "range1d/pst.h"
#include "range1d/range_max.h"
#include "test_util.h"
#include "trace/chrome_json.h"

namespace topk {
namespace {

using range1d::Point1D;
using range1d::PrioritySearchTree;
using range1d::Range1D;
using range1d::Range1DProblem;
using range1d::RangeMax;
using trace::Tracer;

uint64_t ArgOr0(const Tracer::Event& e, const char* name) {
  for (size_t i = 0; i < e.num_args; ++i) {
    if (std::strcmp(e.arg_names[i], name) == 0) return e.arg_values[i];
  }
  return 0;
}

bool HasArg(const Tracer::Event& e, const char* name) {
  for (size_t i = 0; i < e.num_args; ++i) {
    if (std::strcmp(e.arg_names[i], name) == 0) return true;
  }
  return false;
}

// The cost-attribution contract: summed over every span, the per-field
// self counts reproduce the query's QueryStats totals exactly.
QueryStats SumSelfCounts(const Tracer& tracer) {
  QueryStats sum;
  for (const Tracer::Event& e : tracer.events()) {
    if (e.kind != Tracer::EventKind::kSpan) continue;
    QueryStats::ForEachField([&sum, &e](const char* name, auto member) {
      sum.*member += ArgOr0(e, name);
    });
  }
  return sum;
}

void ExpectStatsEqual(const QueryStats& want, const QueryStats& got) {
  QueryStats::ForEachField([&](const char* name, auto member) {
    EXPECT_EQ(want.*member, got.*member) << "field " << name;
  });
}

TEST(Tracer, SpansCloseInLifoOrderWithParentIds) {
  Tracer tracer(16);
  {
    trace::Span root(&tracer, "root");
    EXPECT_EQ(tracer.open_depth(), 1u);
    {
      trace::Span child(&tracer, "child");
      trace::Span grandchild(&tracer, "grandchild");
      EXPECT_EQ(tracer.open_depth(), 3u);
    }
    trace::Span sibling(&tracer, "sibling");
  }
  EXPECT_EQ(tracer.open_depth(), 0u);
  ASSERT_EQ(tracer.events().size(), 4u);
  // Close order: grandchild, child, sibling, root.
  EXPECT_STREQ(tracer.events()[0].name, "grandchild");
  EXPECT_STREQ(tracer.events()[1].name, "child");
  EXPECT_STREQ(tracer.events()[2].name, "sibling");
  EXPECT_STREQ(tracer.events()[3].name, "root");
  const uint64_t root_id = tracer.events()[3].id;
  const uint64_t child_id = tracer.events()[1].id;
  EXPECT_EQ(tracer.events()[3].parent, 0u);
  EXPECT_EQ(tracer.events()[1].parent, root_id);
  EXPECT_EQ(tracer.events()[0].parent, child_id);
  EXPECT_EQ(tracer.events()[2].parent, root_id);
  // A span starts no later than it ends and contains its children.
  const Tracer::Event& root_e = tracer.events()[3];
  const Tracer::Event& gc_e = tracer.events()[0];
  EXPECT_LE(root_e.start_ns, gc_e.start_ns);
  EXPECT_GE(root_e.start_ns + root_e.dur_ns, gc_e.start_ns + gc_e.dur_ns);
}

TEST(Tracer, InstantsAttachToEnclosingSpan) {
  Tracer tracer(16);
  trace::Instant(&tracer, "orphan");  // top level: parent 0
  uint64_t root_id = 0;
  {
    trace::Span root(&tracer, "root");
    trace::Instant(&tracer, "inside");
  }
  ASSERT_EQ(tracer.events().size(), 3u);
  EXPECT_EQ(tracer.events()[0].kind, Tracer::EventKind::kInstant);
  EXPECT_EQ(tracer.events()[0].parent, 0u);
  root_id = tracer.events()[2].id;
  EXPECT_STREQ(tracer.events()[1].name, "inside");
  EXPECT_EQ(tracer.events()[1].parent, root_id);
  EXPECT_EQ(tracer.events()[1].dur_ns, 0u);
}

TEST(Tracer, BufferFullDropsNewestAndCounts) {
  Tracer tracer(2);
  for (int i = 0; i < 4; ++i) trace::Instant(&tracer, "tick");
  EXPECT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 2u);
  tracer.Clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
  trace::Instant(&tracer, "tick");
  EXPECT_EQ(tracer.events().size(), 1u);
}

TEST(Tracer, CounterArgsMergeByName) {
  Tracer tracer(16);
  {
    trace::Span span(&tracer, "io");
    trace::Count(&tracer, "em_read", 1);
    trace::Count(&tracer, "em_read", 2);
    trace::Count(&tracer, "em_write", 5);
  }
  // A count with no open span has nothing to attach to: dropped.
  trace::Count(&tracer, "em_read", 99);
  ASSERT_EQ(tracer.events().size(), 1u);
  const Tracer::Event& e = tracer.events()[0];
  EXPECT_EQ(e.num_args, 2u);
  EXPECT_EQ(ArgOr0(e, "em_read"), 3u);
  EXPECT_EQ(ArgOr0(e, "em_write"), 5u);
}

TEST(Tracer, NullTracerPathIsANoop) {
  // Every helper must tolerate a null tracer (the disabled hot path).
  trace::Span span(nullptr, "nothing");
  span.Arg("x", 1);
  trace::Count(nullptr, "y", 2);
  trace::Instant(nullptr, "z");
}

TEST(Tracer, SelfCountsSubtractChildGrowth) {
  Tracer tracer(16);
  QueryStats stats;
  {
    trace::Span parent(&tracer, "parent", &stats);
    stats.nodes_visited += 10;
    {
      trace::Span child(&tracer, "child", &stats);
      stats.nodes_visited += 7;
      stats.elements_emitted += 3;
    }
    stats.nodes_visited += 5;
  }
  ASSERT_EQ(tracer.events().size(), 2u);
  const Tracer::Event& child = tracer.events()[0];
  const Tracer::Event& parent = tracer.events()[1];
  EXPECT_EQ(ArgOr0(child, "nodes_visited"), 7u);
  EXPECT_EQ(ArgOr0(child, "elements_emitted"), 3u);
  EXPECT_EQ(ArgOr0(parent, "nodes_visited"), 15u);  // 10 + 5, child's 7 out
  EXPECT_FALSE(HasArg(parent, "elements_emitted"));  // zero self: omitted
  ExpectStatsEqual(stats, SumSelfCounts(tracer));
}

TEST(Tracer, SelfCountsTelescopeOnTheorem1) {
  Rng rng(7);
  std::vector<Point1D> data = test::RandomPoints1D(4096, &rng);
  CoreSetTopK<Range1DProblem, PrioritySearchTree> topk(data);
  Tracer tracer(1 << 14);
  Rng qrng(8);
  for (int rep = 0; rep < 20; ++rep) {
    const double a = qrng.NextDouble();
    const double b = qrng.NextDouble();
    const Range1D q{std::min(a, b), std::max(a, b)};
    const size_t k = 1 + qrng.Below(200);
    QueryStats stats;
    auto got = topk.Query(q, k, &stats, &tracer);
    auto want = test::BruteTopK<Range1DProblem>(data, q, k);
    EXPECT_EQ(test::IdsOf(got), test::IdsOf(want));
    ASSERT_EQ(tracer.dropped(), 0u);
    ASSERT_EQ(tracer.open_depth(), 0u);
    ExpectStatsEqual(stats, SumSelfCounts(tracer));
    // The root span records which route answered the query.
    const Tracer::Event& root = tracer.events().back();
    EXPECT_STREQ(root.name, "thm1_query");
    EXPECT_EQ(ArgOr0(root, "k"), k);
    EXPECT_TRUE(HasArg(root, "answered_by"));
    EXPECT_LE(ArgOr0(root, "answered_by"), 4u);
    tracer.Clear();
  }
}

// The explain record: one `answered_by` per query, naming each of the
// five routes on queries built to take it, and the fallback value
// exactly when QueryStats counts a fallback.
TEST(Tracer, Theorem1AnsweredByNamesTheRoute) {
  using TopK = CoreSetTopK<Range1DProblem, PrioritySearchTree>;
  Rng rng(12);
  const size_t n = 30000;
  std::vector<Point1D> data = test::RandomPoints1D(n, &rng);
  uint64_t seen[5] = {};
  // Small constants: f = 190, a deep large-k ladder and a few unlucky
  // core-sets, so every route shows up among these queries.
  for (const double scale : {0.05, 0.01}) {
    ReductionOptions opts;
    opts.constant_scale = scale;
    opts.seed = 99;
    TopK topk(data, opts);
    Tracer tracer(1 << 12);
    Rng qrng(13);
    for (int rep = 0; rep < 60; ++rep) {
      double a = qrng.NextDouble(), b = qrng.NextDouble();
      if (a > b) std::swap(a, b);
      if (rep % 3 == 0) b = a + 0.01;  // narrow: |q(D)| ~ 300
      const size_t k = rep % 5 == 0   ? n / 2
                       : rep % 2 == 0 ? 1 + qrng.Below(topk.f())
                                      : topk.f() + 1 + qrng.Below(2000);
      QueryStats stats;
      auto got = topk.Query({a, b}, k, &stats, &tracer);
      ASSERT_EQ(test::IdsOf(got),
                test::IdsOf(test::BruteTopK<Range1DProblem>(data, {a, b}, k)));
      ASSERT_EQ(tracer.dropped(), 0u);
      ExpectStatsEqual(stats, SumSelfCounts(tracer));
      const Tracer::Event& root = tracer.events().back();
      ASSERT_STREQ(root.name, "thm1_query");
      ASSERT_TRUE(HasArg(root, "answered_by"));
      const uint64_t by = ArgOr0(root, "answered_by");
      ASSERT_LE(by, 4u);
      ++seen[by];
      EXPECT_EQ(by == TopK::kAnsweredByFallback, stats.fallbacks == 1);
      EXPECT_EQ(by == TopK::kAnsweredByFullScan, stats.full_scans == 1);
      if (k <= topk.f()) {
        EXPECT_TRUE(by == TopK::kAnsweredByChain ||
                    by == TopK::kAnsweredByFallback);
      }
      tracer.Clear();
    }
  }
  for (uint64_t by = 0; by < 5; ++by) {
    EXPECT_GT(seen[by], 0u) << "answered_by=" << by;
  }
}

TEST(Tracer, SelfCountsTelescopeOnTheorem2) {
  Rng rng(9);
  std::vector<Point1D> data = test::RandomPoints1D(4096, &rng);
  SampledTopK<Range1DProblem, PrioritySearchTree, RangeMax> topk(data);
  Tracer tracer(1 << 14);
  Rng qrng(10);
  for (int rep = 0; rep < 20; ++rep) {
    const double a = qrng.NextDouble();
    const double b = qrng.NextDouble();
    const Range1D q{std::min(a, b), std::max(a, b)};
    const size_t k = 1 + qrng.Below(200);
    QueryStats stats;
    auto got = topk.Query(q, k, &stats, &tracer);
    auto want = test::BruteTopK<Range1DProblem>(data, q, k);
    EXPECT_EQ(test::IdsOf(got), test::IdsOf(want));
    ASSERT_EQ(tracer.dropped(), 0u);
    ASSERT_EQ(tracer.open_depth(), 0u);
    ExpectStatsEqual(stats, SumSelfCounts(tracer));
    // Every recorded round carries a verdict code.
    for (const Tracer::Event& e : tracer.events()) {
      if (e.kind == Tracer::EventKind::kSpan &&
          std::strcmp(e.name, "thm2_round") == 0) {
        EXPECT_TRUE(HasArg(e, "verdict"));
        EXPECT_LE(ArgOr0(e, "verdict"), 3u);
      }
    }
    tracer.Clear();
  }
}

TEST(Tracer, SelfCountsTelescopeOnCounting) {
  Rng rng(11);
  std::vector<Point1D> data = test::RandomPoints1D(4096, &rng);
  CountingTopK<Range1DProblem, PrioritySearchTree, range1d::CountTree> topk(
      data);
  Tracer tracer(1 << 14);
  Scratch scratch;
  std::vector<Point1D> got;
  Rng qrng(12);
  for (int rep = 0; rep < 20; ++rep) {
    const double a = qrng.NextDouble();
    const double b = qrng.NextDouble();
    const Range1D q{std::min(a, b), std::max(a, b)};
    const size_t k = 1 + qrng.Below(200);
    QueryStats stats;
    topk.QueryInto(q, k, &scratch, &got, &stats, &tracer);
    auto want = test::BruteTopK<Range1DProblem>(data, q, k);
    EXPECT_EQ(test::IdsOf(got), test::IdsOf(want));
    ASSERT_EQ(tracer.dropped(), 0u);
    ASSERT_EQ(tracer.open_depth(), 0u);
    // The counting probes charge only the root span; the final fetch
    // is its monitored_query child.
    EXPECT_GT(stats.max_queries, 0u);
    ExpectStatsEqual(stats, SumSelfCounts(tracer));
    const Tracer::Event& root = tracer.events().back();
    EXPECT_STREQ(root.name, "counting_query");
    EXPECT_EQ(ArgOr0(root, "k"), k);
    size_t fetches = 0;
    for (const Tracer::Event& e : tracer.events()) {
      if (e.kind == Tracer::EventKind::kSpan &&
          std::strcmp(e.name, "monitored_query") == 0) {
        EXPECT_EQ(e.parent, root.id);
        ++fetches;
      }
    }
    EXPECT_EQ(fetches, 1u);
    tracer.Clear();
  }
}

TEST(ChromeJson, ExportsWellFormedEvents) {
  Tracer tracer(16);
  {
    trace::Span root(&tracer, "thm1_query");
    root.Arg("k", 5);
    trace::Instant(&tracer, "fallback");
  }
  const std::string json = trace::ChromeTraceJson({&tracer, nullptr});
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"thm1_query\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"k\":5}"), std::string::npos);
  // Null tracers are skipped, not rendered.
  EXPECT_EQ(json.find("\"tid\":1"), std::string::npos);
}

}  // namespace
}  // namespace topk
