// Naive baseline: full scan plus k-selection.
//
// O(n/B) I/Os per query regardless of k — the structure every reduction
// must beat for small k, and the structure both reductions *become* for
// k = Omega(n).

#ifndef TOPK_CORE_SCAN_TOPK_H_
#define TOPK_CORE_SCAN_TOPK_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/kselect.h"
#include "common/scratch.h"
#include "common/stats.h"
#include "core/problem.h"
#include "trace/tracer.h"

namespace topk {

template <typename Problem>
class ScanTopK {
 public:
  using Element = typename Problem::Element;
  using Predicate = typename Problem::Predicate;

  explicit ScanTopK(std::vector<Element> data) : data_(std::move(data)) {}

  size_t size() const { return data_.size(); }

  // The k heaviest elements of q(D), heaviest first, written into *out
  // (cleared first). The match pool is borrowed from `scratch`.
  void QueryInto(const Predicate& q, size_t k, Scratch* scratch,
                 std::vector<Element>* out, QueryStats* stats = nullptr,
                 trace::Tracer* /*tracer*/ = nullptr) const {
    AddNodes(stats, data_.size());
    if (stats != nullptr) ++stats->full_scans;
    ScratchVec<Element> pool = scratch->Borrow<Element>();
    for (const Element& e : data_) {
      if (Problem::Matches(q, e)) pool.push_back(e);
    }
    SelectTopKInto(&pool, k, out);
  }

 private:
  std::vector<Element> data_;
};

}  // namespace topk

#endif  // TOPK_CORE_SCAN_TOPK_H_
