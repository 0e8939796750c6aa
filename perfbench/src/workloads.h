// The three workloads. Each fills the untraced end-to-end metrics into
// `report` (args.trace == false) or the per-layer values into `layers`
// (args.trace == true), and sets the correctness verdict and the
// attempted/failed counts.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "common.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

void RunServeMixed(const Args& args, Report* report, LayerValues* layers);
void RunDeepScan(const Args& args, Report* report, LayerValues* layers);
void RunFedChurn(const Args& args, Report* report, LayerValues* layers);

// Writes one traced run's spans (with self times) as JSON lines under
// args.work_dir; the path is printed in the report.
void WriteSpans(const Args& args, const std::vector<Span>& spans,
                const std::vector<uint64_t>& self);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
