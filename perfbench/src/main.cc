// perfbench: the serving stack's benchmark.
//
//   perfbench --workload <serve_mixed|deep_scan|fed_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Builds its inputs from the seed, serves them for the given number of
// seconds, checks the answers by brute force, and prints a report whose
// last line is the JSON result. --trace 0 reports the end-to-end
// metrics; --trace 1 reports the per-layer metrics from the benchmark's
// own spans. Exits nonzero if any answer was wrong.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "report.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

void WriteSpans(const Args& args, const std::vector<Span>& spans,
                const std::vector<uint64_t>& self) {
  const std::filesystem::path dir =
      std::filesystem::path(args.work_dir) / "spans";
  std::filesystem::create_directories(dir);
  const std::filesystem::path path =
      dir / (args.workload + "-seed" + std::to_string(args.seed) + ".jsonl");
  std::ofstream out(path);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"i\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"self_ns\":" << self[i] << "}\n";
  }
  std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve_mixed|deep_scan|fed_churn>"
               " --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) return Usage();

  Report report;
  LayerValues layers;
  if (args.workload == "serve_mixed") {
    RunServeMixed(args, &report, &layers);
  } else if (args.workload == "deep_scan") {
    RunDeepScan(args, &report, &layers);
  } else if (args.workload == "fed_churn") {
    RunFedChurn(args, &report, &layers);
  } else {
    return Usage();
  }

  if (args.trace) {
    // Every declared per-layer metric, in declaration order; a layer the
    // workload does not drive reads 0.
    for (const MetricDecl& m : PerLayerMetrics()) {
      const auto it = layers.find(m.name);
      report.Add(m.name, it == layers.end() ? 0.0 : it->second, m.unit);
      if (it != layers.end()) layers.erase(it);
    }
    for (const auto& [name, value] : layers) {
      std::fprintf(stderr, "undeclared per-layer metric %s\n", name.c_str());
      report.correct = false;
    }
  }
  PrintReport(args.workload, args.trace, report);
  return report.correct ? 0 : 1;
}
