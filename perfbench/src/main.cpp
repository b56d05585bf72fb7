// Benchmark entry point:
//
//   perfbench --workload se-paper|campaign-mix|serve-open --seed N
//             --seconds S --trace 0|1
//
// Prints the run's values as one JSON line (run.py joins them with the
// metric lists and units of BENCHMARK.json). A traced run also writes its
// spans as Chrome trace-event JSON under .bench_build/perfbench-traces/.
#include <iostream>
#include <string>

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    Report report;
    if (args.workload == "se-paper") {
      run_se_paper(args, report);
    } else if (args.workload == "campaign-mix") {
      run_campaign_mix(args, report);
    } else if (args.workload == "serve-open") {
      run_serve_open(args, report);
    } else {
      std::cerr << "perfbench: unknown workload '" << args.workload
                << "' (se-paper, campaign-mix, serve-open)\n";
      return 2;
    }
    if (args.trace) {
      const std::string path = ".bench_build/perfbench-traces/" + args.workload +
                               "-seed" + std::to_string(args.seed) + ".json";
      Tracer::instance().write_chrome(path);
      std::cerr << "perfbench: trace written to " << path << '\n';
    }
    std::cout << report.json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
