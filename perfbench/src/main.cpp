// perfbench: the repository benchmark. One process runs one workload for
// one pass on the simulator and prints a human table followed, on the
// last line, by a JSON record of every metric (name, value, unit), the
// correctness verdict and the provenance. perfbench/run.py builds this
// program and turns that record into the benchmark's result line.
//
//   perfbench --workload <put-closed-1core|mixed-open-4core|crash-recover>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--source-digest <hex>]
//
// --trace 0 is the untraced pass (end-to-end metrics), --trace 1 the
// traced pass (per-layer metrics). Exit status: 0 when every output
// checked correct, 1 on any correctness failure, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <put-closed-1core|"
               "mixed-open-4core|crash-recover> --seed <n> --seconds <s> "
               "--trace <0|1> [--git-sha <sha>] [--source-digest <hex>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      args.workload = val;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(val.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = val == "1";
    } else if (flag == "--git-sha") {
      args.git_sha = val;
    } else if (flag == "--source-digest") {
      args.source_digest = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0) return usage();

  void (*run)(const Args&, Report&) = nullptr;
  if (args.workload == "put-closed-1core") run = put_closed;
  if (args.workload == "mixed-open-4core") run = mixed_open;
  if (args.workload == "crash-recover") run = crash_recover;
  if (run == nullptr) return usage();

  Report report(args);
  try {
    run(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  report.print();
  return report.correct() ? 0 : 1;
}
