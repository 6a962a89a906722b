// dmbench: one workload of the dockmine benchmark in this process.
//
//   dmbench measure --workload W --seed N --seconds S --trace 0|1
//                   --work DIR [--trace-out FILE]
//   dmbench check   --workload W --seed N --work DIR
//   dmbench info    (build type and whether obs is compiled in, as JSON)
//
// `measure` runs the workload and prints its outcome as one JSON line;
// `check` recomputes the expected results independently from what the
// measured run left in DIR. perfbench/run.py drives both.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: dmbench measure|check --workload W --seed N "
               "--seconds S --trace 0|1 --work DIR [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmbench;
  if (argc < 2) return usage();
  Args args;
  args.mode = argv[1];
  if (args.mode == "info") {
#ifdef DOCKMINE_OBS_DISABLED
    const bool obs_compiled = false;
#else
    const bool obs_compiled = true;
#endif
    std::printf("{\"build_type\":\"%s\",\"obs_compiled\":%s,"
                "\"obs_runtime\":\"off; on only in traced runs\"}\n",
                DMBENCH_BUILD_TYPE, obs_compiled ? "true" : "false");
    return 0;
  }
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work") {
      args.work = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return usage();
    }
  }
  if (args.work.empty() || (args.mode != "measure" && args.mode != "check")) {
    return usage();
  }
  make_dirs(args.work);

  struct Workload {
    const char* name;
    Outcome (*run)(const Args&);
    Outcome (*check)(const Args&);
  };
  static const Workload kWorkloads[] = {
      {"bytes_full", run_bytes_full, check_bytes_full},
      {"metadata_scale", run_metadata_scale, check_metadata_scale},
      {"serve_mixed", run_serve_mixed, check_serve_mixed},
      {"distributed_k2", run_distributed_k2, check_distributed_k2},
  };
  for (const Workload& workload : kWorkloads) {
    if (args.workload != workload.name) continue;
    print_outcome(args.mode == "measure" ? workload.run(args)
                                         : workload.check(args));
    return 0;
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
