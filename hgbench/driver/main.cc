// hgbench_driver: query pools, input generation and the measured process
// of the end-to-end benchmark. hgbench/run.py drives all three; see
// hgbench/README.md.
//
//   hgbench_driver pool --workload W --out DIR [--seed N] [--smoke]
//   hgbench_driver gen --workload W --seed N --pool DIR --out DIR [--smoke]
//   hgbench_driver run --workload W --inputs DIR --seconds S --trace 0|1
//                      [--smoke] [--setup-only]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "driver/common.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: hgbench_driver pool --workload W --out DIR [--seed N] "
               "[--smoke]\n"
               "       hgbench_driver gen --workload W --seed N --pool DIR "
               "--out DIR [--smoke]\n"
               "       hgbench_driver run --workload W --inputs DIR "
               "--seconds S --trace 0|1 [--smoke] [--setup-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::string workload, dir, pool;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false, smoke = false, setup_only = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if ((arg == "--out" || arg == "--inputs") && has_value) {
      dir = argv[++i];
    } else if (arg == "--pool" && has_value) {
      pool = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::string(argv[++i]) == "1";
    } else {
      return Usage();
    }
  }
  hgbench::WorkloadSpec spec;
  if (dir.empty() || !hgbench::FindWorkload(workload, smoke, &spec)) {
    return Usage();
  }
  const uint32_t threads = std::max(1u, std::thread::hardware_concurrency());
  if (command == "pool") {
    return hgbench::MakePool(spec, seed, dir, threads);
  }
  if (command == "gen" && !pool.empty()) {
    return hgbench::GenerateInputs(spec, seed, pool, dir, threads);
  }
  if (command == "run") {
    return hgbench::RunWorkload(spec, dir, seconds, trace, setup_only);
  }
  return Usage();
}
