// End-to-end benchmark of the Tucker serving engine.
//
//   tdc_bench --workload <r18-solo|r18-fleet|r50-int8-batch> --seed <n>
//             --seconds <s> --trace <0|1> --out-dir <dir>
//   tdc_bench --self-check
//
// Prints a run card, progress lines, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics of a traced run with --trace 1. Exits 0
// when every correctness check held, 1 when one failed, 2 on bad arguments
// or an error that left no result. See README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

using tdcbench::Args;

int usage(const char* why) {
  std::fprintf(stderr,
               "tdc_bench: %s\nusage: tdc_bench --workload "
               "<r18-solo|r18-fleet|r50-int8-batch> --seed <n> --seconds <s> "
               "--trace <0|1> --out-dir <dir> | --self-check\n",
               why);
  return 2;
}

bool parse_number(const std::string& text, double* value) {
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size();
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> failures = tdcbench::self_check();
  for (const std::string& f : failures) {
    std::fprintf(stderr, "self-check failed: %s\n", f.c_str());
  }
  if (!failures.empty()) {
    return 2;
  }
  if (argc == 2 && std::string(argv[1]) == "--self-check") {
    std::printf("self-check passed\n");
    return 0;
  }

  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    double number = 0.0;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else if (key == "--seed") {
      char* end = nullptr;
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' ||
          end != value.c_str() + value.size()) {
        return usage("--seed must be a non-negative integer");
      }
      have_seed = true;
    } else if (!parse_number(value, &number)) {
      return usage(("bad value for " + key).c_str());
    } else if (key == "--seconds") {
      args.seconds = number;
    } else if (key == "--trace") {
      if (number != 0.0 && number != 1.0) {
        return usage("--trace must be 0 or 1");
      }
      args.trace = number == 1.0;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1 || !have_seed || args.out_dir.empty() ||
      !(args.seconds > 0.0 && args.seconds <= 60.0)) {
    return usage("--workload, --seed, --seconds (0, 60] and --out-dir are "
                 "required");
  }

  tdcbench::Outcome out;
  try {
    if (args.workload == "r18-solo") {
      tdcbench::run_r18_solo(args, out);
    } else if (args.workload == "r18-fleet") {
      tdcbench::run_r18_fleet(args, out);
    } else if (args.workload == "r50-int8-batch") {
      tdcbench::run_r50_int8_batch(args, out);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tdc_bench: %s\n", e.what());
    return 2;
  }
  for (const std::string& f : out.failures()) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("%s\n", tdcbench::result_line(out.correct(), out.attempted(),
                                            out.failed(), out.metrics)
                          .c_str());
  return out.correct() ? 0 : 1;
}
