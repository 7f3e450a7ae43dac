// xqp_e2e: the end-to-end benchmark.
//
//   xqp_e2e --workload=W --seed=S [--seconds=N] [--trace=FILE]
//           [--workdir=DIR] [--self-test]
//
// Prints a run stamp, the metrics by name and unit, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace the metrics are the per-layer ones and the spans go to FILE.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "e2e.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif

extern char** environ;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: xqp_e2e --workload=W --seed=S [--seconds=N] "
               "[--trace=FILE] [--workdir=DIR] [--self-test]\n  workloads:");
  for (const std::string& w : xqp::e2e::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && *out >= 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Fixed allocator thresholds. With glibc's defaults (a dynamic mmap
  // threshold, trimming the heap top past 128 KiB) whether freed memory
  // goes back to the kernel and is faulted in again depends on incidental
  // heap layout: the same build ran xmark_update 40% slower, with 60x the
  // minor page faults, when only the --workdir path was longer.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
#endif
  xqp::e2e::RunOptions options;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    auto value = [&](std::string_view flag) -> const char* {
      return arg.rfind(flag, 0) == 0 ? argv[i] + flag.size() : nullptr;
    };
    double number = 0;
    if (const char* v = value("--workload=")) {
      options.workload = v;
      have_workload = true;
    } else if (const char* v = value("--seed=")) {
      char* end = nullptr;
      options.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return Usage();
      have_seed = true;
    } else if (const char* v = value("--seconds=")) {
      if (!ParseNumber(v, &number)) return Usage();
      options.seconds = number;
    } else if (const char* v = value("--trace=")) {
      options.trace_path = v;
    } else if (const char* v = value("--workdir=")) {
      options.workdir = v;
    } else if (arg == "--self-test") {
      options.self_test = true;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_seed ||
      xqp::e2e::MakeWorkload(options.workload) == nullptr) {
    return Usage();
  }

  // XQP_* knobs (XQP_ACCESS_PATH, XQP_INDEXES, XQP_BACKEND, XQP_THREADS, ...)
  // silently change what is measured.
  bool knobs_set = false;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "XQP_", 4) == 0) {
      const char* eq = std::strchr(*env, '=');
      std::fprintf(stderr, "refusing to run: %.*s is set\n",
                   static_cast<int>(eq == nullptr ? std::strlen(*env)
                                                  : eq - *env),
                   *env);
      knobs_set = true;
    }
  }
  if (knobs_set) return 2;
  if (std::string_view(XQP_E2E_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "refusing to run: xqp was built as CMAKE_BUILD_TYPE=%s, "
                 "not Release\n",
                 XQP_E2E_BUILD_TYPE);
    return 2;
  }
  return xqp::e2e::RunBenchmark(options);
}
