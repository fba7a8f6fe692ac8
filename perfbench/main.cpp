// perfbench: the repository benchmark's entry point (perfbench/README.md).
//
//   perfbench --workload prove-wide|certify-enum|search-optimal|serve-mix
//             --seed <n> --seconds <s> --trace <0|1>
//
// Exit status: 0 when every answer checked out, 1 when any was wrong or
// missing (the result line is still printed), 2 on a usage or run error
// (no result line).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <prove-wide|certify-enum|"
               "search-optimal|serve-mix> --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0 && args.seconds <= 120)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage("bad arguments");
  const std::map<std::string, Outcome (*)(const Args&)> workloads = {
      {"prove-wide", &run_prove_wide},
      {"certify-enum", &run_certify_enum},
      {"search-optimal", &run_search_optimal},
      {"serve-mix", &run_serve_mix},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) return usage("unknown workload");

  Outcome out;
  try {
    out = it->second(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 2;
  }
  if (out.attempted == 0) {
    std::fprintf(stderr, "perfbench: %s attempted nothing\n", args.workload.c_str());
    return 2;
  }
  for (const std::string& problem : out.problems)
    std::fprintf(stderr, "perfbench: wrong answer: %s\n", problem.c_str());

  // Identity record: which machine, which workers, which inputs.
  JsonValue identity = out.identity;
  identity.set("workload", args.workload);
  identity.set("seed", args.seed);
  identity.set("seconds", args.seconds);
  identity.set("trace", args.trace);
  identity.set("nproc", static_cast<std::uint64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  identity.set("cpu", cpu_identity());
  identity.set("error_share",
               static_cast<double>(out.failed) / static_cast<double>(out.attempted));
  std::printf("%s\n", identity.dump().c_str());

  JsonValue metrics = JsonValue::object();
  for (const Metric& m : out.metrics) {
    JsonValue entry = JsonValue::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  JsonValue result = JsonValue::object();
  result.set("correct", out.failed == 0);
  result.set("attempted", out.attempted);
  result.set("failed", out.failed);
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}
