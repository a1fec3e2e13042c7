// perfbench: the repository benchmark harness.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//   perfbench --self-test [--seed N] [--out DIR]
//
// Workloads: scenario-e2e, campaign-large, serve-mixed (see
// perfbench/README.md). Human-readable report lines come first; the last
// line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_map(const std::map<std::string, std::string>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += json_string(k) + ": " + json_string(v);
  }
  return out + "}";
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics.all()) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

std::map<std::string, std::string> machine_stamp() {
  std::map<std::string, std::string> m;
  m["nproc"] = std::to_string(std::thread::hardware_concurrency());
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  m["avx2"] = __builtin_cpu_supports("avx2") ? "yes" : "no";
  m["avx512f"] = __builtin_cpu_supports("avx512f") ? "yes" : "no";
#else
  m["avx2"] = "no";
  m["avx512f"] = "no";
#endif
#if defined(__clang__)
  m["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  m["compiler"] = std::string("gcc ") + __VERSION__;
#else
  m["compiler"] = "unknown";
#endif
  m["build_type"] = PERFBENCH_BUILD_TYPE;
  return m;
}

constexpr const char* kAccuracyNote =
    "the fault model is unvalidated against hardware: no simulator-error "
    "figure is given; ml.cv_accuracy_pct is shown beside "
    "ml.majority_baseline_pct and neither is gated";

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n"
               "       perfbench --self-test [--seed N] [--out DIR]\n"
               "workloads: scenario-e2e campaign-large serve-mixed\n",
               why);
  return 2;
}

int run(const Options& options) {
  RunResult result;
  if (options.workload == "scenario-e2e") {
    result = run_scenario_e2e(options);
  } else if (options.workload == "campaign-large") {
    result = run_campaign_large(options);
  } else if (options.workload == "serve-mixed") {
    result = run_serve_mixed(options);
  } else {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 1;
  }
  const std::string tag = options.workload + "-seed" +
                          std::to_string(options.seed) + "-trace" +
                          (options.trace ? "1" : "0");
  namespace fs = std::filesystem;
  fs::create_directories(fs::path(options.out_dir) / "results");
  std::string trace_path;
  if (options.trace) {
    fs::create_directories(fs::path(options.out_dir) / "traces");
    trace_path = (fs::path(options.out_dir) / "traces" /
                  (options.workload + "-seed" + std::to_string(options.seed) +
                   ".trace.json"))
                     .string();
    Tracer::instance().write_chrome_json(trace_path);
  }

  const auto machine = machine_stamp();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("machine: %s\n", json_map(machine).c_str());
  std::printf("settings: %s\n", json_map(result.settings).c_str());
  std::printf("fingerprint: %s\n", json_map(result.fingerprint).c_str());
  std::printf("accuracy: %s\n", kAccuracyNote);
  for (const std::string& note : result.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const auto& [name, m] : result.metrics.all()) {
    std::printf("metric %-28s %14.6f %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("fail_frac: %llu / %llu\n",
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  if (!trace_path.empty()) std::printf("trace: %s\n", trace_path.c_str());

  std::string notes = "[";
  for (const std::string& note : result.notes) {
    if (notes.size() > 1) notes += ", ";
    notes += json_string(note);
  }
  notes += "]";
  const std::string report =
      "{\"workload\": " + json_string(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + json_number(options.seconds) +
      ", \"trace\": " + (options.trace ? "true" : "false") +
      ", \"machine\": " + json_map(machine) +
      ", \"settings\": " + json_map(result.settings) +
      ", \"fingerprint\": " + json_map(result.fingerprint) +
      ", \"accuracy\": " + json_string(kAccuracyNote) +
      ", \"notes\": " + notes +
      ", \"attempted\": " + std::to_string(result.attempted) +
      ", \"failed\": " + std::to_string(result.failed) +
      ", \"metrics\": " + metrics_json(result.metrics) + "}";
  std::ofstream(fs::path(options.out_dir) / "results" / (tag + ".json"))
      << report << "\n";

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics_json(result.metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::usage;
  perfbench::Options options;
  bool self_test = false;
  bool have_workload = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload") {
      options.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      options.trace = v == "1";
      have_trace = true;
    } else if (arg == "--out") {
      options.out_dir = value();
    } else {
      return usage(("unknown argument '" + arg + "'").c_str());
    }
  }
  try {
    if (self_test) {
      const int misses = perfbench::sim_self_test(options) +
                         perfbench::serve_self_test(options);
      std::printf("self-test: %s\n", misses == 0 ? "PASS" : "FAIL");
      return misses == 0 ? 0 : 1;
    }
    if (!have_workload || !have_trace) {
      return usage("--workload and --trace are required");
    }
    if (!(options.seconds > 0)) return usage("--seconds must be positive");
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
