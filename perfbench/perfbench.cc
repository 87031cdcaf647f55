// kboost_perfbench — one run of one workload of the repo benchmark. Usually
// started by perfbench/run.py, which builds this binary and kboostd first:
//
//   kboost_perfbench --workload=build|sandwich|wire-lb --seed=N --seconds=S
//                    --trace=0|1 --kboostd=PATH --workdir=DIR
//                    [--commit=ID] [--trace-out=FILE] [--scale=F]
//                    [--plant-divergence]
//
// Prints a context line, then as its last line one JSON object with the
// keys correct, attempted, failed and metrics (end-to-end metrics when
// --trace=0, per-layer metrics when --trace=1). Exits 1 when the output gate
// saw a violation or the run could not complete, 2 on a usage error or a
// build that is not Release.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "perfbench/trace.h"
#include "perfbench/workloads.h"

namespace {

/// Escapes a string for a JSON literal (quotes, backslashes, controls).
std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
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

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: kboost_perfbench --workload=build|sandwich|"
               "wire-lb --seed=N --seconds=S --trace=0|1 --kboostd=PATH "
               "--workdir=DIR [--commit=ID] [--trace-out=FILE] [--scale=F] "
               "[--plant-divergence]\n",
               why);
  return 2;
}

int NumCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  std::string commit = "unknown", trace_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (name == "--workload") {
      config.workload = value;
    } else if (name == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (name == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && config.seconds > 0;
    } else if (name == "--trace") {
      have_trace = value == "0" || value == "1";
      config.trace = value == "1";
    } else if (name == "--kboostd") {
      config.kboostd = value;
    } else if (name == "--workdir") {
      config.workdir = value;
    } else if (name == "--commit") {
      commit = value;
    } else if (name == "--trace-out") {
      trace_out = value;
    } else if (name == "--scale") {
      config.scale = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(config.scale > 0) ||
          config.scale > 1) {
        return Usage("--scale must be in (0, 1]");
      }
    } else if (arg == "--plant-divergence") {
      config.plant_divergence = true;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || config.kboostd.empty() ||
      config.workdir.empty()) {
    return Usage("missing or malformed flag");
  }
#ifndef NDEBUG
  constexpr bool kAssertsOn = true;
#else
  constexpr bool kAssertsOn = false;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 || kAssertsOn) {
    std::fprintf(stderr, "error: refusing to report from a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  config.threads = NumCpus();

  perfbench::Result (*run)(const perfbench::Config&, perfbench::Trace*) =
      nullptr;
  if (config.workload == "build") run = perfbench::RunBuild;
  if (config.workload == "sandwich") run = perfbench::RunSandwich;
  if (config.workload == "wire-lb") run = perfbench::RunWireLb;
  if (run == nullptr) return Usage("unknown --workload");

  std::printf("{\"context\": {\"commit\": %s, \"build_type\": %s, "
              "\"compiler\": %s, \"nproc\": %d, \"workload\": %s, "
              "\"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
              "\"scale\": %g}}\n",
              JsonString(commit).c_str(),
              JsonString(PERFBENCH_BUILD_TYPE).c_str(),
              JsonString(PERFBENCH_COMPILER).c_str(), config.threads,
              JsonString(config.workload).c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.scale);
  std::fflush(stdout);

  perfbench::Trace trace(config.trace);
  perfbench::Result result;
  try {
    result = run(config, &trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s run failed: %s\n", config.workload.c_str(),
                 e.what());
    return 1;
  }
  if (config.trace && !trace_out.empty() && !trace.WriteJson(trace_out)) {
    std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  for (perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.Violation("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  for (const std::string& v : result.violations) {
    std::fprintf(stderr, "output gate: %s\n", v.c_str());
  }

  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += (metrics.empty() ? "" : ", ") + JsonString(m.name) +
               ": {\"value\": " + value + ", \"unit\": " +
               JsonString(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return result.correct() ? 0 : 1;
}
