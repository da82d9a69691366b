// perfbench — the project's end-to-end benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--trace-dir <dir>]
//   perfbench --self-test       (the answer checks must catch corruptions)
//   perfbench --list-metrics    (metric names and units, one JSON object)
//
// Prints the run's identity and workload facts as one JSON line, then one
// line per metric, and as its last line the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics (from a traced run) with --trace 1.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"

using namespace perfbench;

namespace {

struct Workload {
  const char* name;
  const char* why;
  Outcome (*run)(const Args&, Trace&);
};

// The same one-line reasons as BENCHMARK.json gives.
constexpr Workload kWorkloads[] = {
    {"stream_decode",
     "sparse m=64 entries via reconstruct_all with warm templates on 4 "
     "workers: per-entry SAT, template cache and batch fan-out dominate",
     run_stream_decode},
    {"forensics",
     "paper CAN window/deadline and refresh-stall queries at m=256 (paper: "
     "1000/1024), single-threaded: solver search and property encoding "
     "dominate, batch bypassed",
     run_forensics},
    {"wide_preimage",
     "k=5 at m=48, about 400 signals per entry, via reconstruct_split on 4 "
     "workers: AllSAT blocking and cube balance dominate",
     run_wide_preimage},
    {"ingest",
     "deployment path with no decode: SoC model, RTL agg-log, UART framing, "
     "logger and archive do all the work",
     run_ingest},
};

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string metrics_json(const std::map<std::string, double>& values,
                         const std::vector<std::pair<std::string, std::string>>& names) {
  std::string out = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto& [name, unit] = names[i];
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", values.at(name));
    out += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + unit + "\"}";
  }
  return out + "}";
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      const int missed = self_test();
      std::printf("self-test: %d check(s) misjudged\n", missed);
      return missed == 0 ? 0 : 1;
    }
    if (a == "--list-metrics") {
      tp::obs::Json j = tp::obs::Json::object();
      for (const char* kind : {"end_to_end", "per_layer"}) {
        tp::obs::Json list = tp::obs::Json::array();
        const auto& names = std::strcmp(kind, "end_to_end") == 0 ? end_to_end_metrics()
                                                                 : per_layer_metrics();
        for (const auto& [name, unit] : names) {
          list.push(tp::obs::Json::object().set("name", name).set("unit", unit));
        }
        j.set(kind, std::move(list));
      }
      tp::obs::Json wl = tp::obs::Json::array();
      for (const Workload& w : kWorkloads) wl.push(w.name);
      j.set("workloads", std::move(wl));
      std::printf("%s\n", j.dump().c_str());
      return 0;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--commit") {
      args.commit = v;
    } else if (a == "--trace-dir") {
      args.trace_dir = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage(("unknown workload " + args.workload).c_str());

  try {
    for (int i = 0; i < 21; ++i) calibrate();
    Trace trace(args.trace);
    Outcome out = workload->run(args, trace);
    out.end_to_end["peak_rss_mb"] = peak_rss_mb();
    // End-to-end timings at reference speed; the measured ones go to the
    // identity line.
    tp::obs::Json measured = tp::obs::Json::object();
    const double factor = reference_speed_factor();
    for (const auto& [name, unit] : end_to_end_metrics()) {
      if (out.end_to_end.count(name) == 0) continue;
      double& v = out.end_to_end[name];
      measured.set(name, v);
      if (unit == "s" || unit == "ms") v *= factor;
      if (unit == "1/s") v /= factor;
    }

    std::string trace_file;
    if (args.trace) {
      trace_file = args.trace_dir + "/perfbench-" + args.workload + "-seed" +
                   std::to_string(args.seed) + ".jsonl";
      trace.write_jsonl(trace_file);
      std::set<std::string> known;
      for (const auto& m : per_layer_metrics()) known.insert(m.first);
      for (const auto& [name, value] : out.per_layer) {
        if (known.count(name) == 0) throw std::logic_error("unlisted per-layer metric " + name);
      }
      // Layers this workload does not call read 0.
      for (const auto& m : per_layer_metrics()) out.per_layer.emplace(m.first, 0.0);
    }

    tp::obs::Json identity = tp::obs::Json::object();
    identity.set("workload", args.workload)
        .set("why", workload->why)
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("nproc", static_cast<std::uint64_t>(nproc()))
        .set("hardware_concurrency",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
        .set("compiler", PERFBENCH_COMPILER)
        .set("build_type", PERFBENCH_BUILD_TYPE)
        .set("commit", args.commit)
        .set("fingerprint", out.fingerprint)
        .set("calibration_s", calibration_seconds())
        .set("reference_speed_factor", factor)
        .set("measured_end_to_end", std::move(measured))
        .set("workload_info", std::move(out.info));
    if (!trace_file.empty()) identity.set("trace_file", trace_file);
    std::printf("%s\n", tp::obs::Json::object().set("perfbench", std::move(identity)).dump().c_str());

    const auto& names = args.trace ? per_layer_metrics() : end_to_end_metrics();
    const auto& values = args.trace ? out.per_layer : out.end_to_end;
    for (const auto& [name, unit] : names) {
      std::printf("  %-34s %16.6g %s\n", name.c_str(), values.at(name), unit.c_str());
    }
    const bool correct = out.failed == 0 && !out.fingerprint.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics_json(values, names).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
}
