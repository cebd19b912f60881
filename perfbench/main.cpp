// Repository benchmark driver: one workload per invocation.
//
//   perfbench --workload field|fanout|gw_socket --seed N --seconds S
//             --trace 0|1 [--trace-dir DIR]
//
// Prints a human-readable table, then, as the last line of standard
// output, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. A failed output check exits 1. See README.md.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace perfbench {

void write_spans(const std::string& dir, const std::string& name, const std::vector<Span>& spans,
                 std::size_t limit) {
  std::ofstream out(dir + "/" + name + ".spans.tsv");
  out << "layer\tkey\tstart_ns\tend_ns\tparent\n";
  const std::size_t n = std::min(limit, spans.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    out << static_cast<int>(s.layer) << '\t' << s.key << '\t' << s.start_ns << '\t' << s.end_ns
        << '\t' << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent)) << '\n';
  }
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Names and units as BENCHMARK.json lists them; every workload prints
// all of them.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"msgs_per_s", "msg/s"},
    {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},
    {"max_rate_msgs_per_s", "msg/s"},
    {"peak_rss_mb", "MiB"},
};

// Layers a workload never enters report 0.
constexpr MetricSpec kPerLayer[] = {
    {"sim.events_per_msg", "events/msg"},
    {"field.other_self_ns_per_msg", "ns/msg"},
    {"wireless.copies_per_frame", "copies/frame"},
    {"filtering.self_ns_per_copy", "ns/copy"},
    {"filtering.useful_ratio", "ratio"},
    {"location.self_ns_per_copy", "ns/copy"},
    {"dispatch.ns_per_msg", "ns/msg"},
    {"dispatch.inject_ns_per_delivery", "ns/delivery"},
    {"fanout.drain_ns_per_delivery", "ns/delivery"},
    {"bus.posts_per_msg", "posts/msg"},
    {"util.payload_allocs_per_msg", "allocs/msg"},
    {"util.payload_copies_per_msg", "copies/msg"},
    {"recovery.ops_logged_per_msg", "ops/msg"},
    {"recovery.delta_bytes_per_capture", "B"},
    {"gw.transport_ns_per_msg", "ns/msg"},
    {"gw.pump_self_ns_per_msg", "ns/msg"},
    {"gw.run_self_ns_per_msg", "ns/msg"},
    {"gw.frames_per_writev", "frames/writev"},
    {"obs.observations_per_msg", "obs/msg"},
    {"bench.trace_overhead_pct", "%"},
    {"gen.late_p99_us", "us"},
    {"gen.late_max_us", "us"},
    {"failed_ratio", "fraction"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload field|fanout|gw_socket --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (*end != '\0' || o.seconds <= 0 || o.seconds > 600) usage("bad --seconds");
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) usage("bad --trace");
      o.trace = value[0] == '1';
    } else if (arg == "--trace-dir") {
      o.trace_dir = value;
    } else {
      usage("unknown argument");
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

void print_result(const Result& result, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  auto emit = [&](const MetricSpec& spec, double value) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", spec.name,
                value, spec.unit);
    first = false;
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = result.metrics.find(spec.name);
      emit(spec, it == result.metrics.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, result.metrics.at(spec.name));
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  // Keep freed memory in the heap: every repetition then reuses warm
  // pages instead of faulting fresh ones in (returned mmap chunks and a
  // trimmed heap top made repetitions differ by tens of percent).
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, -1);
  Result result;
  try {
    if (options.workload == "field") {
      result = run_field(options);
    } else if (options.workload == "fanout") {
      result = run_fanout(options);
    } else if (options.workload == "gw_socket") {
      result = run_gw_socket(options);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  if (options.trace) result.metrics["failed_ratio"] = result.failed_ratio();
  for (const std::string& row : result.table) std::printf("%s\n", row.c_str());
  if (options.trace) {
    for (const auto& [name, value] : result.metrics) {
      std::printf("  %-36s %.6g\n", name.c_str(), value);
    }
  }
  std::printf("failed_ratio %.6g (%llu of %llu)\n", result.failed_ratio(),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  print_result(result, options.trace);
  return result.correct() ? 0 : 1;
}
