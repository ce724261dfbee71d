// perf_e2e: the end-to-end VQE benchmark.
//
//   perf_e2e --workload NAME --seed N --seconds S --trace 0|1
//   perf_e2e --smoke        every workload once, correctness checks only
//
// One workload per process, so peak RSS and allocator state belong to it.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1; the names match BENCHMARK.json. Detail rows go out
// before it as `BENCH {...}` lines (suite "e2e"). A failed correctness
// check prints the result with "correct": false and exits 1.
#include <sys/resource.h>

#include <cpuid.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "bench_emit.hpp"
#include "common/parallel.hpp"
#include "kernels/kernels.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  WorkloadResult (*run)(const RunConfig&);
};

constexpr Workload kWorkloads[] = {
    {"pes_sweep", run_pes_sweep},
    {"adapt_water10", run_adapt_water10},
    {"dist_hubbard20", run_dist_hubbard20},
    {"serve_zipf", run_serve_zipf},
};

struct Metric {
  const char* name;
  const char* unit;
};

// Per-layer metrics, printed by every workload (0 for a layer the workload
// never enters). `*_frac` are self-time shares of the traced pass's wall
// time; counts are per operation.
constexpr Metric kLayerMetrics[] = {
    {"trace.coverage_frac", "frac"},
    {"trace.overhead_frac", "frac"},
    {"trace.replica_match", "count"},
    {"vqe.optimizer_frac", "frac"},
    {"vqe.executor_setup_frac", "frac"},
    {"ir.circuit_build_frac", "frac"},
    {"exec.compile_frac", "frac"},
    {"exec.bind_frac", "frac"},
    {"exec.apply_ops_frac", "frac"},
    {"sim.expectation_frac", "frac"},
    {"sim.observable_compile_frac", "frac"},
    {"adapt.screen_frac", "frac"},
    {"adapt.prepare_frac", "frac"},
    {"adapt.gradient_frac", "frac"},
    {"analyze.infer_frac", "frac"},
    {"ir.layout_plan_frac", "frac"},
    {"dist.apply_frac", "frac"},
    {"dist.expectation_frac", "frac"},
    {"serve.submit_frac", "frac"},
    {"runtime.queue_wait_frac", "frac"},
    {"runtime.execute_frac", "frac"},
    {"serve.hit_frac", "frac"},
    {"serve.evictions", "count"},
    {"serve.rejected", "count"},
    {"sim.sv_apply_1t_ratio", "ratio"},
    {"sim.sv_apply_4t_ratio", "ratio"},
    {"optimizer.evaluations", "count"},
    {"exec.compile_misses", "count"},
    {"exec.scalar_ops", "count"},
    {"sim.amps_touched", "count"},
    {"kernels.bytes_computed", "count"},
    {"sim.exp_pauli_applies", "count"},
    {"adapt.iterations", "count"},
    {"comm.messages", "count"},
    {"comm.bytes", "count"},
    {"comm.allreduces", "count"},
    {"comm.exchanges_avoided", "count"},
    {"dist.layout_swaps", "count"},
    {"pool.batch_jobs", "count"},
};

struct CountMetric {
  const char* name;
  const char* counter;  // global-registry series
  double scale;
};

constexpr CountMetric kCountMetrics[] = {
    {"optimizer.evaluations", "optimizer.evaluations_total", 1.0},
    {"exec.compile_misses", "exec.compile_misses_total", 1.0},
    {"exec.scalar_ops", "exec.scalar_ops_total", 1.0},
    {"sim.amps_touched", "sim.amps_touched_total", 1.0},
    // Computed, not measured: one 16-byte amplitude read and written per
    // touched amplitude.
    {"kernels.bytes_computed", "sim.amps_touched_total", 32.0},
    {"sim.exp_pauli_applies", "sim.exp_pauli_applies_total", 1.0},
    {"adapt.iterations", "adapt.iterations_total", 1.0},
    {"comm.messages", "comm.messages_total", 1.0},
    {"comm.bytes", "comm.bytes_total", 1.0},
    {"comm.allreduces", "comm.allreduces_total", 1.0},
    {"comm.exchanges_avoided", "comm.exchanges_avoided", 1.0},
    {"dist.layout_swaps", "dist.layout_swaps", 1.0},
    {"pool.batch_jobs", "pool.batch_jobs_total", 1.0},
};

bool is_layer_metric(const std::string& name) {
  for (const Metric& m : kLayerMetrics)
    if (name == m.name) return true;
  return false;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3]))
      return "unknown";
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

void emit_machine(vqsim::bench::BenchEmitter& emitter) {
  emitter.row()
      .field("row", "machine")
      .field("cpu", cpu_model())
      .field("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .field("l2_bytes", sysconf(_SC_LEVEL2_CACHE_SIZE))
      .field("l3_bytes", sysconf(_SC_LEVEL3_CACHE_SIZE))
      .field("simd_table", vqsim::kernels::backend_name())
      .field("compiler", __VERSION__)
      .field("omp_threads", vqsim::hardware_threads())
      .emit();
}

struct Args {
  std::string workload;
  RunConfig config;
  bool smoke = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perf_e2e: %s\nusage: perf_e2e --workload NAME --seed N "
               "--seconds S --trace 0|1\n       perf_e2e --smoke\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      continue;
    }
    if (flag == "--seed") {
      args.config.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.config.seconds = std::strtod(value, &end);
      if (end != value && !(args.config.seconds >= 0.0 &&
                            args.config.seconds <= 600.0))
        usage("--seconds out of range");
    } else if (flag == "--trace") {
      const unsigned long t = std::strtoul(value, &end, 10);
      if (t > 1) usage("--trace takes 0 or 1");
      args.config.trace = t == 1;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end == value || *end != '\0') usage(("bad value for " + flag).c_str());
  }
  return args;
}

int smoke() {
  RunConfig config;
  config.seconds = 0.0;
  config.trace = true;
  config.smoke = true;
  int failures = 0;
  for (const Workload& w : kWorkloads) {
    const vqsim::WallTimer clock;
    WorkloadResult r = w.run(config);
    r.check(r.layer["trace.replica_match"] == 1.0,
            std::string(w.name) + ": traced replica differs from the library");
    for (const std::string& e : r.errors)
      std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    const bool ok = r.errors.empty() && r.failed == 0;
    failures += ok ? 0 : 1;
    std::printf("smoke %-16s %s  %.2f s\n", w.name, ok ? "ok" : "FAILED",
                clock.seconds());
  }
  return failures == 0 ? 0 : 1;
}

void append_metric(std::string& json, const char* name, double value,
                   const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json.empty() ? "" : ", ", name,
                std::isfinite(value) ? value : 0.0, unit);
  json += buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", out.size() > 1 ? "," : "", v);
    out += buf;
  }
  return out + "]";
}

}  // namespace

void record_counts(WorkloadResult& result, const CounterDelta& delta,
                   double ops) {
  for (const CountMetric& m : kCountMetrics)
    result.layer[m.name] = delta(m.counter) * m.scale / ops;
}

void record_trace(WorkloadResult& result, const SpanLedger& ledger,
                  const std::vector<double>& traced_ms, bool replica_match) {
  double wall_s = 0.0;
  for (double ms : traced_ms) wall_s += ms / 1e3;
  result.attempted += traced_ms.size();
  result.layer["trace.coverage_frac"] = ledger.covered_seconds() / wall_s;
  result.layer["trace.overhead_frac"] =
      median(traced_ms) / median(result.op_ms) - 1.0;
  result.layer["trace.replica_match"] = replica_match ? 1.0 : 0.0;
  for (const auto& [name, self_s] : ledger.self_times())
    result.layer[std::string(name) + "_frac"] = self_s / wall_s;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  // Sized for a 4-core host: OpenMP regions and dist ranks use 4.
  vqsim::set_threads(4);
  if (args.smoke) return smoke();

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) workload = &w;
  if (workload == nullptr)
    usage(("unknown workload '" + args.workload + "'").c_str());

  vqsim::bench::BenchEmitter emitter("e2e");
  emit_machine(emitter);

  WorkloadResult r;
  try {
    r = workload->run(args.config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_e2e: %s failed: %s\n", workload->name, e.what());
    return 1;
  }
  for (const auto& [name, value] : r.layer)
    if (!is_layer_metric(name)) {
      std::fprintf(stderr, "perf_e2e: undeclared layer metric %s\n",
                   name.c_str());
      return 1;
    }

  const Tail tail = tail_percentile(r.op_ms);
  const double rss = peak_rss_mb();
  emitter.row()
      .field("row", "end_to_end")
      .field("workload", workload->name)
      .field("seed", args.config.seed)
      .field("trace", args.config.trace)
      .field("setups", r.setup_s.size())
      .field("setup_s", median(r.setup_s))
      .raw_field("setup_s_each", json_array(r.setup_s))
      .field("ops", r.op_ms.size())
      .field("op_p25_ms", quantile(r.op_ms, 0.25))
      .field("op_p50_ms", median(r.op_ms))
      .field("op_p75_ms", quantile(r.op_ms, 0.75))
      .field("op_mean_ms", mean(r.op_ms))
      .field("tail_percentile", tail.percentile)
      .field("op_tail_ms", tail.value)
      .field("peak_rss_mb", rss)
      .emit();
  if (!r.details.empty()) {
    auto row = emitter.row();
    row.field("row", "detail").field("workload", workload->name);
    for (const auto& [name, value] : r.details) row.field(name, value);
    row.emit();
  }
  for (const std::string& e : r.errors)
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

  std::string metrics;
  if (args.config.trace) {
    auto row = emitter.row();
    row.field("row", "per_layer").field("workload", workload->name);
    if (r.layer["trace.replica_match"] != 1.0) row.field("stale", true);
    for (const Metric& m : kLayerMetrics) {
      const double v = r.layer[m.name];
      row.field(m.name, v);
      append_metric(metrics, m.name, v, m.unit);
    }
    row.emit();
  } else {
    append_metric(metrics, "setup_s", median(r.setup_s), "s");
    append_metric(metrics, "op_p50_ms", median(r.op_ms), "ms");
    append_metric(metrics, "peak_rss_mb", rss, "MB");
  }
  const bool correct = r.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
