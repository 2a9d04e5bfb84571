// Micro-benchmark: Monte-Carlo robustness estimation throughput — the
// batched lane-blocked sweep (sim/batched_sweep) against the scalar
// one-realization-per-pass oracle (tests/sim/scalar_oracle.hpp), at the
// ROADMAP's target scale (100 tasks, 100k realizations, single thread),
// plus the lane-width sweep and the OpenMP scaling row.
//
// Emits BENCH_mc.json — a recorded baseline, not a CI gate (shared CI
// runners are too noisy for a throughput threshold), stamped with the host's
// core count, compiler, build type, RTS_NATIVE_ARCH and the git sha the
// build was configured at. Every timed field is the median of kReps runs in
// this process, recorded beside its interquartile range (`*_iqr`), so one
// noisy sample cannot stand in for the figure. Each run includes the
// report's summary (moments and quantiles), as a caller pays it. The repo's
// target is batched/scalar >= 3x realizations/s single-threaded;
// `speedup_ok` records whether this machine met it. The harness FAILS
// (non-zero exit) if batched and scalar samples differ anywhere in a single
// bit — that part is a correctness gate, noise-free by construction.
//
// Usage:
//   micro_montecarlo [--tasks N] [--procs M] [--realizations K] [--lanes W]
//                    [--seed S] [--json PATH] [--smoke]
//
// --smoke shrinks the workload so CI finishes in seconds while still
// exercising every measured code path end to end.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "../tests/sim/scalar_oracle.hpp"
#include "core/rts.hpp"
#include "util/json_writer.hpp"
#include "util/stats.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::size_t tasks = 100;
  std::size_t procs = 8;
  std::size_t realizations = 100000;
  std::size_t lanes = 32;
  std::uint64_t seed = 31;
  std::string json_path = "BENCH_mc.json";
  bool smoke = false;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--tasks") {
      o.tasks = std::stoul(next());
    } else if (arg == "--procs") {
      o.procs = std::stoul(next());
    } else if (arg == "--realizations") {
      o.realizations = std::stoul(next());
    } else if (arg == "--lanes") {
      o.lanes = std::stoul(next());
    } else if (arg == "--seed") {
      o.seed = std::stoull(next());
    } else if (arg == "--json") {
      o.json_path = next();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      std::exit(2);
    }
  }
  if (o.smoke) {
    o.tasks = std::min<std::size_t>(o.tasks, 50);
    o.realizations = std::min<std::size_t>(o.realizations, 10000);
  }
  return o;
}

constexpr int kReps = 5;

struct Run {
  double rate = 0.0;      ///< realizations per second, median of kReps
  double rate_iqr = 0.0;  ///< q3 − q1 of the kReps rates
  rts::RobustnessReport report;
};

using Estimator = rts::RobustnessReport (*)(const rts::ProblemInstance&,
                                            const rts::Schedule&,
                                            const rts::MonteCarloConfig&);

Run timed_run(const rts::ProblemInstance& instance, const rts::Schedule& schedule,
              const rts::MonteCarloConfig& config,
              Estimator estimate = rts::evaluate_robustness) {
  Run run;
  std::vector<double> rates;
  for (int r = 0; r < kReps; ++r) {
    const auto start = Clock::now();
    run.report = estimate(instance, schedule, config);
    rates.push_back(static_cast<double>(config.realizations) / seconds_since(start));
  }
  constexpr std::array<double, 3> kQuartiles{25.0, 50.0, 75.0};
  std::array<double, 3> q{};
  rts::percentiles(rates, kQuartiles, q);
  run.rate = q[1];
  run.rate_iqr = q[2] - q[0];
  return run;
}

int run(const Options& opts) {
  using namespace rts;

  PaperInstanceParams params;
  params.task_count = opts.tasks;
  params.proc_count = opts.procs;
  params.avg_ul = 4.0;
  Rng rng(opts.seed);
  const ProblemInstance instance = make_paper_instance(params, rng);
  const auto heft = heft_schedule(instance.graph, instance.platform, instance.expected);
  const Schedule& schedule = heft.schedule;

  MonteCarloConfig base;
  base.realizations = opts.realizations;
  base.collect_samples = true;
  base.threads = 1;

  // --- Scalar oracle, single thread: the pre-batching hot path.
  const Run scalar =
      timed_run(instance, schedule, base, oracle::scalar_robustness);

  // --- Batched, single thread, at the configured lane width (headline row).
  MonteCarloConfig batched_cfg = base;
  batched_cfg.lane_width = opts.lanes;
  const Run batched = timed_run(instance, schedule, batched_cfg);

  // Bit-identity gate: every one of the N realized makespans must match the
  // scalar oracle exactly. This is the differential harness's bench-side
  // anchor — it runs at full scale, not test scale.
  if (scalar.report.samples != batched.report.samples ||
      scalar.report.r1 != batched.report.r1 ||
      scalar.report.r2 != batched.report.r2 ||
      scalar.report.miss_rate != batched.report.miss_rate) {
    std::cerr << "FAIL: batched sweep diverged from the scalar oracle\n";
    return 1;
  }

  // --- Lane-width sweep, single thread.
  std::vector<std::pair<std::size_t, Run>> lane_runs;
  for (const std::size_t lanes : {4u, 8u, 16u, 32u}) {
    MonteCarloConfig cfg = base;
    cfg.lane_width = lanes;
    Run run = timed_run(instance, schedule, cfg);
    if (run.report.samples != scalar.report.samples) {
      std::cerr << "FAIL: lane width " << lanes << " diverged from the oracle\n";
      return 1;
    }
    lane_runs.emplace_back(lanes, std::move(run));
  }

  // --- Batched, all hardware threads (thread-count invariance is gated by
  // tests; here it is the throughput row).
  MonteCarloConfig parallel_cfg = batched_cfg;
  parallel_cfg.threads = 0;
  const Run parallel = timed_run(instance, schedule, parallel_cfg);
  if (parallel.report.samples != scalar.report.samples) {
    std::cerr << "FAIL: parallel batched sweep diverged from the oracle\n";
    return 1;
  }

  const double speedup = batched.rate / scalar.rate;
  const bool speedup_ok = speedup >= 3.0;

  std::cout << "micro_montecarlo: tasks=" << opts.tasks << " procs=" << opts.procs
            << " realizations=" << opts.realizations
            << (opts.smoke ? " (smoke)" : "") << ", median of " << kReps
            << " runs per row\n"
            << "  scalar sweep, 1 thread            " << scalar.rate
            << " realizations/s\n"
            << "  batched (lanes=" << opts.lanes << "), 1 thread      "
            << batched.rate << " realizations/s (" << speedup
            << "x vs scalar, target 3x: " << (speedup_ok ? "met" : "MISSED")
            << ")\n";
  for (const auto& [lanes, lane] : lane_runs) {
    std::cout << "  batched lanes=" << lanes << ", 1 thread         " << lane.rate
              << " realizations/s (" << lane.rate / scalar.rate << "x)\n";
  }
  std::cout << "  batched (lanes=" << opts.lanes << "), all threads    "
            << parallel.rate << " realizations/s ("
            << parallel.rate / batched.rate << "x vs 1 thread)\n"
            << "  all paths bit-identical across " << opts.realizations
            << " samples\n";

  JsonWriter json;
  const auto rate_field = [&json](const std::string& name, const Run& r) {
    json.field(name, r.rate).field(name + "_iqr", r.rate_iqr);
  };
  json.begin_object()
      .field("bench", "micro_montecarlo")
      .field("nproc", std::thread::hardware_concurrency())
      .field("compiler", RTS_BENCH_COMPILER)
      .field("build_type", RTS_BENCH_BUILD_TYPE)
      .field("rts_native_arch", RTS_BENCH_NATIVE_ARCH)
      .field("git_sha", RTS_BENCH_GIT_SHA)
      .field("tasks", opts.tasks)
      .field("procs", opts.procs)
      .field("realizations", opts.realizations)
      .field("lane_width", opts.lanes)
      .field("smoke", opts.smoke)
      .field("reps", kReps);
  rate_field("scalar_realizations_per_sec", scalar);
  rate_field("batched_realizations_per_sec", batched);
  json.field("batched_speedup_vs_scalar", speedup);
  for (const auto& [lanes, lane] : lane_runs) {
    rate_field("batched_lanes" + std::to_string(lanes) + "_realizations_per_sec", lane);
  }
  rate_field("parallel_realizations_per_sec", parallel);
  json.field("speedup_target", 3.0)
      .field("speedup_ok", speedup_ok)
      .field("bit_identical_to_scalar", true)
      .end_object();
  save_json_file(opts.json_path, json.take());
  std::cout << "wrote " << opts.json_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
