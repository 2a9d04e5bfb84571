// Micro-benchmark of the evaluation-engine layer (ga/eval.hpp): chromosome
// scoring through a reused EvalWorkspace vs the cold path that constructs a
// fresh TimingEvaluator (and all its buffers) per candidate, plus GA
// generation throughput serial vs parallel population evaluation.
//
// Emits BENCH_eval.json — a recorded baseline, not a CI gate, stamped with
// the host's core count, compiler, build type, RTS_NATIVE_ARCH and the git
// sha the build was configured at. The repo's target is workspace/cold >= 3x
// on the paper-scale instance (100 tasks, 8 processors); the `speedup_ok`
// field records whether this machine met it. The run fails (exit 1) if the
// legacy, one-shot and workspace paths disagree in a single bit.
//
// Usage:
//   micro_eval_workspace [--tasks N] [--procs M] [--evals K] [--seed S]
//                        [--json PATH] [--smoke]
//
// --smoke shrinks the workload so CI finishes in seconds while still
// exercising every measured code path end to end.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "ga/engine.hpp"
#include "ga/eval.hpp"
#include "sched/timing.hpp"
#include "workload/problem.hpp"

namespace {

using Clock = std::chrono::steady_clock;

// The pre-workspace evaluation shape, reproduced verbatim from the repo's
// seed revision so the recorded baseline stays comparable as the library
// speeds up: per candidate, assemble Gs into vector-of-vectors adjacency,
// Kahn-sort, flatten to CSR, then run the sweeps — every buffer allocated
// fresh. This is what each solver in src/ga/ paid per evaluation before
// ga/eval.hpp existed.
double legacy_cold_evaluate(const rts::TaskGraph& graph, const rts::Platform& platform,
                            const rts::Schedule& schedule,
                            const rts::Matrix<double>& costs) {
  using namespace rts;
  const std::size_t n = graph.task_count();
  std::vector<std::vector<std::pair<TaskId, double>>> preds(n);
  for (std::size_t t = 0; t < n; ++t) {
    const auto tid = static_cast<TaskId>(t);
    const ProcId pt = schedule.proc_of(tid);
    for (const EdgeRef& e : graph.predecessors(tid)) {
      preds[t].emplace_back(e.task, platform.comm_cost(e.data, schedule.proc_of(e.task), pt));
    }
    const TaskId pp = schedule.proc_predecessor(tid);
    if (pp != kNoTask && !graph.has_edge(pp, tid)) preds[t].emplace_back(pp, 0.0);
  }
  std::vector<std::size_t> indeg(n);
  std::vector<std::vector<TaskId>> succs(n);
  for (std::size_t t = 0; t < n; ++t) {
    indeg[t] = preds[t].size();
    for (const auto& [p, cost] : preds[t]) {
      succs[p.index()].push_back(static_cast<TaskId>(t));
    }
  }
  std::vector<TaskId> topo;
  topo.reserve(n);
  std::vector<TaskId> stack;
  for (std::size_t t = 0; t < n; ++t) {
    if (indeg[t] == 0) stack.push_back(static_cast<TaskId>(t));
  }
  while (!stack.empty()) {
    const TaskId t = stack.back();
    stack.pop_back();
    topo.push_back(t);
    for (const TaskId s : succs[t.index()]) {
      if (--indeg[s.index()] == 0) stack.push_back(s);
    }
  }
  std::vector<double> durations(n);
  for (std::size_t t = 0; t < n; ++t) {
    durations[t] = costs(t, schedule.proc_of(static_cast<TaskId>(t)).index());
  }
  std::vector<double> start(n, 0.0), finish(n, 0.0), bottom(n, 0.0);
  double makespan = 0.0;
  for (const TaskId tid : topo) {
    const std::size_t t = tid.index();
    double s = 0.0;
    for (const auto& [p, cost] : preds[t]) {
      s = std::max(s, finish[p.index()] + cost);
    }
    start[t] = s;
    finish[t] = s + durations[t];
    makespan = std::max(makespan, finish[t]);
  }
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const std::size_t t = it->index();
    const double bl = bottom[t] + durations[t];
    bottom[t] = bl;
    for (const auto& [p, cost] : preds[t]) {
      bottom[p.index()] = std::max(bottom[p.index()], cost + bl);
    }
  }
  double slack_sum = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    slack_sum += std::max(0.0, makespan - bottom[t] - start[t]);
  }
  // Fold both objectives so nothing is optimized out; matches the workspace
  // checksum bit-for-bit (same operands, same reduction order).
  return makespan + slack_sum / static_cast<double>(n);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::size_t tasks = 100;
  std::size_t procs = 8;
  std::size_t evals = 20000;
  std::uint64_t seed = 7;
  std::string json_path = "BENCH_eval.json";
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
    } else if (arg == "--evals") {
      o.evals = std::stoul(next());
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
    o.evals = std::min<std::size_t>(o.evals, 2000);
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rts;
  const Options opts = parse(argc, argv);

  Rng rng(opts.seed);
  PaperInstanceParams params;
  params.task_count = opts.tasks;
  params.proc_count = opts.procs;
  const ProblemInstance instance = make_paper_instance(params, rng);

  // A fixed pool of candidate chromosomes, cycled through by both paths so
  // they score identical work.
  constexpr std::size_t kCandidates = 64;
  std::vector<Chromosome> candidates;
  candidates.reserve(kCandidates);
  Rng chrom_rng = rng.substream(1);
  for (std::size_t i = 0; i < kCandidates; ++i) {
    candidates.push_back(random_chromosome(instance.graph, opts.procs, chrom_rng));
  }

  // --- Legacy cold path: the pre-workspace per-evaluation code shape
  // (decode + vector-of-vectors Gs assembly + fresh buffers). This is the
  // recorded baseline the >=3x target is measured against.
  double legacy_checksum = 0.0;
  const auto legacy_start = Clock::now();
  for (std::size_t k = 0; k < opts.evals; ++k) {
    const Chromosome& c = candidates[k % kCandidates];
    const Schedule schedule = decode(c, opts.procs);
    legacy_checksum +=
        legacy_cold_evaluate(instance.graph, instance.platform, schedule, instance.expected);
  }
  const double legacy_s = seconds_since(legacy_start);

  // --- Library one-shot path: decode + compute_schedule_timing, which still
  // constructs a TimingEvaluator per call but through today's (direct-CSR)
  // compile. Tracks how much of the win is construction vs buffer reuse.
  double oneshot_checksum = 0.0;
  const auto oneshot_start = Clock::now();
  for (std::size_t k = 0; k < opts.evals; ++k) {
    const Chromosome& c = candidates[k % kCandidates];
    const Schedule schedule = decode(c, opts.procs);
    const ScheduleTiming timing =
        compute_schedule_timing(instance.graph, instance.platform, schedule,
                                instance.expected);
    oneshot_checksum += timing.makespan + timing.average_slack;
  }
  const double oneshot_s = seconds_since(oneshot_start);

  // --- Workspace path: one EvalWorkspace reused across all evaluations
  // (the GA path: graph CSR compiled at bind, one fused sweep per candidate).
  EvalWorkspace ws(instance.graph, instance.platform, instance.expected);
  double warm_checksum = 0.0;
  const auto warm_start = Clock::now();
  for (std::size_t k = 0; k < opts.evals; ++k) {
    const Evaluation e = ws.evaluate(candidates[k % kCandidates]);
    warm_checksum += e.makespan + e.avg_slack;
  }
  const double warm_s = seconds_since(warm_start);

  if (legacy_checksum != warm_checksum || oneshot_checksum != warm_checksum) {
    std::cerr << "FAIL: paths disagree (legacy " << legacy_checksum << ", one-shot "
              << oneshot_checksum << ", workspace " << warm_checksum << ")\n";
    return 1;
  }

  const double legacy_rate = static_cast<double>(opts.evals) / legacy_s;
  const double oneshot_rate = static_cast<double>(opts.evals) / oneshot_s;
  const double warm_rate = static_cast<double>(opts.evals) / warm_s;
  const double speedup = warm_rate / legacy_rate;

  // --- GA generation throughput, serial vs parallel population evaluation.
  GaConfig ga;
  ga.population_size = opts.smoke ? 20 : 50;
  ga.max_iterations = opts.smoke ? 20 : 100;
  ga.stagnation_window = ga.max_iterations;  // fixed work on both runs
  ga.seed = opts.seed;
  ga.epsilon = 1.4;
  const auto ga_time = [&](std::size_t threads) {
    GaConfig c = ga;
    c.threads = threads;
    const auto start = Clock::now();
    const GaResult r =
        run_ga(instance.graph, instance.platform, instance.expected, c);
    const double s = seconds_since(start);
    return std::pair<double, double>(static_cast<double>(r.iterations) / s,
                                     r.best_eval.makespan);
  };
  const auto [gen_rate_1t, makespan_1t] = ga_time(1);
  const auto [gen_rate_mt, makespan_mt] = ga_time(0);
  if (makespan_1t != makespan_mt) {
    std::cerr << "FAIL: GA result differs across thread counts (" << makespan_1t
              << " vs " << makespan_mt << ")\n";
    return 1;
  }

  const bool speedup_ok = speedup >= 3.0;
  std::cout << "micro_eval_workspace: tasks=" << opts.tasks << " procs=" << opts.procs
            << " evals=" << opts.evals << (opts.smoke ? " (smoke)" : "") << "\n"
            << "  legacy cold (pre-workspace shape)  " << legacy_rate << " evals/s\n"
            << "  one-shot (construct per call)      " << oneshot_rate << " evals/s ("
            << oneshot_rate / legacy_rate << "x)\n"
            << "  workspace (bind-time graph CSR)    " << warm_rate << " evals/s ("
            << speedup << "x vs legacy, target 3x: " << (speedup_ok ? "met" : "MISSED")
            << ")\n"
            << "  ga 1 thread    " << gen_rate_1t << " generations/s\n"
            << "  ga max threads " << gen_rate_mt << " generations/s ("
            << gen_rate_mt / gen_rate_1t << "x, bit-identical result)\n";

  std::ofstream json(opts.json_path);
  json << "{\n"
       << "  \"bench\": \"micro_eval_workspace\",\n"
       << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"compiler\": \"" << RTS_BENCH_COMPILER << "\",\n"
       << "  \"build_type\": \"" << RTS_BENCH_BUILD_TYPE << "\",\n"
       << "  \"rts_native_arch\": \"" << RTS_BENCH_NATIVE_ARCH << "\",\n"
       << "  \"git_sha\": \"" << RTS_BENCH_GIT_SHA << "\",\n"
       << "  \"tasks\": " << opts.tasks << ",\n"
       << "  \"procs\": " << opts.procs << ",\n"
       << "  \"evals\": " << opts.evals << ",\n"
       << "  \"smoke\": " << (opts.smoke ? "true" : "false") << ",\n"
       << "  \"legacy_cold_evals_per_sec\": " << legacy_rate << ",\n"
       << "  \"oneshot_evals_per_sec\": " << oneshot_rate << ",\n"
       << "  \"workspace_evals_per_sec\": " << warm_rate << ",\n"
       << "  \"workspace_speedup_vs_legacy_cold\": " << speedup << ",\n"
       << "  \"workspace_speedup_vs_oneshot\": " << warm_rate / oneshot_rate << ",\n"
       << "  \"speedup_target\": 3.0,\n"
       << "  \"speedup_ok\": " << (speedup_ok ? "true" : "false") << ",\n"
       << "  \"ga_generations_per_sec_1thread\": " << gen_rate_1t << ",\n"
       << "  \"ga_generations_per_sec_max_threads\": " << gen_rate_mt << ",\n"
       << "  \"ga_parallel_bit_identical\": true\n"
       << "}\n";
  std::cout << "wrote " << opts.json_path << "\n";
  return 0;
}
