// rts_bench_trace — in-process layer tracer of the serving benchmark.
//
// Replays the benchmark's request lines through the public functions of each
// layer, in the order rts_serve and robust_schedule call them, and records a
// span (name, start, end, parent, request id) around every call. Spans stay
// in memory and are written out at exit; per-layer figures are self times
// (a span's duration minus the part its child spans cover).
//
//   rts_bench_trace probe [--repeats N]
//       fixed CPU-and-memory loop; prints {"probe_ms":...}, the median of N
//       timings (host drift probe)
//   rts_bench_trace serve LINES --out FILE --spans FILE [--cached]
//       [--min-lines K] [--seconds S] [--render-count R] [--queue-workers W]
//       [--queue-lines Q] [--speedup-threads T]
//       frame -> parse -> digest -> (HEFT -> GA -> MC x2 | cache lookup)
//       -> render per line; writes the first R rendered result lines to
//       --out and a summary JSON object to stdout. --queue-workers runs the
//       first Q lines through an in-process SchedulerService (W in flight)
//       for queue waits; --speedup-threads times MC at 1 and T threads.
//   rts_bench_trace resched SCENARIOS --out FILE --spans FILE
//       [--min-scenarios K] [--seconds S] [--render-count R]
//       each scenario line is "PROBLEM OVERSUB SEED REALIZATIONS": the
//       composition `rts resched --drop probabilistic` runs, plus one span
//       per run_online_reschedule call
//
// Count figures (GA generations, re-solves, dropped tasks) are summed over
// the first K lines/scenarios only, so they repeat exactly for a seed; timed
// figures use every line replayed within --seconds.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/rts.hpp"
#include "net/framing.hpp"
#include "net/serve_protocol.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"

namespace {

using namespace rts;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ms_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;  ///< index into the span list, -1 for a root
  std::int64_t request;
};

class Tracer {
 public:
  std::int64_t open(const char* name, std::int64_t parent, std::int64_t request) {
    spans_.push_back(Span{name, now_ns(), 0, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void close(std::int64_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per span name and request, the summed time (ms): self time (the
  /// span's duration minus its children's) or, with self_only false, the
  /// whole duration.
  [[nodiscard]] std::map<std::string, std::map<std::int64_t, double>> per_request_ms(
      bool self_only) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    std::map<std::string, std::map<std::int64_t, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::int64_t ns = s.end_ns - s.start_ns - (self_only ? child_ns[i] : 0);
      out[s.name][s.request] += static_cast<double>(ns) / 1e6;
    }
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream os(path);
    RTS_REQUIRE(os.good(), "cannot open span file: " + path);
    os << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "[\"" << s.name << "\"," << s.start_ns << ','
         << s.end_ns << ',' << s.parent << ',' << s.request << ']';
    }
    os << "\n]\n";
    RTS_REQUIRE(os.good(), "write failure on span file: " + path);
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int64_t parent, std::int64_t request)
      : tracer_(tracer), index_(tracer.open(name, parent, request)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::int64_t index() const { return index_; }

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Highest percentile of a fixed ladder with at least 10 samples beyond it.
std::pair<double, double> tail(std::vector<double> v) {
  static constexpr double kLadder[] = {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0};
  if (v.empty()) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  for (const double p : kLadder) {
    if (n * (1.0 - p / 100.0) >= 10.0 || p == 50.0) {
      const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
      return {p, v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1]};
    }
  }
  return {0.0, 0.0};
}

std::vector<double> values(const std::map<std::int64_t, double>& per_request) {
  std::vector<double> out;
  for (const auto& [request, ms] : per_request) out.push_back(ms);
  return out;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  RTS_REQUIRE(in.good(), "cannot open: " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  RTS_REQUIRE(!lines.empty(), "no lines in " + path);
  return lines;
}

SolveSummary summarize(const RobustScheduleOutcome& outcome) {
  SolveSummary s;
  s.heft_makespan = outcome.heft_makespan;
  s.makespan = outcome.eval.makespan;
  s.avg_slack = outcome.eval.avg_slack;
  s.mean_tardiness = outcome.report.mean_tardiness;
  s.miss_rate = outcome.report.miss_rate;
  s.r1 = outcome.report.r1;
  s.r2 = outcome.report.r2;
  s.heft_r1 = outcome.heft_report.r1;
  s.heft_r2 = outcome.heft_report.r2;
  s.ga_iterations = outcome.ga_iterations;
  return s;
}

/// robust_schedule's pipeline, composed call by call with one span each.
RobustScheduleOutcome traced_solve(const ProblemInstance& instance,
                                   const RobustSchedulerConfig& config,
                                   EvalWorkspacePool& scratch, Tracer& tracer,
                                   std::int64_t parent, std::int64_t request) {
  const Scope solve(tracer, "core.solve", parent, request);
  instance.validate();
  ListScheduleResult heft = [&] {
    const Scope s(tracer, "sched.heft", solve.index(), request);
    return heft_schedule(instance.graph, instance.platform, instance.expected);
  }();
  GaConfig ga_config = config.ga;
  Matrix<double> stddev;
  const Matrix<double>* stddev_ptr = nullptr;
  if (config.stochastic_objective) {
    ga_config.objective = ObjectiveKind::kEpsilonConstraintEffective;
    stddev = duration_stddev(instance.bcet, instance.ul);
    stddev_ptr = &stddev;
  }
  GaResult ga = [&] {
    const Scope s(tracer, "ga", solve.index(), request);
    return run_ga(instance.graph, instance.platform, instance.expected, ga_config,
                  nullptr, stddev_ptr, &scratch);
  }();
  RobustnessReport ga_report = [&] {
    const Scope s(tracer, "sim.mc", solve.index(), request);
    return evaluate_robustness(instance, ga.best_schedule, config.mc);
  }();
  RobustnessReport heft_report = [&] {
    const Scope s(tracer, "sim.mc", solve.index(), request);
    return evaluate_robustness(instance, heft.schedule, config.mc);
  }();
  return RobustScheduleOutcome{std::move(ga.best_schedule), ga.best_eval,
                               std::move(ga_report),        std::move(heft.schedule),
                               std::move(heft_report),      ga.heft_makespan,
                               ga.iterations};
}

class JsonOut {
 public:
  JsonOut& num(const std::string& key, double value) {
    sep();
    os_ << '"' << key << "\":";
    if (std::isfinite(value)) {
      os_ << value;
    } else {
      os_ << "null";
    }
    return *this;
  }
  JsonOut& raw(const std::string& key, const std::string& json) {
    sep();
    os_ << '"' << key << "\":" << json;
    return *this;
  }
  std::string str() const { return "{" + os_.str() + "}"; }

 private:
  void sep() {
    if (!first_) os_ << ',';
    first_ = false;
  }
  std::ostringstream os_ = [] {
    std::ostringstream os;
    os.precision(17);
    return os;
  }();
  bool first_ = true;
};

/// Per span name: median self and whole time per request, summed self time.
std::string span_stats(const Tracer& tracer) {
  const auto self = tracer.per_request_ms(true);
  const auto whole = tracer.per_request_ms(false);
  JsonOut out;
  for (const auto& [name, per_request] : self) {
    double self_sum = 0.0;
    for (const auto& [request, ms] : per_request) self_sum += ms;
    out.raw(name, JsonOut()
                      .num("self_ms", median(values(per_request)))
                      .num("whole_ms", median(values(whole.at(name))))
                      .num("self_sum_ms", self_sum)
                      .num("requests", static_cast<double>(per_request.size()))
                      .str());
  }
  return out.str();
}

/// Closed loop over an in-process SchedulerService: `workers` jobs in
/// flight, queue wait = callback time - submit time - JobResult::latency_ms.
std::string queue_phase(const std::vector<ParsedRequest>& requests,
                        std::size_t workers) {
  SchedulerServiceConfig config;
  config.workers = workers;
  SchedulerService service(config);
  std::mutex mutex;
  std::condition_variable done_cv;
  std::vector<double> waits;
  std::size_t in_flight = 0;
  for (const ParsedRequest& parsed : requests) {
    {
      std::unique_lock lock(mutex);
      done_cv.wait(lock, [&] { return in_flight < workers; });
      ++in_flight;
    }
    const std::int64_t submit = now_ns();
    const auto outcome = service.submit_async(parsed.request, [&, submit](JobResult&& r) {
      const double wait = ms_since(submit) - r.latency_ms;
      const std::lock_guard lock(mutex);
      waits.push_back(std::max(0.0, wait));
      --in_flight;
      done_cv.notify_all();
    });
    RTS_REQUIRE(outcome == SchedulerService::SubmitOutcome::kAccepted,
                "queue phase: job not admitted");
  }
  {
    std::unique_lock lock(mutex);
    done_cv.wait(lock, [&] { return in_flight == 0; });
  }
  service.shutdown();
  const auto [pct, tail_ms] = tail(waits);
  return JsonOut()
      .num("jobs", static_cast<double>(waits.size()))
      .num("p50_ms", median(waits))
      .num("tail_ms", tail_ms)
      .num("tail_pct", pct)
      .str();
}

int cmd_probe(const Options& opts) {
  // Pointer chase over an 8 MiB random cycle plus integer mixing: touches
  // memory latency and ALU throughput, independent of the program under
  // test. Reports the median of --repeats timings.
  constexpr std::uint32_t kSlots = 1u << 21;
  std::vector<std::uint32_t> next(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  Rng rng(12345);
  for (std::uint32_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
    const auto j = static_cast<std::uint32_t>(rng() % i);
    std::swap(next[i], next[j]);
  }
  std::vector<double> times;
  std::uint64_t mix = 0;
  for (std::int64_t rep = 0; rep < std::max<std::int64_t>(1, opts.get_int("repeats", 1)); ++rep) {
    const std::int64_t start = now_ns();
    std::uint32_t at = 0;
    for (std::uint32_t step = 0; step < (1u << 18); ++step) {
      at = next[at];
      mix = (mix ^ at) * 0x9e3779b97f4a7c15ull;
      for (int k = 0; k < 16; ++k) mix = (mix << 7) ^ (mix >> 3) ^ static_cast<std::uint64_t>(k);
    }
    times.push_back(ms_since(start));
  }
  std::cout << JsonOut()
                   .num("probe_ms", median(times))
                   .num("checksum", static_cast<double>(mix % 1000))
                   .str()
            << '\n';
  return 0;
}

int cmd_serve(const Options& opts) {
  const std::vector<std::string> lines = read_lines(opts.positional().at(1));
  const bool cached = opts.get_bool("cached", false);
  const auto min_lines = static_cast<std::size_t>(opts.get_int("min-lines", 4));
  const double seconds = opts.get_double("seconds", 0.0);
  const auto render_count = static_cast<std::size_t>(opts.get_int("render-count", 0));
  const auto queue_workers = static_cast<std::size_t>(opts.get_int("queue-workers", 0));
  const auto queue_lines = static_cast<std::size_t>(opts.get_int("queue-lines", 0));
  const auto speedup_threads = static_cast<std::size_t>(opts.get_int("speedup-threads", 0));
  std::ofstream out(opts.get_string("out", "/dev/null"));
  RTS_REQUIRE(out.good(), "cannot open --out");

  // Problem files load once each, before the first request, as the server
  // does on its first line naming them.
  Tracer tracer;
  ProblemCache problems;
  std::vector<double> load_ms;
  {
    std::map<std::string, bool> loaded;
    for (const std::string& line : lines) {
      const std::string_view stripped = *strip_request_line(line);
      const std::string path(stripped.substr(0, stripped.find(' ')));
      if (loaded[path]) continue;
      loaded[path] = true;
      const std::int64_t t0 = now_ns();
      {
        const Scope s(tracer, "workload.load", -1, -1);
        (void)problems.load(path);
      }
      load_ms.push_back(ms_since(t0));
    }
  }

  // Cached mode: the solver runs once per distinct line up front (the
  // server's warm-up); every replayed line is then served from the cache.
  ResultCache cache(256);
  EvalWorkspacePool scratch;
  if (cached) {
    for (const std::string& line : lines) {
      const ParsedRequest parsed = parse_request_line(*strip_request_line(line), problems);
      const Digest key = job_digest(*parsed.request.problem, parsed.request.config);
      if (cache.lookup(key)) continue;
      cache.insert(key, summarize(robust_schedule(*parsed.request.problem,
                                                  parsed.request.config, &scratch)));
    }
  }

  LineFramer framer;
  const auto frame = [&framer](const std::string& line) {
    std::string framed;
    framer.feed(line + "\n", [&](std::string_view l, FrameStatus) { framed = l; });
    return framed;
  };
  std::vector<double> traced_ms, untraced_ms;
  std::size_t generations = 0;
  bool composition_matches = true;
  std::vector<ParsedRequest> count_requests;
  std::optional<Schedule> first_ga_schedule;
  const std::int64_t start = now_ns();
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i >= min_lines && ms_since(start) >= seconds * 1e3) break;
    const auto request = static_cast<std::int64_t>(i);

    // Untraced twin of the first min_lines requests: the same calls with
    // robust_schedule composing the solve and no spans. It gives the
    // tracing overhead and checks the traced composition's result. The two
    // alternate which runs first, so neither always finds warm caches.
    SolveSummary untraced_summary;
    const auto untraced = [&] {
      const std::int64_t t0 = now_ns();
      const ParsedRequest parsed =
          parse_request_line(*strip_request_line(frame(lines[i])), problems);
      JobResult result;
      result.key = job_digest(*parsed.request.problem, parsed.request.config);
      result.cache_hit = cached;
      result.summary =
          cached ? *cache.lookup(result.key)
                 : summarize(robust_schedule(*parsed.request.problem, parsed.request.config,
                                             &scratch));
      const std::string rendered = render_result_line(i, parsed.problem_path, result);
      untraced_ms.push_back(ms_since(t0));
      untraced_summary = result.summary;
    };
    if (i < min_lines && i % 2 == 0) untraced();

    ParsedRequest parsed;
    JobResult result;
    std::string rendered;
    const std::int64_t t0 = now_ns();
    {
      const Scope root(tracer, "request", -1, request);
      std::string framed;
      {
        const Scope s(tracer, "net.frame", root.index(), request);
        framed = frame(lines[i]);
      }
      {
        const Scope s(tracer, "net.parse", root.index(), request);
        parsed = parse_request_line(*strip_request_line(framed), problems);
      }
      result.job_id = i;
      {
        const Scope s(tracer, "service.digest", root.index(), request);
        result.key = job_digest(*parsed.request.problem, parsed.request.config);
      }
      if (cached) {
        const Scope s(tracer, "service.cache_lookup", root.index(), request);
        const std::optional<SolveSummary> hit = cache.lookup(result.key);
        RTS_REQUIRE(hit.has_value(), "hot line missed the cache");
        result.summary = *hit;
        result.cache_hit = true;
      } else {
        RobustScheduleOutcome outcome = traced_solve(*parsed.request.problem,
                                                     parsed.request.config, scratch, tracer,
                                                     root.index(), request);
        result.summary = summarize(outcome);
        if (!first_ga_schedule) first_ga_schedule = std::move(outcome.schedule);
      }
      const Scope s(tracer, "net.render", root.index(), request);
      rendered = render_result_line(i, parsed.problem_path, result);
    }
    const double traced = ms_since(t0);
    if (i < render_count) out << rendered << '\n';
    if (i < min_lines) {
      if (i % 2 == 1) untraced();
      traced_ms.push_back(traced);
      generations += result.summary.ga_iterations;
      composition_matches = composition_matches && result.summary == untraced_summary;
      count_requests.push_back(std::move(parsed));
    }
    ++replayed;
  }
  RTS_REQUIRE(out.good(), "write failure on --out");

  double ga_ms = 0.0;  // GA time of the counted lines
  if (!cached) {
    for (const auto& [request, ms] : tracer.per_request_ms(true).at("ga")) {
      if (static_cast<std::size_t>(request) < count_requests.size()) ga_ms += ms;
    }
  }

  JsonOut summary;
  summary.num("lines_replayed", static_cast<double>(replayed))
      .num("count_lines", static_cast<double>(count_requests.size()))
      .num("ga_generations", static_cast<double>(generations))
      .num("ga_ms", ga_ms)
      .num("load_ms_median", median(load_ms))
      .num("traced_ms_median", median(traced_ms))
      .num("untraced_ms_median", median(untraced_ms))
      .raw("composition_matches", composition_matches ? "true" : "false")
      .raw("spans", span_stats(tracer));

  if (queue_workers > 0 && queue_lines > 0) {
    std::vector<ParsedRequest> queued;
    for (std::size_t i = 0; i < std::min(queue_lines, lines.size()); ++i) {
      queued.push_back(parse_request_line(*strip_request_line(lines[i]), problems));
    }
    summary.raw("queue", queue_phase(queued, queue_workers));
  }

  if (speedup_threads > 0 && first_ga_schedule) {
    // MC on the first line's GA schedule at 1 and at N threads; the report
    // must not depend on the thread count.
    const ParsedRequest& parsed = count_requests.front();
    MonteCarloConfig mc = parsed.request.config.mc;
    std::vector<double> one, many;
    bool identical = true;
    for (int rep = 0; rep < 3; ++rep) {
      mc.threads = 1;
      std::int64_t t0 = now_ns();
      const RobustnessReport a = evaluate_robustness(*parsed.request.problem, *first_ga_schedule, mc);
      one.push_back(ms_since(t0));
      mc.threads = speedup_threads;
      t0 = now_ns();
      const RobustnessReport b = evaluate_robustness(*parsed.request.problem, *first_ga_schedule, mc);
      many.push_back(ms_since(t0));
      identical = identical && a.r1 == b.r1 && a.r2 == b.r2 &&
                  a.mean_realized_makespan == b.mean_realized_makespan;
    }
    summary.raw("mc_threads", JsonOut()
                                  .num("threads", static_cast<double>(speedup_threads))
                                  .num("one_thread_ms", median(one))
                                  .num("n_thread_ms", median(many))
                                  .num("realizations", static_cast<double>(mc.realizations))
                                  .raw("bit_identical", identical ? "true" : "false")
                                  .str());
  }

  tracer.write(opts.get_string("spans", "spans.json"));
  std::cout << summary.str() << '\n';
  return 0;
}

/// One `rts resched --drop probabilistic` invocation, every other option at
/// its default (apps/rts_cli.cpp, cmd_resched).
struct Scenario {
  std::string problem;
  double oversub = 1.5;
  std::uint64_t seed = 1;
  std::size_t realizations = 1;
};

int cmd_resched(const Options& opts) {
  std::vector<Scenario> scenarios;
  for (const std::string& line : read_lines(opts.positional().at(1))) {
    std::istringstream is(line);
    Scenario s;
    is >> s.problem >> s.oversub >> s.seed >> s.realizations;
    RTS_REQUIRE(!is.fail() && s.realizations > 0, "malformed scenario line: " + line);
    scenarios.push_back(s);
  }
  const auto min_scenarios = static_cast<std::size_t>(opts.get_int("min-scenarios", 1));
  const double seconds = opts.get_double("seconds", 0.0);
  const auto render_count = static_cast<std::size_t>(opts.get_int("render-count", 0));
  std::ofstream out(opts.get_string("out", "/dev/null"));
  RTS_REQUIRE(out.good(), "cannot open --out");

  Tracer tracer;
  std::size_t resolves = 0, generations = 0, dropped = 0, realizations = 0;
  bool aggregates_match = true;
  std::vector<double> traced_ms, untraced_ms;
  const std::int64_t start = now_ns();
  std::size_t replayed = 0;
  for (std::size_t k = 0; k < scenarios.size(); ++k) {
    if (k >= min_scenarios && ms_since(start) >= seconds * 1e3) break;
    const Scenario& sc = scenarios[k];
    const auto request = static_cast<std::int64_t>(k);
    const Scope root(tracer, "scenario", -1, request);
    ProblemInstance instance = [&] {
      const Scope s(tracer, "workload.load", root.index(), request);
      return load_problem_file(sc.problem);
    }();
    if (!instance.has_deadlines()) {
      DeadlineParams params;
      params.oversubscription = sc.oversub;
      Rng rng(sc.seed ^ 0xd11eul);
      assign_deadlines(instance, params, rng);
    }
    const Schedule plan = [&] {
      const Scope s(tracer, "sched.heft", root.index(), request);
      return heft_schedule(instance.graph, instance.platform, instance.expected).schedule;
    }();
    ReschedConfig config;
    config.trigger = TriggerKind::kDeadlineRisk;
    config.drop = DropPolicyKind::kProbabilistic;
    config.drop_params.mc_samples = 32;  // the CLI's --mc-samples default
    config.drop_seed = sc.seed ^ 0xd309ul;
    config.ga.seed = sc.seed;
    ReschedEvalConfig mc;
    mc.realizations = sc.realizations;
    mc.seed = sc.seed ^ 0x4d43ul;
    mc.threads = 1;

    // evaluate_resched's realization loop, one span per
    // run_online_reschedule call (realization i: substream i, per-run seeds).
    const std::size_t n = instance.task_count();
    const std::size_t m = instance.proc_count();
    const Rng root_rng(mc.seed);
    Matrix<double> realized(n, m);
    // Means reduced as evaluate_resched reduces them (sum of x / R in
    // realization order), so they must match its report bit for bit.
    const auto r = static_cast<double>(mc.realizations);
    double mean_resolves = 0.0, mean_dropped = 0.0, mean_generations = 0.0;
    const std::int64_t loop_start = now_ns();
    for (std::size_t i = 0; i < mc.realizations; ++i) {
      Rng rng = root_rng.substream(i);
      for (std::size_t t = 0; t < n; ++t) {
        for (std::size_t p = 0; p < m; ++p) {
          realized(t, p) = sample_realized_duration(rng, instance.bcet(t, p), instance.ul(t, p));
        }
      }
      ReschedConfig run_config = config;
      run_config.drop_seed = hash_combine_u64(config.drop_seed, i);
      run_config.ga.seed = hash_combine_u64(config.ga.seed ^ 0x6a5eedull, i);
      run_config.ga.threads = 1;
      const ReschedRunResult run = [&] {
        const Scope s(tracer, "resched.run", root.index(), request);
        return run_online_reschedule(instance, plan, realized, run_config);
      }();
      const auto run_dropped = static_cast<std::size_t>(
          std::count(run.dropped.begin(), run.dropped.end(), std::uint8_t{1}));
      mean_resolves += static_cast<double>(run.resolves) / r;
      mean_dropped += static_cast<double>(run_dropped) / r;
      mean_generations += static_cast<double>(run.ga_iterations_total) / r;
      if (k < min_scenarios) {
        resolves += run.resolves;
        generations += run.ga_iterations_total;
        dropped += run_dropped;
        ++realizations;
      }
    }

    const double loop_ms = ms_since(loop_start);

    // The CLI's JSON report for the same scenario, and a check that the
    // per-realization replay above is the loop evaluate_resched runs; the
    // untraced call also gives the tracing overhead.
    if (k < render_count) {
      ReschedConfig baseline = config;
      baseline.max_resolves = 0;
      baseline.drop = DropPolicyKind::kNever;
      const ReschedEvalReport base = evaluate_resched(instance, plan, baseline, mc);
      const std::int64_t t0 = now_ns();
      const ReschedEvalReport online = evaluate_resched(instance, plan, config, mc);
      untraced_ms.push_back(ms_since(t0));
      traced_ms.push_back(loop_ms);
      out << "{\"one_shot\":" << resched_report_to_json(base)
          << ",\"resched\":" << resched_report_to_json(online) << "}\n";
      aggregates_match = aggregates_match && online.mean_resolves == mean_resolves &&
                         online.mean_dropped == mean_dropped &&
                         online.mean_ga_iterations == mean_generations;
    }
    ++replayed;
  }
  RTS_REQUIRE(out.good(), "write failure on --out");

  std::vector<double> run_ms;  // one sample per run_online_reschedule call
  for (const Span& s : tracer.spans()) {
    if (std::string_view(s.name) == "resched.run") {
      run_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  tracer.write(opts.get_string("spans", "spans.json"));
  std::cout << JsonOut()
                   .num("scenarios_replayed", static_cast<double>(replayed))
                   .num("count_realizations", static_cast<double>(realizations))
                   .num("resolves", static_cast<double>(resolves))
                   .num("ga_generations", static_cast<double>(generations))
                   .num("dropped_tasks", static_cast<double>(dropped))
                   .num("run_ms_median", median(run_ms))
                   .num("traced_ms_median", median(traced_ms))
                   .num("untraced_ms_median", median(untraced_ms))
                   .raw("aggregates_match", aggregates_match ? "true" : "false")
                   .raw("spans", span_stats(tracer))
                   .str()
            << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  try {
    const std::string command = opts.positional().empty() ? "" : opts.positional()[0];
    if (command == "probe") return cmd_probe(opts);
    if (command == "serve" && opts.positional().size() == 2) return cmd_serve(opts);
    if (command == "resched" && opts.positional().size() == 2) return cmd_resched(opts);
    std::cerr << "usage: rts_bench_trace probe | serve LINES [...] | resched SCENARIOS [...]\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
