#include "core/report_io.hpp"

#include <fstream>

#include "util/error.hpp"
#include "util/json_writer.hpp"

namespace rts {

std::string robustness_to_json(const RobustnessReport& report, bool include_samples) {
  JsonWriter w;
  w.begin_object()
      .field("expected_makespan", report.expected_makespan)
      .field("mean_realized_makespan", report.mean_realized_makespan)
      .field("stddev_realized_makespan", report.stddev_realized_makespan)
      .field("max_realized_makespan", report.max_realized_makespan)
      .field("p50", report.p50_realized_makespan)
      .field("p95", report.p95_realized_makespan)
      .field("p99", report.p99_realized_makespan)
      .field("mean_tardiness", report.mean_tardiness)
      .field("miss_rate", report.miss_rate)
      .field("r1", report.r1)
      .field("r2", report.r2)
      .field("realizations", report.realizations);
  if (include_samples) w.field("samples", report.samples);
  return w.end_object().take();
}

std::string criticality_to_json(const CriticalityReport& report) {
  return JsonWriter()
      .begin_object()
      .field("expected_critical_tasks", report.expected_critical_tasks)
      .field("safe_tasks", report.safe_tasks)
      .field("normalized_entropy", report.normalized_entropy)
      .field("realizations", report.realizations)
      .field("criticality_index", report.criticality_index)
      .end_object()
      .take();
}

std::string resched_report_to_json(const ReschedEvalReport& report) {
  return JsonWriter()
      .begin_object()
      .field("realizations", report.realizations)
      .field("mean_makespan", report.mean_makespan)
      .field("deadline_miss_rate", report.deadline_miss_rate)
      .field("mean_value_accrued", report.mean_value_accrued)
      .field("value_possible", report.value_possible)
      .field("mean_dropped", report.mean_dropped)
      .field("mean_resolves", report.mean_resolves)
      .field("mean_ga_iterations", report.mean_ga_iterations)
      .end_object()
      .take();
}

std::string timeline_to_json(const TaskGraph& graph, const Schedule& schedule,
                             const ScheduleTiming& timing) {
  RTS_REQUIRE(timing.start.size() == schedule.task_count(),
              "timing does not match schedule");
  RTS_REQUIRE(graph.task_count() == schedule.task_count(),
              "graph does not match schedule");
  JsonWriter w;
  w.begin_object()
      .field("makespan", timing.makespan)
      .field("average_slack", timing.average_slack)
      .key("tasks")
      .begin_array();
  for (const TaskId t : id_range<TaskId>(schedule.task_count())) {
    w.begin_object()
        .field("id", t.value())
        .field("name", graph.task_name(t))
        .field("processor", schedule.proc_of(t).value())
        .field("start", timing.start[t])
        .field("finish", timing.finish[t])
        .field("slack", timing.slack[t])
        .end_object();
  }
  return w.end_array().end_object().take();
}

void save_json_file(const std::string& path, const std::string& json) {
  std::ofstream out(path);
  RTS_REQUIRE(out.good(), "cannot open JSON output file: " + path);
  out << json << '\n';
  RTS_REQUIRE(out.good(), "write failure on: " + path);
}

}  // namespace rts
