#pragma once
// JSON export of evaluation artifacts so downstream tooling (notebooks,
// dashboards) can consume results without parsing console tables. Built on
// util/json_writer: compact, deterministic key order, 17-digit doubles.

#include <string>

#include "resched/rescheduler.hpp"
#include "sched/timing.hpp"
#include "sim/criticality.hpp"
#include "sim/monte_carlo.hpp"

namespace rts {

/// Serialize a robustness report. `include_samples` controls whether the
/// (potentially large) realized-makespan array is embedded.
std::string robustness_to_json(const RobustnessReport& report,
                               bool include_samples = false);

/// Serialize a criticality report (always includes the per-task index).
std::string criticality_to_json(const CriticalityReport& report);

/// Serialize an online-rescheduling evaluation (see resched/rescheduler.hpp).
std::string resched_report_to_json(const ReschedEvalReport& report);

/// Serialize a schedule timeline (per-task processor, start, finish, slack)
/// for visualization front ends.
std::string timeline_to_json(const TaskGraph& graph, const Schedule& schedule,
                             const ScheduleTiming& timing);

/// Write `json` to `path`; throws InvalidArgument on I/O failure.
void save_json_file(const std::string& path, const std::string& json);

}  // namespace rts
