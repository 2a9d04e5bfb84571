#include "core/report_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "../test_helpers.hpp"
#include "sched/heft.hpp"
#include "util/error.hpp"

namespace rts {
namespace {

RobustnessReport sample_report() {
  const auto instance = testing::small_instance(20, 4, 3.0, 1);
  const auto heft = heft_schedule(instance.graph, instance.platform, instance.expected);
  MonteCarloConfig config;
  config.realizations = 100;
  config.collect_samples = true;
  return evaluate_robustness(instance, heft.schedule, config);
}

TEST(ReportJson, RobustnessContainsAllKeys) {
  const std::string json = robustness_to_json(sample_report());
  for (const char* key :
       {"\"expected_makespan\":", "\"mean_realized_makespan\":", "\"p50\":",
        "\"p95\":", "\"p99\":", "\"mean_tardiness\":", "\"miss_rate\":", "\"r1\":",
        "\"r2\":", "\"realizations\":100"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(json.find("\"samples\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ReportJson, SamplesIncludedOnRequest) {
  const std::string json = robustness_to_json(sample_report(), /*include_samples=*/true);
  const auto pos = json.find("\"samples\":[");
  ASSERT_NE(pos, std::string::npos);
  // 100 samples -> 99 commas inside the array.
  const auto end = json.find(']', pos);
  ASSERT_NE(end, std::string::npos);
  const std::string array = json.substr(pos, end - pos);
  EXPECT_EQ(std::count(array.begin(), array.end(), ','), 99);
}

TEST(ReportJson, CriticalityRoundtripKeys) {
  const auto instance = testing::small_instance(15, 3, 3.0, 2);
  const auto heft = heft_schedule(instance.graph, instance.platform, instance.expected);
  CriticalityConfig config;
  config.realizations = 50;
  const auto report = analyze_criticality(instance, heft.schedule, config);
  const std::string json = criticality_to_json(report);
  EXPECT_NE(json.find("\"expected_critical_tasks\":"), std::string::npos);
  EXPECT_NE(json.find("\"safe_tasks\":"), std::string::npos);
  EXPECT_NE(json.find("\"normalized_entropy\":"), std::string::npos);
  const auto pos = json.find("\"criticality_index\":[");
  ASSERT_NE(pos, std::string::npos);
  const auto end = json.find(']', pos);
  const std::string array = json.substr(pos, end - pos);
  EXPECT_EQ(std::count(array.begin(), array.end(), ','), 14);  // 15 entries
}

TEST(ReportJson, TimelineListsEveryTaskWithEscaping) {
  TaskGraph g = testing::chain3(0.0);
  g.set_task_name(0, "weird \"name\"\nwith\tstuff");
  const Platform platform(1, 1.0);
  const Schedule s(3, {{0, 1, 2}});
  const Matrix<double> costs(3, 1, 2.0);
  const auto timing = compute_schedule_timing(g, platform, s, costs);
  const std::string json = timeline_to_json(g, s, timing);
  EXPECT_NE(json.find("\"makespan\":6"), std::string::npos);
  EXPECT_NE(json.find("\"weird \\\"name\\\"\\nwith\\tstuff\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":2"), std::string::npos);
  EXPECT_NE(json.find("\"processor\":0"), std::string::npos);
}

TEST(ReportJson, TimelineRejectsMismatchedInputs) {
  const TaskGraph g = testing::chain3(0.0);
  const Platform platform(1, 1.0);
  const Schedule s(3, {{0, 1, 2}});
  ScheduleTiming empty;
  EXPECT_THROW(timeline_to_json(g, s, empty), InvalidArgument);
}

// Exact-byte goldens. The doubles need all 17 significant digits or sit on
// a sign/exponent edge (0.1+0.2, 1e17, -0.0, 20.0, the smallest denormal),
// and the task name runs every escape class, so any drift in the number
// format or the string escaper fails here.
RobustnessReport golden_robustness() {
  RobustnessReport r;
  r.expected_makespan = 0.1 + 0.2;
  r.mean_realized_makespan = 1e17;
  r.stddev_realized_makespan = -0.0;
  r.max_realized_makespan = 20.0;
  r.p50_realized_makespan = 1.0 / 3.0;
  r.p95_realized_makespan = 123456.789;
  r.p99_realized_makespan = 5e-324;
  r.mean_tardiness = 2.5;
  r.miss_rate = 0.125;
  r.r1 = 1e300;
  r.r2 = -1.5e-7;
  r.realizations = 1000;
  r.samples = {0.1, 1e21, -0.0, 3.0};
  return r;
}

constexpr const char* kRobustnessGolden =
    "{\"expected_makespan\":0.30000000000000004,\"mean_realized_makespan\":1e+17,"
    "\"stddev_realized_makespan\":-0,\"max_realized_makespan\":20,"
    "\"p50\":0.33333333333333331,\"p95\":123456.789,"
    "\"p99\":4.9406564584124654e-324,\"mean_tardiness\":2.5,\"miss_rate\":0.125,"
    "\"r1\":1.0000000000000001e+300,\"r2\":-1.4999999999999999e-07,"
    "\"realizations\":1000";

TEST(ReportJson, RobustnessGoldenBytes) {
  EXPECT_EQ(robustness_to_json(golden_robustness()),
            std::string(kRobustnessGolden) + "}");
  EXPECT_EQ(robustness_to_json(golden_robustness(), /*include_samples=*/true),
            std::string(kRobustnessGolden) +
                ",\"samples\":[0.10000000000000001,1e+21,-0,3]}");
}

TEST(ReportJson, CriticalityGoldenBytes) {
  CriticalityReport r;
  EXPECT_EQ(criticality_to_json(r),
            "{\"expected_critical_tasks\":0,\"safe_tasks\":0,"
            "\"normalized_entropy\":0,\"realizations\":0,\"criticality_index\":[]}");
  r.criticality_index = {0.0, 0.5, 1.0 / 3.0, 1.0};
  r.expected_critical_tasks = 2.2;
  r.safe_tasks = 1;
  r.normalized_entropy = 0.1 + 0.2;
  r.realizations = 50;
  EXPECT_EQ(criticality_to_json(r),
            "{\"expected_critical_tasks\":2.2000000000000002,\"safe_tasks\":1,"
            "\"normalized_entropy\":0.30000000000000004,\"realizations\":50,"
            "\"criticality_index\":[0,0.5,0.33333333333333331,1]}");
}

TEST(ReportJson, ReschedGoldenBytes) {
  ReschedEvalReport r;
  r.realizations = 24;
  r.mean_makespan = 1e17;
  r.deadline_miss_rate = 0.1 + 0.2;
  r.mean_value_accrued = 20.0;
  r.value_possible = 123456.789;
  r.mean_dropped = -0.0;
  r.mean_resolves = 2.0 / 3.0;
  r.mean_ga_iterations = 64.875;
  EXPECT_EQ(resched_report_to_json(r),
            "{\"realizations\":24,\"mean_makespan\":1e+17,"
            "\"deadline_miss_rate\":0.30000000000000004,\"mean_value_accrued\":20,"
            "\"value_possible\":123456.789,\"mean_dropped\":-0,"
            "\"mean_resolves\":0.66666666666666663,\"mean_ga_iterations\":64.875}");
}

TEST(ReportJson, TimelineGoldenBytes) {
  TaskGraph g = testing::chain3(0.0);
  // '"', '\\', '\n', '\t', '\r', 0x01, 0x1f and a two-byte UTF-8 sequence.
  g.set_task_name(0, "q\"b\\n\nt\tr\rc\x01" "d\x1f" "u\xc3\xa9");
  const Platform platform(1, 1.0);
  const Schedule s(3, {{0, 1, 2}});
  const Matrix<double> costs(3, 1, 0.1);
  const auto timing = compute_schedule_timing(g, platform, s, costs);
  EXPECT_EQ(timeline_to_json(g, s, timing),
            "{\"makespan\":0.30000000000000004,"
            "\"average_slack\":1.8503717077085941e-17,\"tasks\":["
            "{\"id\":0,\"name\":\"q\\\"b\\\\n\\nt\\tr\\u000dc\\u0001d\\u001fu\xc3\xa9\","
            "\"processor\":0,\"start\":0,\"finish\":0.10000000000000001,\"slack\":0},"
            "{\"id\":1,\"name\":\"t1\",\"processor\":0,\"start\":0.10000000000000001,"
            "\"finish\":0.20000000000000001,\"slack\":2.7755575615628914e-17},"
            "{\"id\":2,\"name\":\"t2\",\"processor\":0,\"start\":0.20000000000000001,"
            "\"finish\":0.30000000000000004,\"slack\":2.7755575615628914e-17}]}");
}

TEST(ReportJson, SaveToFileAndBadPath) {
  const std::string path = ::testing::TempDir() + "rts_report_test.json";
  save_json_file(path, "{\"x\":1}");
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "{\"x\":1}");
  std::remove(path.c_str());
  EXPECT_THROW(save_json_file("/nonexistent_zzz/x.json", "{}"), InvalidArgument);
}

}  // namespace
}  // namespace rts
