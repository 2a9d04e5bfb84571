// Exact-byte goldens of the serve_protocol response lines. Batch and socket
// mode both print these bytes, and clients diff them, so the number format
// (17 significant digits, "-0", "1e+17") and the string escaper are pinned
// here, not only the keys.

#include "net/serve_protocol.hpp"

#include <gtest/gtest.h>

#include <string>

namespace rts {
namespace {

JobResult ok_result(bool cache_hit) {
  JobResult r;
  r.key = Digest{0x0123456789abcdefull, 0xfedcba9876543210ull};
  r.cache_hit = cache_hit;
  r.summary.heft_makespan = 0.1 + 0.2;
  r.summary.makespan = 1e17;
  r.summary.avg_slack = -0.0;
  r.summary.mean_tardiness = 20.0;
  r.summary.miss_rate = 1.0 / 3.0;
  r.summary.r1 = 1e300;
  r.summary.r2 = 5e-324;
  r.summary.heft_r1 = 123456.789;
  r.summary.heft_r2 = 2.5;
  r.summary.ga_iterations = 1000;
  return r;
}

constexpr const char* kOkFields =
    ",\"digest\":\"0123456789abcdeffedcba9876543210\","
    "\"heft_makespan\":0.30000000000000004,\"makespan\":1e+17,\"avg_slack\":-0,"
    "\"mean_tardiness\":20,\"miss_rate\":0.33333333333333331,"
    "\"r1\":1.0000000000000001e+300,\"r2\":4.9406564584124654e-324,"
    "\"heft_r1\":123456.789,\"heft_r2\":2.5,\"ga_iterations\":1000}";

TEST(ServeProtocol, ResultLineGoldenBytes) {
  EXPECT_EQ(render_result_line(7, "dir/p \"1\".rts", ok_result(false)),
            std::string("{\"job\":7,\"problem\":\"dir/p \\\"1\\\".rts\","
                        "\"status\":\"ok\",\"cache_hit\":false") +
                kOkFields);
  EXPECT_EQ(render_result_line(18446744073709551615ull, "p.rts", ok_result(true)),
            std::string("{\"job\":18446744073709551615,\"problem\":\"p.rts\","
                        "\"status\":\"ok\",\"cache_hit\":true") +
                kOkFields);
}

TEST(ServeProtocol, FailedResultRendersAsFailureLine) {
  JobResult r = ok_result(false);
  r.status = JobStatus::kFailed;
  r.error = "solver threw: \"x\"\n";
  EXPECT_EQ(render_result_line(2, "p.rts", r),
            "{\"job\":2,\"problem\":\"p.rts\",\"status\":\"failed\","
            "\"error\":\"solver threw: \\\"x\\\"\\n\"}");
}

TEST(ServeProtocol, FailureLineGoldenBytes) {
  EXPECT_EQ(render_failure_line(3, "bad\\path\t.rts", "bad \"line\"\n\tat\x02 col\r"),
            "{\"job\":3,\"problem\":\"bad\\\\path\\t.rts\",\"status\":\"failed\","
            "\"error\":\"bad \\\"line\\\"\\n\\tat\\u0002 col\\u000d\"}");
}

TEST(ServeProtocol, RejectLineGoldenBytes) {
  EXPECT_EQ(render_reject_line(12, "overloaded"),
            "{\"job\":12,\"status\":\"rejected\",\"error\":\"overloaded\"}");
}

}  // namespace
}  // namespace rts
