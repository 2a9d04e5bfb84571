#pragma once
// The rts_serve wire protocol, shared by every front end (see
// docs/service.md, "Wire protocol"): request-line parsing and response-line
// rendering live here — in the library, not the app — so the batch file
// path, the socket path, and the tests all speak bit-identical formats.
//
// Requests: one job per line —
//   PROBLEM_FILE [--epsilon E] [--iters N] [--seed S] [--realizations N]
//                [--mc-seed S] [--priority P] [--stochastic]
// '#' starts a comment; blank/comment-only lines carry no job and consume no
// job index.
//
// Responses: one JSON object per job, in per-stream submission order:
//   {"job":N,"problem":...,"status":"ok",...solver fields...}
//   {"job":N,"problem":...,"status":"failed","error":...}
//   {"job":N,"status":"rejected","error":"overloaded"|"quota_exceeded"|
//                                         "shutting_down"}
// "ok"/"failed" lines are byte-identical between batch and socket mode for
// the same request stream; "rejected" lines exist only where admission
// control can shed (the socket path).

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "service/job.hpp"
#include "workload/problem.hpp"

namespace rts {

/// Strip the '#' comment suffix and surrounding whitespace. Returns nullopt
/// when nothing remains (the line consumes no job index).
[[nodiscard]] std::optional<std::string_view> strip_request_line(
    std::string_view line);

/// Per-process cache of loaded problem files: N jobs naming one file load it
/// once. Not thread-safe — confine to the submitting thread (the batch
/// submission loop / the event-loop thread).
class ProblemCache {
 public:
  /// Load (or return the cached) problem file. Throws on open/parse failure.
  std::shared_ptr<const ProblemInstance> load(const std::string& path);

 private:
  std::map<std::string, std::shared_ptr<const ProblemInstance>> problems_;
};

/// One parsed request line.
struct ParsedRequest {
  JobRequest request;
  std::string problem_path;  ///< as written on the line (response echo)
};

/// Parse one *stripped* request line (strip_request_line returned a
/// payload). Throws InvalidArgument on malformed lines — including a
/// negative --iters/--realizations or a --priority outside int — and
/// propagates problem-file load failures.
[[nodiscard]] ParsedRequest parse_request_line(std::string_view line,
                                               ProblemCache& problems);

/// Render the response line for a resolved job (status "ok" or "failed").
/// No trailing newline.
[[nodiscard]] std::string render_result_line(std::uint64_t job_index,
                                             std::string_view problem_path,
                                             const JobResult& result);

/// Render a "failed" response for a line that never reached the solver
/// (malformed, unloadable problem, overlong frame). No trailing newline.
[[nodiscard]] std::string render_failure_line(std::uint64_t job_index,
                                              std::string_view problem_path,
                                              std::string_view error);

/// Render a "rejected" response (admission control: queue overload or a
/// per-connection quota). The job was not accepted; the client may retry.
/// No trailing newline.
[[nodiscard]] std::string render_reject_line(std::uint64_t job_index,
                                             std::string_view reason);

/// Diagnostic for a request line the framer refused as overlong. Shared so
/// the batch and socket paths fail such lines with identical bytes.
[[nodiscard]] std::string overlong_line_error(std::size_t max_line_bytes);

}  // namespace rts
