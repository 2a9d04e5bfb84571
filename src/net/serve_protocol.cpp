#include "net/serve_protocol.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "workload/serialization.hpp"

namespace rts {

namespace {

void append_number(std::ostringstream& os, double value) {
  // Mirrors core/report_io.cpp: max round-trip precision, reject non-finite.
  RTS_REQUIRE(std::isfinite(value), "cannot serialize non-finite value to JSON");
  os.precision(std::numeric_limits<double>::max_digits10);
  os << value;
}

void append_string(std::ostringstream& os, std::string_view text) {
  os << '"';
  for (const char ch : text) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          os << "\\u00" << (ch < 16 ? "0" : "") << std::hex << static_cast<int>(ch)
             << std::dec;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

/// An integer field checked against [lo, hi] before the caller narrows it:
/// `--realizations -1` must fail in-band, not become SIZE_MAX samples.
std::int64_t get_int_within(const Options& opts, const std::string& key,
                            std::int64_t def, std::int64_t lo, std::int64_t hi) {
  const std::int64_t value = opts.get_int(key, def);
  if (value < lo || value > hi) {
    throw InvalidArgument("option --" + key + ": " + std::to_string(value) +
                          " is outside [" + std::to_string(lo) + ", " +
                          std::to_string(hi) + "]");
  }
  return value;
}

}  // namespace

std::optional<std::string_view> strip_request_line(std::string_view line) {
  if (const auto hash = line.find('#'); hash != std::string_view::npos) {
    line = line.substr(0, hash);
  }
  const auto first = line.find_first_not_of(" \t\r");
  if (first == std::string_view::npos) return std::nullopt;
  const auto last = line.find_last_not_of(" \t\r");
  return line.substr(first, last - first + 1);
}

std::shared_ptr<const ProblemInstance> ProblemCache::load(
    const std::string& path) {
  auto it = problems_.find(path);
  if (it == problems_.end()) {
    auto loaded =
        std::make_shared<const ProblemInstance>(load_problem_file(path));
    it = problems_.emplace(path, std::move(loaded)).first;
  }
  return it->second;
}

ParsedRequest parse_request_line(std::string_view line, ProblemCache& problems) {
  std::vector<std::string> tokens;
  std::istringstream is{std::string(line)};
  for (std::string tok; is >> tok;) tokens.push_back(tok);
  std::vector<const char*> argv;
  argv.reserve(tokens.size() + 1);
  argv.push_back("request");  // Options skips argv[0] (program-name slot)
  for (const std::string& tok : tokens) argv.push_back(tok.c_str());
  const Options opts(static_cast<int>(argv.size()), argv.data());
  RTS_REQUIRE(opts.positional().size() == 1,
              "request line needs exactly one problem file, got: " +
                  std::string(line));

  constexpr std::int64_t kCountMax = std::numeric_limits<std::int64_t>::max();
  ParsedRequest parsed;
  parsed.problem_path = opts.positional().front();
  parsed.request.config.ga.epsilon = opts.get_double("epsilon", 1.0);
  parsed.request.config.ga.max_iterations = static_cast<std::size_t>(
      get_int_within(opts, "iters", 1000, 0, kCountMax));
  parsed.request.config.ga.seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 1));
  parsed.request.config.mc.realizations = static_cast<std::size_t>(
      get_int_within(opts, "realizations", 1000, 0, kCountMax));
  parsed.request.config.mc.seed =
      static_cast<std::uint64_t>(opts.get_int("mc-seed", 42));
  parsed.request.config.stochastic_objective = opts.get_bool("stochastic", false);
  parsed.request.priority = static_cast<int>(
      get_int_within(opts, "priority", 0, std::numeric_limits<int>::min(),
                     std::numeric_limits<int>::max()));
  // Every field is checked before the problem file is touched.
  parsed.request.problem = problems.load(parsed.problem_path);
  return parsed;
}

std::string render_result_line(std::uint64_t job_index,
                               std::string_view problem_path,
                               const JobResult& result) {
  if (result.status != JobStatus::kOk) {
    return render_failure_line(job_index, problem_path, result.error);
  }
  std::ostringstream os;
  os << "{\"job\":" << job_index << ",\"problem\":";
  append_string(os, problem_path);
  const SolveSummary& s = result.summary;
  os << ",\"status\":\"ok\",\"cache_hit\":" << (result.cache_hit ? "true" : "false");
  os << ",\"digest\":\"" << result.key.to_hex() << '"';
  os << ",\"heft_makespan\":";
  append_number(os, s.heft_makespan);
  os << ",\"makespan\":";
  append_number(os, s.makespan);
  os << ",\"avg_slack\":";
  append_number(os, s.avg_slack);
  os << ",\"mean_tardiness\":";
  append_number(os, s.mean_tardiness);
  os << ",\"miss_rate\":";
  append_number(os, s.miss_rate);
  os << ",\"r1\":";
  append_number(os, s.r1);
  os << ",\"r2\":";
  append_number(os, s.r2);
  os << ",\"heft_r1\":";
  append_number(os, s.heft_r1);
  os << ",\"heft_r2\":";
  append_number(os, s.heft_r2);
  os << ",\"ga_iterations\":" << s.ga_iterations << '}';
  return os.str();
}

std::string render_failure_line(std::uint64_t job_index,
                                std::string_view problem_path,
                                std::string_view error) {
  std::ostringstream os;
  os << "{\"job\":" << job_index << ",\"problem\":";
  append_string(os, problem_path);
  os << ",\"status\":\"failed\",\"error\":";
  append_string(os, error);
  os << '}';
  return os.str();
}

std::string render_reject_line(std::uint64_t job_index,
                               std::string_view reason) {
  std::ostringstream os;
  os << "{\"job\":" << job_index << ",\"status\":\"rejected\",\"error\":";
  append_string(os, reason);
  os << '}';
  return os.str();
}

std::string overlong_line_error(std::size_t max_line_bytes) {
  std::ostringstream os;
  os << "request line exceeds the " << max_line_bytes << "-byte limit";
  return os.str();
}

}  // namespace rts
