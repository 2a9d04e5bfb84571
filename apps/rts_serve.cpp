// rts_serve — many requests, one process: the service-layer front end.
//
// Two modes over one protocol (src/net/serve_protocol):
//
//   batch:  --requests FILE   read newline-delimited job requests, write one
//           JSON result line per job in submission order, exit. Admission
//           blocks (backpressure on the reader); it never sheds.
//   socket: --listen PORT     epoll event loop on loopback; each connection
//           streams request lines and receives result lines in its own
//           submission order. Admission sheds: a full queue answers
//           {"status":"rejected","error":"overloaded"}, and per-connection
//           in-flight quotas answer "quota_exceeded". SIGTERM/SIGINT drains
//           gracefully: stop accepting, finish every accepted job, flush,
//           exit 0.
//
// Result lines carry only deterministic solver output, so for the same
// request lines the "ok"/"failed" stream is byte-identical across --threads
// values AND across the two modes; wall-clock telemetry goes to stderr via
// --stats. See docs/service.md for the formats.
//
// Typical sessions:
//   rts generate --tasks 40 --procs 4 --seed 7 --out p.rts
//   printf 'p.rts --epsilon 1.2 --iters 200\np.rts --epsilon 1.4\n' > jobs.txt
//   rts_serve --requests jobs.txt --threads 4 --stats > results.jsonl
//   rts_serve --listen 7070 --threads 4 &   # then send request lines over TCP

#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/framing.hpp"
#include "net/serve_protocol.hpp"
#include "net/serve_server.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"

namespace {

using namespace rts;

int usage() {
  std::cout <<
      R"(usage: rts_serve (--requests FILE | --listen PORT) [options]

modes:
  --requests FILE     newline-delimited job requests; "-" reads stdin
  --listen PORT       serve the same protocol over a loopback TCP socket
                      (PORT 0 picks an ephemeral port; see --port-file)

options:
  --out FILE          batch mode: write JSON result lines here (default stdout)
  --threads N         worker threads (default: hardware concurrency)
  --queue-capacity N  bounded job-queue capacity (default 1024; batch mode
                      blocks when full, socket mode rejects "overloaded")
  --cache-capacity N  LRU result-cache entries (default 256)
  --quota N           socket mode: max in-flight jobs per connection before
                      "quota_exceeded" rejections (default 64)
  --max-line-bytes N  reject request lines longer than this (default 65536)
  --port-file FILE    socket mode: write the bound port number to FILE
  --stats             print a service-stats JSON object to stderr at the end

request line format (one job per line, '#' starts a comment):
  PROBLEM_FILE [--epsilon E] [--iters N] [--seed S] [--realizations N]
               [--mc-seed S] [--priority P] [--stochastic]
)";
  return 2;
}

SchedulerServiceConfig service_config(const Options& opts, bool block_when_full) {
  SchedulerServiceConfig config;
  config.workers = static_cast<std::size_t>(opts.get_int(
      "threads", static_cast<std::int64_t>(std::thread::hardware_concurrency())));
  config.queue_capacity =
      static_cast<std::size_t>(opts.get_int("queue-capacity", 1024));
  config.cache_capacity =
      static_cast<std::size_t>(opts.get_int("cache-capacity", 256));
  config.block_when_full = block_when_full;
  return config;
}

/// One request line's batch-mode bookkeeping: either a submitted job or an
/// upfront error that becomes a "failed" result at collection time.
struct PendingJob {
  std::string problem_path;
  std::optional<std::future<JobResult>> future;
  std::string error;  ///< non-empty when the line failed before submission
};

int run_batch(const Options& opts, const std::string& requests_path) {
  std::ifstream request_file;
  if (requests_path != "-") {
    request_file.open(requests_path);
    RTS_REQUIRE(request_file.good(),
                "cannot open request file: " + requests_path);
  }
  std::istream& requests = requests_path == "-" ? std::cin : request_file;

  std::ofstream out_file;
  const std::string out_path = opts.get_string("out", "");
  if (!out_path.empty()) {
    out_file.open(out_path);
    RTS_REQUIRE(out_file.good(), "cannot open output file: " + out_path);
  }
  std::ostream& out = out_path.empty() ? std::cout : out_file;

  // A request file is a finite batch: apply backpressure to the reader,
  // never shed.
  SchedulerService service(service_config(opts, /*block_when_full=*/true));

  // Frame exactly like the socket path: shared LineFramer (CRLF tolerated,
  // unterminated final line flushed, overlong lines bounded and rejected).
  LineFramer framer(
      static_cast<std::size_t>(opts.get_int(
          "max-line-bytes",
          static_cast<std::int64_t>(LineFramer::kDefaultMaxLineBytes))));
  std::vector<std::pair<std::string, FrameStatus>> lines;
  const auto sink = [&lines](std::string_view line, FrameStatus status) {
    lines.emplace_back(std::string(line), status);
  };
  char buf[16 * 1024];
  while (requests.read(buf, sizeof(buf)) || requests.gcount() > 0) {
    framer.feed(std::string_view(buf, static_cast<std::size_t>(requests.gcount())),
                sink);
  }
  framer.finish(sink);

  // Submission pass. Lines that fail to frame, parse or load become failed
  // results without aborting the batch (one bad job must not kill the other
  // 99) — but they do fail the process exit code.
  ProblemCache problems;
  std::vector<PendingJob> pending;
  std::size_t line_number = 0;
  for (const auto& [line, status] : lines) {
    ++line_number;
    if (status == FrameStatus::kOverlong) {
      PendingJob job;
      job.problem_path = line;  // the clipped preview, for the diagnostic
      job.error = overlong_line_error(framer.max_line_bytes());
      std::cerr << "warning: request line " << line_number << ": " << job.error
                << "\n";
      pending.push_back(std::move(job));
      continue;
    }
    const std::optional<std::string_view> payload = strip_request_line(line);
    if (!payload) continue;  // blank/comment: no job index consumed
    PendingJob job;
    try {
      ParsedRequest parsed = parse_request_line(*payload, problems);
      job.problem_path = parsed.problem_path;
      job.future = service.submit(std::move(parsed.request));
      if (!job.future) job.error = "job rejected by the service queue";
    } catch (const std::exception& e) {
      if (job.problem_path.empty()) job.problem_path = std::string(*payload);
      job.error = e.what();
      // Diagnose malformed lines immediately on stderr (the JSON stream only
      // reports them at collection time) and keep going with the rest.
      std::cerr << "warning: request line " << line_number << ": " << e.what()
                << "\n";
    }
    pending.push_back(std::move(job));
  }

  // Collection pass: results print in submission order regardless of the
  // order workers finished them.
  std::size_t failures = 0;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    PendingJob& job = pending[i];
    if (!job.future) {
      ++failures;
      out << render_failure_line(i, job.problem_path, job.error) << '\n';
      continue;
    }
    const JobResult result = job.future->get();
    if (result.status != JobStatus::kOk) ++failures;
    out << render_result_line(i, job.problem_path, result) << '\n';
  }
  out.flush();
  RTS_REQUIRE(out.good(), "write failure on result stream");

  if (opts.get_bool("stats", false)) {
    std::cerr << service_stats_to_json(service.stats()) << '\n';
  }
  service.shutdown();
  return failures == 0 ? 0 : 3;
}

/// Signal target for graceful drain. Written once before handlers install;
/// request_drain() is async-signal-safe (a single eventfd write).
ServeServer* g_drain_target = nullptr;

extern "C" void handle_drain_signal(int) {
  if (g_drain_target != nullptr) g_drain_target->request_drain();
}

int run_listen(const Options& opts, std::uint16_t port) {
  // Declaration order doubles as the shutdown protocol: workers deliver
  // results through ServeServer's event loop via post(), so the service is
  // explicitly shut down (below) while the server object is still alive.
  SchedulerService service(service_config(opts, /*block_when_full=*/false));

  ServeServerConfig server_config;
  server_config.port = port;
  server_config.per_conn_quota =
      static_cast<std::size_t>(opts.get_int("quota", 64));
  server_config.max_line_bytes = static_cast<std::size_t>(opts.get_int(
      "max-line-bytes",
      static_cast<std::int64_t>(LineFramer::kDefaultMaxLineBytes)));
  ServeServer server(service, server_config);

  const std::string port_file = opts.get_string("port-file", "");
  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    RTS_REQUIRE(pf.good(), "cannot open port file: " + port_file);
    pf << server.port() << '\n';
    pf.flush();
    RTS_REQUIRE(pf.good(), "write failure on port file: " + port_file);
  }
  std::cerr << "rts_serve: listening on 127.0.0.1:" << server.port() << "\n";

  g_drain_target = &server;
  struct sigaction action {};
  action.sa_handler = handle_drain_signal;
  sigemptyset(&action.sa_mask);
  RTS_REQUIRE(sigaction(SIGTERM, &action, nullptr) == 0,
              "cannot install SIGTERM handler");
  RTS_REQUIRE(sigaction(SIGINT, &action, nullptr) == 0,
              "cannot install SIGINT handler");

  server.run();

  // Drain finished: every accepted job's response is flushed and every
  // connection is closed. Join the workers before the server (and its event
  // loop plumbing) goes away.
  service.shutdown();
  g_drain_target = nullptr;

  if (opts.get_bool("stats", false)) {
    ServiceStats stats = service.stats();
    stats.quota_rejected = server.quota_rejected();
    std::cerr << service_stats_to_json(stats) << '\n';
  }
  return 0;
}

int run(const Options& opts) {
  const std::int64_t listen_port = opts.get_int("listen", -1);
  std::string requests_path = opts.get_string("requests", "");
  if (requests_path.empty() && listen_port < 0 &&
      opts.positional().size() == 1) {
    requests_path = opts.positional().front();
  }
  if (listen_port >= 0) {
    RTS_REQUIRE(requests_path.empty(),
                "--listen and --requests are mutually exclusive");
    RTS_REQUIRE(listen_port <= 65535, "--listen port out of range");
    return run_listen(opts, static_cast<std::uint16_t>(listen_port));
  }
  if (requests_path.empty()) return usage();
  return run_batch(opts, requests_path);
}

}  // namespace

int main(int argc, char** argv) {
  const rts::Options opts(argc, argv);  // Options skips argv[0]
  try {
    return run(opts);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
