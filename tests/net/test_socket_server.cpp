// Loopback integration tests of the socket front end (ServeServer +
// EpollServer): pipelined and byte-fragmented clients, abrupt disconnects,
// admission-control rejections, graceful drain, and — the serving-path
// contract — byte-identity between socket-mode responses and what the batch
// front end renders for the same request lines (both sit on the same
// serve_protocol codec and LineFramer, and the service's pop-order triage
// turnstile makes cache_hit patterns worker-count-invariant).
//
// No sleeps: all ordering goes through blocking client sockets (connect,
// recv-until-EOF) and the server's own drain handshake.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../test_helpers.hpp"
#include "net/serve_server.hpp"
#include "util/error.hpp"
#include "workload/serialization.hpp"

namespace rts {
namespace {

/// A ServeServer on an ephemeral loopback port with its event loop on a
/// background thread. The destructor runs the full drain handshake.
struct Harness {
  explicit Harness(std::size_t workers = 2, std::size_t per_conn_quota = 64,
                   std::size_t max_line_bytes = LineFramer::kDefaultMaxLineBytes,
                   std::size_t queue_capacity = 256) {
    SchedulerServiceConfig service_config;
    service_config.workers = workers;
    service_config.queue_capacity = queue_capacity;
    service = std::make_unique<SchedulerService>(service_config);
    ServeServerConfig server_config;
    server_config.port = 0;
    server_config.per_conn_quota = per_conn_quota;
    server_config.max_line_bytes = max_line_bytes;
    server = std::make_unique<ServeServer>(*service, server_config);
    loop = std::thread([this] { server->run(); });
  }

  ~Harness() {
    server->request_drain();
    loop.join();
    // Workers deliver through the server's event loop; join them while the
    // server object (post()'s target) is still alive.
    service->shutdown();
  }

  std::unique_ptr<SchedulerService> service;
  std::unique_ptr<ServeServer> server;
  std::thread loop;
};

/// Minimal blocking loopback client.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_all(std::string_view data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  /// Blocking read until the server closes the connection.
  std::string read_until_eof() {
    std::string out;
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

  /// Blocking read until `count` newline-terminated lines have arrived.
  std::string read_lines(std::size_t count) {
    std::string out;
    char buf[4096];
    std::size_t seen = 0;
    while (seen < count) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      for (ssize_t i = 0; i < n; ++i) {
        if (buf[i] == '\n') ++seen;
      }
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

  /// Close with an RST (SO_LINGER 0): the abrupt-disconnect case.
  void abort_connection() {
    struct linger lg {};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

/// A problem file on disk (the wire protocol names problems by path). The
/// name is unique per process and per instance: ctest runs the discovered
/// tests of this suite concurrently, so a shared path would let one test's
/// cleanup race another's load.
struct ProblemFile {
  ProblemFile() {
    static std::atomic<int> counter{0};
    path = ::testing::TempDir() + "rts_socket_test_problem_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".rts";
    save_problem_file(path, testing::small_instance(10, 2, 2.0, 5));
  }
  ~ProblemFile() { std::remove(path.c_str()); }
  std::string path;
};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

/// What the batch front end would print for these request lines: the same
/// parse/submit/render pipeline run inline on an independent service. The
/// determinism contract makes this reference bit-identical regardless of
/// either side's worker count.
std::vector<std::string> batch_reference(const std::vector<std::string>& lines) {
  SchedulerServiceConfig config;
  config.workers = 1;
  config.block_when_full = true;
  SchedulerService service(config);
  ProblemCache problems;
  std::vector<std::string> out;
  std::uint64_t index = 0;
  for (const std::string& line : lines) {
    const auto payload = strip_request_line(line);
    if (!payload) continue;
    const std::uint64_t i = index++;
    try {
      ParsedRequest parsed = parse_request_line(*payload, problems);
      const std::string path = parsed.problem_path;
      auto future = service.submit(std::move(parsed.request));
      out.push_back(render_result_line(i, path, future->get()));
    } catch (const std::exception& e) {
      out.push_back(render_failure_line(i, *payload, e.what()));
    }
  }
  return out;
}

std::string request_block(const ProblemFile& problem) {
  // Duplicates (coalescing/cache), a distinct job, a comment, a blank line,
  // and a line that fails to load — the full response-status spectrum.
  return problem.path + " --iters 10 --realizations 20\n" +
         "# a comment line\n" + problem.path +
         " --iters 10 --realizations 20 --seed 2\n" + "\n" + problem.path +
         " --iters 10 --realizations 20\n" +
         "definitely_missing_file.rts --iters 10\n";
}

TEST(SocketServer, PipelinedRequestsAnswerInOrderAndMatchBatchBytes) {
  const ProblemFile problem;
  const std::string block = request_block(problem);
  const std::vector<std::string> expected = batch_reference(split_lines(block));

  Harness harness(/*workers=*/4);
  Client client(harness.server->port());
  client.send_all(block);  // one write: maximal pipelining
  client.shutdown_write();
  const std::vector<std::string> got = split_lines(client.read_until_eof());

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "response " << i;
  }
}

TEST(SocketServer, ByteFragmentedClientGetsIdenticalResponses) {
  const ProblemFile problem;
  const std::string block = request_block(problem);
  const std::vector<std::string> expected = batch_reference(split_lines(block));

  Harness harness(/*workers=*/2);
  Client client(harness.server->port());
  for (const char c : block) client.send_all(std::string_view(&c, 1));
  client.shutdown_write();
  EXPECT_EQ(split_lines(client.read_until_eof()), expected);
}

TEST(SocketServer, FinalLineWithoutNewlineIsServed) {
  const ProblemFile problem;
  Harness harness;
  Client client(harness.server->port());
  // No trailing '\n': the peer's EOF terminates the last request.
  client.send_all(problem.path + " --iters 10 --realizations 20");
  client.shutdown_write();
  const std::vector<std::string> got = split_lines(client.read_until_eof());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].find("\"job\":0"), std::string::npos);
  EXPECT_NE(got[0].find("\"status\":\"ok\""), std::string::npos);
}

TEST(SocketServer, OverlongLineFailsAndConnectionRecovers) {
  const ProblemFile problem;
  Harness harness(/*workers=*/2, /*per_conn_quota=*/64,
                  /*max_line_bytes=*/128);
  Client client(harness.server->port());
  client.send_all(std::string(500, 'x') + "\n" + problem.path +
                  " --iters 10 --realizations 20\n");
  client.shutdown_write();
  const std::vector<std::string> got = split_lines(client.read_until_eof());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_NE(got[0].find("\"status\":\"failed\""), std::string::npos);
  EXPECT_NE(got[0].find("128-byte limit"), std::string::npos);
  EXPECT_NE(got[1].find("\"status\":\"ok\""), std::string::npos);
}

TEST(SocketServer, OutOfRangeRequestFieldsFailInBand) {
  // Fields that a narrowing cast would silently wrap or truncate.
  struct Case {
    const char* fields;
    const char* option;
  };
  const std::vector<Case> cases = {
      {"--iters -1", "--iters"},
      {"--realizations -1", "--realizations"},
      {"--realizations -9223372036854775808", "--realizations"},
      {"--priority 4294967297", "--priority"},
      {"--priority -2147483649", "--priority"},
  };
  const ProblemFile problem;
  ProblemCache problems;
  std::string block;
  for (const Case& c : cases) {
    const std::string line = problem.path + " " + c.fields;
    block += line + "\n";
    try {
      (void)parse_request_line(line, problems);
      ADD_FAILURE() << "accepted: " << c.fields;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(c.option), std::string::npos)
          << e.what();
    }
  }
  ASSERT_FALSE(::testing::Test::HasFailure());

  // The bounds themselves are accepted unchanged.
  const ParsedRequest edge = parse_request_line(
      problem.path + " --iters 0 --realizations 0 --priority -2147483648",
      problems);
  EXPECT_EQ(edge.request.config.ga.max_iterations, 0u);
  EXPECT_EQ(edge.request.config.mc.realizations, 0u);
  EXPECT_EQ(edge.request.priority, std::numeric_limits<int>::min());
  EXPECT_EQ(parse_request_line(problem.path + " --priority 2147483647", problems)
                .request.priority,
            std::numeric_limits<int>::max());

  // Over the socket: one failure line per rejected request, same bytes as
  // batch mode, and the connection keeps serving.
  block += problem.path + " --iters 10 --realizations 20\n";
  const std::vector<std::string> expected = batch_reference(split_lines(block));
  Harness harness;
  Client client(harness.server->port());
  client.send_all(block);
  client.shutdown_write();
  const std::vector<std::string> got = split_lines(client.read_until_eof());
  EXPECT_EQ(got, expected);
  ASSERT_EQ(got.size(), cases.size() + 1);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_NE(got[i].find("\"status\":\"failed\""), std::string::npos) << got[i];
  }
  EXPECT_NE(got.back().find("\"status\":\"ok\""), std::string::npos);
}

TEST(SocketServer, ZeroQuotaRejectsEveryRequest) {
  // per_conn_quota = 0 makes the quota check deterministic: every request is
  // rejected at the transport, never reaching the service.
  const ProblemFile problem;
  Harness harness(/*workers=*/1, /*per_conn_quota=*/0);
  Client client(harness.server->port());
  client.send_all(problem.path + " --iters 10\n" + problem.path +
                  " --iters 10\n");
  client.shutdown_write();
  const std::vector<std::string> got = split_lines(client.read_until_eof());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0],
            "{\"job\":0,\"status\":\"rejected\",\"error\":\"quota_exceeded\"}");
  EXPECT_EQ(got[1],
            "{\"job\":1,\"status\":\"rejected\",\"error\":\"quota_exceeded\"}");
  EXPECT_EQ(harness.server->quota_rejected(), 2u);
  EXPECT_EQ(harness.service->stats().submitted, 0u);
}

TEST(SocketServer, ClosedServiceRejectsAsShuttingDown) {
  const ProblemFile problem;
  Harness harness(/*workers=*/1);
  harness.service->shutdown();  // close admission under the live transport
  Client client(harness.server->port());
  client.send_all(problem.path + " --iters 10\n");
  client.shutdown_write();
  const std::vector<std::string> got = split_lines(client.read_until_eof());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0],
            "{\"job\":0,\"status\":\"rejected\",\"error\":\"shutting_down\"}");
}

TEST(SocketServer, AbruptDisconnectLeavesServerServingOthers) {
  const ProblemFile problem;
  Harness harness(/*workers=*/2);

  {
    // This client submits work and vanishes with an RST before reading.
    Client rude(harness.server->port());
    rude.send_all(problem.path + " --iters 10 --realizations 20\n" +
                  problem.path + " --iters 10 --realizations 20 --seed 9\n");
    rude.abort_connection();
  }

  // A well-behaved client on the same server still gets full service (the
  // rude client's in-flight results are dropped on delivery, not crashed
  // on).
  Client polite(harness.server->port());
  polite.send_all(problem.path + " --iters 10 --realizations 20\n");
  polite.shutdown_write();
  const std::vector<std::string> got = split_lines(polite.read_until_eof());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].find("\"status\":\"ok\""), std::string::npos);
}

TEST(SocketServer, DrainFinishesAcceptedJobsAndFlushesResponses) {
  const ProblemFile problem;
  Harness harness(/*workers=*/2);
  Client client(harness.server->port());
  // One small write => one segment => the server frames and submits all four
  // jobs in one on_data pass before any response can be delivered.
  client.send_all(problem.path + " --iters 10 --realizations 20\n" +
                  problem.path + " --iters 10 --realizations 20 --seed 2\n" +
                  problem.path + " --iters 10 --realizations 20 --seed 3\n" +
                  problem.path + " --iters 10 --realizations 20\n");
  // The first response proves the whole chunk was processed (on_data frames
  // and submits synchronously, in order, before responses flow). The recv
  // may have pulled later responses into the same chunk — keep them.
  const std::string first = client.read_lines(1);
  EXPECT_NE(first.find("\"job\":0"), std::string::npos);

  // SIGTERM-equivalent: drain now, with later jobs possibly still in
  // flight. No accepted job may lose its response.
  harness.server->request_drain();
  const std::vector<std::string> all =
      split_lines(first + client.read_until_eof());
  ASSERT_EQ(all.size(), 4u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_NE(all[i].find("\"job\":" + std::to_string(i)), std::string::npos);
    EXPECT_NE(all[i].find("\"status\":\"ok\""), std::string::npos);
  }

  // And the drained service's books close.
  const ServiceStats stats = harness.service->stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.submitted,
            stats.rejected + stats.hits + stats.solved + stats.coalesced);
  EXPECT_EQ(stats.completed + stats.failed,
            stats.hits + stats.solved + stats.coalesced);
}

TEST(SocketServer, TwoConcurrentClientsGetIndependentOrderedStreams) {
  const ProblemFile problem;
  const std::string block_a = problem.path + " --iters 10 --realizations 20\n" +
                              problem.path +
                              " --iters 10 --realizations 20 --seed 2\n";
  // The two clients' request sets are disjoint: the server's result cache is
  // shared across connections, so overlapping requests would (correctly)
  // diverge from the per-block fresh-service reference.
  const std::string block_b = problem.path +
                              " --iters 10 --realizations 20 --seed 3\n" +
                              problem.path +
                              " --iters 10 --realizations 20 --seed 4\n";
  const std::vector<std::string> expected_a = batch_reference(split_lines(block_a));
  const std::vector<std::string> expected_b = batch_reference(split_lines(block_b));

  Harness harness(/*workers=*/4);
  Client a(harness.server->port());
  Client b(harness.server->port());
  a.send_all(block_a);
  b.send_all(block_b);
  a.shutdown_write();
  b.shutdown_write();
  // Job indexes are per connection; each stream is independently ordered and
  // batch-identical.
  EXPECT_EQ(split_lines(a.read_until_eof()), expected_a);
  EXPECT_EQ(split_lines(b.read_until_eof()), expected_b);
}

}  // namespace
}  // namespace rts
