#include "workload/serialization.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/json_writer.hpp"

namespace rts {

namespace {

// Sanity caps applied while parsing untrusted files: a corrupt or malicious
// size field must raise InvalidArgument, not attempt a huge allocation.
constexpr std::size_t kMaxTasks = 1u << 22;      // ~4M tasks
constexpr std::size_t kMaxProcs = 1u << 14;      // 16k processors
constexpr std::size_t kMaxEdges = 1u << 26;      // ~64M edges

void expect_token(std::istream& is, const std::string& expected) {
  std::string token;
  is >> token;
  RTS_REQUIRE(is.good() && token == expected,
              "malformed document: expected '" + expected + "', got '" + token + "'");
}

template <typename T>
T read_value(std::istream& is, const char* what) {
  T value{};
  is >> value;
  RTS_REQUIRE(!is.fail(), std::string("malformed document: cannot read ") + what);
  return value;
}

void write_matrix(std::ostream& os, const Matrix<double>& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      os << (c ? " " : "") << format_double(m(r, c));
    }
    os << '\n';
  }
}

Matrix<double> read_matrix(std::istream& is, std::size_t rows, std::size_t cols,
                           const char* what) {
  Matrix<double> m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = read_value<double>(is, what);
    }
  }
  return m;
}

}  // namespace

void save_problem(std::ostream& os, const ProblemInstance& instance) {
  instance.validate();
  const std::size_t n = instance.task_count();
  const std::size_t m = instance.proc_count();
  os << "rts-problem v1\n";
  os << "tasks " << n << "\n";
  os << "procs " << m << "\n";
  os << "rates\n";
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t q = 0; q < m; ++q) {
      // The diagonal is +inf (meaningless); store a placeholder 0.
      const double rate = p == q ? 0.0
                                 : instance.platform.transfer_rate(static_cast<ProcId>(p),
                                                                   static_cast<ProcId>(q));
      os << (q ? " " : "") << format_double(rate);
    }
    os << '\n';
  }
  os << "edges " << instance.graph.edge_count() << "\n";
  for (const TaskId t : id_range<TaskId>(n)) {
    for (const EdgeRef& e : instance.graph.successors(t)) {
      os << t << ' ' << e.task << ' ' << format_double(e.data) << '\n';
    }
  }
  os << "bcet\n";
  write_matrix(os, instance.bcet);
  os << "ul\n";
  write_matrix(os, instance.ul);
  os << "names\n";
  for (const TaskId t : id_range<TaskId>(n)) {
    os << instance.graph.task_name(t) << '\n';
  }
  // Optional trailing sections (absent for deadline-free workloads so that
  // documents stay readable by pre-deadline parsers of this format).
  if (!instance.deadline.empty()) {
    os << "deadlines\n";
    bool first = true;
    for (const double d : instance.deadline) {
      os << (first ? "" : " ") << format_double(d);
      first = false;
    }
    os << '\n';
  }
  if (!instance.value.empty()) {
    os << "values\n";
    bool first = true;
    for (const double v : instance.value) {
      os << (first ? "" : " ") << format_double(v);
      first = false;
    }
    os << '\n';
  }
}

ProblemInstance load_problem(std::istream& is) {
  expect_token(is, "rts-problem");
  expect_token(is, "v1");
  expect_token(is, "tasks");
  const auto n = read_value<std::size_t>(is, "task count");
  RTS_REQUIRE(n > 0 && n <= kMaxTasks, "task count out of range");
  expect_token(is, "procs");
  const auto m = read_value<std::size_t>(is, "processor count");
  RTS_REQUIRE(m > 0 && m <= kMaxProcs, "processor count out of range");

  expect_token(is, "rates");
  Platform platform(m);
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t q = 0; q < m; ++q) {
      const auto rate = read_value<double>(is, "transfer rate");
      if (p != q) platform.set_transfer_rate(static_cast<ProcId>(p),
                                             static_cast<ProcId>(q), rate);
    }
  }

  expect_token(is, "edges");
  const auto edge_count = read_value<std::size_t>(is, "edge count");
  RTS_REQUIRE(edge_count <= kMaxEdges, "edge count out of range");
  TaskGraph graph(n);
  for (std::size_t e = 0; e < edge_count; ++e) {
    const TaskId src = read_value<std::int32_t>(is, "edge source");
    const TaskId dst = read_value<std::int32_t>(is, "edge target");
    const auto data = read_value<double>(is, "edge data");
    graph.add_edge(src, dst, data);
  }

  expect_token(is, "bcet");
  Matrix<double> bcet = read_matrix(is, n, m, "bcet entry");
  expect_token(is, "ul");
  Matrix<double> ul = read_matrix(is, n, m, "ul entry");

  expect_token(is, "names");
  is >> std::ws;
  for (const TaskId t : id_range<TaskId>(n)) {
    std::string name;
    std::getline(is, name);
    RTS_REQUIRE(!is.fail() && !name.empty(), "missing task name");
    graph.set_task_name(t, name);
  }

  // Optional trailing sections, in any order, each at most once.
  IdVector<TaskId, double> deadline;
  IdVector<TaskId, double> value;
  std::string section;
  while (is >> section) {
    if (section == "deadlines") {
      RTS_REQUIRE(deadline.empty(), "malformed document: duplicate deadlines section");
      deadline.resize(n);
      for (auto& d : deadline) d = read_value<double>(is, "deadline entry");
    } else if (section == "values") {
      RTS_REQUIRE(value.empty(), "malformed document: duplicate values section");
      value.resize(n);
      for (auto& v : value) v = read_value<double>(is, "value entry");
    } else {
      RTS_REQUIRE(false, "malformed document: unknown section '" + section + "'");
    }
  }

  ProblemInstance instance{std::move(graph),    std::move(platform),
                           std::move(bcet),     std::move(ul),
                           Matrix<double>{},    std::move(deadline),
                           std::move(value)};
  instance.expected = expected_costs(instance.bcet, instance.ul);
  instance.validate();
  return instance;
}

void save_problem_file(const std::string& path, const ProblemInstance& instance) {
  std::ofstream out(path);
  RTS_REQUIRE(out.good(), "cannot open file for writing: " + path);
  save_problem(out, instance);
  RTS_REQUIRE(out.good(), "write failure on: " + path);
}

ProblemInstance load_problem_file(const std::string& path) {
  std::ifstream in(path);
  RTS_REQUIRE(in.good(), "cannot open file for reading: " + path);
  return load_problem(in);
}

void save_schedule(std::ostream& os, const Schedule& schedule) {
  os << "rts-schedule v1\n";
  os << "tasks " << schedule.task_count() << "\n";
  os << "procs " << schedule.proc_count() << "\n";
  for (const ProcId p : id_range<ProcId>(schedule.proc_count())) {
    const auto seq = schedule.sequence(p);
    os << "seq " << seq.size();
    for (const TaskId t : seq) os << ' ' << t;
    os << '\n';
  }
}

Schedule load_schedule(std::istream& is) {
  expect_token(is, "rts-schedule");
  expect_token(is, "v1");
  expect_token(is, "tasks");
  const auto n = read_value<std::size_t>(is, "task count");
  RTS_REQUIRE(n > 0 && n <= kMaxTasks, "task count out of range");
  expect_token(is, "procs");
  const auto m = read_value<std::size_t>(is, "processor count");
  RTS_REQUIRE(m > 0 && m <= kMaxProcs, "processor count out of range");
  ScheduleBuilder builder(n, m);
  for (std::size_t p = 0; p < m; ++p) {
    expect_token(is, "seq");
    const auto len = read_value<std::size_t>(is, "sequence length");
    RTS_REQUIRE(len <= n, "sequence length exceeds task count");
    for (std::size_t i = 0; i < len; ++i) {
      builder.append(static_cast<ProcId>(p),
                     TaskId{read_value<std::int32_t>(is, "sequence entry")});
    }
  }
  return std::move(builder).build();
}

}  // namespace rts
