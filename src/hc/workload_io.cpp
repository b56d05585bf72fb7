#include "hc/workload_io.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <optional>
#include <sstream>
#include <vector>

#include "dag/serialize.h"

namespace sehc {

namespace {

/// Appends the matrix row by row, each number exactly as an ostream with
/// setprecision(17) writes it (printf "%.17g", which round-trips doubles).
void append_matrix(std::string& out, const Matrix<double>& m) {
  char buf[32];  // "%.17g" needs at most 24 characters
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out += ' ';
      const auto res = std::to_chars(buf, buf + sizeof buf, row[c],
                                     std::chars_format::general, 17);
      out.append(buf, res.ptr);
    }
    out += '\n';
  }
}

/// Bytes left in `is` after its current position (0 once it has failed or
/// hit end of file); `end` is the stream's end position.
std::size_t bytes_left(std::istream& is, std::streampos end) {
  const std::streampos here = is.tellg();
  return here < 0 || here >= end ? 0 : static_cast<std::size_t>(end - here);
}

/// Rejects a declared rows x cols block of numbers that cannot fit in
/// `bytes`: each number takes at least one character plus a separator, so
/// n numbers need at least 2n - 1 bytes. Checked before allocating, so a
/// short document cannot make the reader allocate gigabytes.
void check_fits(std::size_t rows, std::size_t cols, std::size_t bytes,
                const std::string& what) {
  if (rows == 0 || cols == 0) return;
  const std::size_t max_numbers = bytes / 2 + 1;
  SEHC_CHECK(rows <= max_numbers / cols,
             "read_workload: " + what + " declares " + std::to_string(rows) +
                 " x " + std::to_string(cols) +
                 " numbers, more than the remaining " +
                 std::to_string(bytes) + " bytes can hold");
}

Matrix<double> read_matrix(std::istream& is, std::size_t rows,
                           std::size_t cols, const char* what) {
  Matrix<double> m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      SEHC_CHECK(static_cast<bool>(is >> m(r, c)),
                 std::string("read_workload: truncated ") + what + " matrix");
    }
  }
  std::string rest;
  std::getline(is, rest);  // consume trailing newline
  return m;
}

MachineArch arch_from_string(const std::string& s) {
  if (s == "MIMD") return MachineArch::kMimd;
  if (s == "SIMD") return MachineArch::kSimd;
  if (s == "vector") return MachineArch::kVector;
  if (s == "dataflow") return MachineArch::kDataflow;
  if (s == "special-purpose") return MachineArch::kSpecialPurpose;
  throw Error("read_workload: unknown architecture '" + s + "'");
}

/// The task count a DAG-block line declares, if it is a well-formed
/// 'tasks <k>' line (read_dag reports malformed ones).
std::optional<std::size_t> declared_tasks(const std::string& line) {
  if (line.rfind("tasks", 0) != 0) return std::nullopt;
  std::istringstream ls(line);
  std::string kw;
  std::size_t k = 0;
  if (ls >> kw && kw == "tasks" && ls >> k) return k;
  return std::nullopt;
}

/// read_workload over a seekable stream ending at `end`.
Workload read_workload_until(std::istream& is, std::streampos end) {
  std::string line;
  SEHC_CHECK(std::getline(is, line) && line == "sehc-workload v1",
             "read_workload: missing 'sehc-workload v1' header");

  std::size_t num_machines = 0;
  {
    SEHC_CHECK(std::getline(is, line), "read_workload: truncated file");
    std::istringstream ls(line);
    std::string kw;
    SEHC_CHECK(static_cast<bool>(ls >> kw) && kw == "machines" &&
                   static_cast<bool>(ls >> num_machines) && num_machines > 0,
               "read_workload: expected 'machines <l>'");
  }
  // Every machine has an exec row of at least one number (a workload has
  // at least one task).
  check_fits(num_machines, 1, bytes_left(is, end), "'machines'");
  std::vector<MachineArch> arches(num_machines, MachineArch::kMimd);

  // Optional arch lines, then the embedded DAG block up to 'end-dag'.
  std::ostringstream dag_text;
  std::size_t max_tasks = 0;  // largest count a 'tasks' line declares
  bool in_dag = false;
  while (std::getline(is, line)) {
    if (!in_dag && line.rfind("arch ", 0) == 0) {
      std::istringstream ls(line);
      std::string kw, arch;
      MachineId m = 0;
      SEHC_CHECK(static_cast<bool>(ls >> kw >> m >> arch) && m < num_machines,
                 "read_workload: bad 'arch' line");
      arches[m] = arch_from_string(arch);
      continue;
    }
    if (line == "end-dag") break;
    in_dag = true;
    if (const auto k = declared_tasks(line)) {
      max_tasks = std::max(max_tasks, *k);
    }
    dag_text << line << '\n';
  }
  // The exec matrix holds l numbers per task: bound the declared task
  // count before read_dag allocates the graph.
  check_fits(num_machines, max_tasks, bytes_left(is, end), "'tasks'");
  TaskGraph graph = dag_from_string(dag_text.str());

  SEHC_CHECK(std::getline(is, line) && line == "exec",
             "read_workload: expected 'exec'");
  Matrix<double> exec =
      read_matrix(is, num_machines, graph.num_tasks(), "exec");

  const std::size_t pairs = num_machines * (num_machines - 1) / 2;
  Matrix<double> transfer(pairs, 0);
  if (graph.num_edges() > 0) {
    SEHC_CHECK(std::getline(is, line) && line == "transfer",
               "read_workload: expected 'transfer'");
    check_fits(pairs, graph.num_edges(), bytes_left(is, end), "transfer");
    transfer = read_matrix(is, pairs, graph.num_edges(), "transfer");
  }

  MachineSet machines;
  for (const MachineArch arch : arches) machines.add(Machine{{}, arch});
  return Workload(std::move(graph), std::move(machines), std::move(exec),
                  std::move(transfer));
}

}  // namespace

void write_workload(std::ostream& os, const Workload& w) {
  os << workload_to_string(w);
}

Workload read_workload(std::istream& is) {
  const std::streampos start = is.tellg();
  if (start < 0) {
    // Not seekable (a pipe): read it all so the size checks have a bound.
    is.clear();
    return workload_from_string(
        std::string(std::istreambuf_iterator<char>(is), {}));
  }
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  is.seekg(start);
  return read_workload_until(is, end);
}

std::string workload_to_string(const Workload& w) {
  std::ostringstream head;
  head << "sehc-workload v1\n";
  head << "machines " << w.num_machines() << "\n";
  for (MachineId m = 0; m < w.num_machines(); ++m) {
    const Machine& machine = w.machines()[m];
    if (machine.arch != MachineArch::kMimd) {
      head << "arch " << m << " " << to_string(machine.arch) << "\n";
    }
  }
  write_dag(head, w.graph());
  head << "end-dag\n";
  head << "exec\n";
  std::string out = std::move(head).str();
  append_matrix(out, w.exec_matrix());
  if (w.num_items() > 0) {
    out += "transfer\n";
    append_matrix(out, w.transfer_matrix());
  }
  out.shrink_to_fit();
  return out;
}

Workload workload_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_workload_until(is, static_cast<std::streamoff>(text.size()));
}

}  // namespace sehc
