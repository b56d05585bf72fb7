#include "hc/workload_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "dag/serialize.h"
#include "workload/generator.h"
#include "workload/params.h"

namespace sehc {
namespace {

/// The ostream writer workload_to_string replaced, kept as the byte-level
/// oracle: every number through an ostream at setprecision(17).
std::string ostream_reference(const Workload& w) {
  std::ostringstream os;
  os << "sehc-workload v1\n";
  os << "machines " << w.num_machines() << "\n";
  for (MachineId m = 0; m < w.num_machines(); ++m) {
    const Machine& machine = w.machines()[m];
    if (machine.arch != MachineArch::kMimd) {
      os << "arch " << m << " " << to_string(machine.arch) << "\n";
    }
  }
  write_dag(os, w.graph());
  os << "end-dag\n";
  auto write_matrix = [&os](const Matrix<double>& m) {
    os << std::setprecision(17);
    for (std::size_t r = 0; r < m.rows(); ++r) {
      auto row = m.row(r);
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (c) os << ' ';
        os << row[c];
      }
      os << '\n';
    }
  };
  os << "exec\n";
  write_matrix(w.exec_matrix());
  if (w.num_items() > 0) {
    os << "transfer\n";
    write_matrix(w.transfer_matrix());
  }
  return os.str();
}

TEST(WorkloadIo, RoundTripFigure1) {
  const Workload w = figure1_workload();
  const Workload back = workload_from_string(workload_to_string(w));
  EXPECT_EQ(w.graph(), back.graph());
  EXPECT_EQ(w.exec_matrix(), back.exec_matrix());
  EXPECT_EQ(w.transfer_matrix(), back.transfer_matrix());
  EXPECT_EQ(back.machines()[1].arch, MachineArch::kSimd);
}

TEST(WorkloadIo, RoundTripGenerated) {
  WorkloadParams p;
  p.tasks = 40;
  p.machines = 6;
  p.seed = 77;
  const Workload w = make_workload(p);
  const Workload back = workload_from_string(workload_to_string(w));
  EXPECT_EQ(w.graph(), back.graph());
  EXPECT_EQ(w.exec_matrix(), back.exec_matrix());
  EXPECT_EQ(w.transfer_matrix(), back.transfer_matrix());
}

TEST(WorkloadIo, RoundTripEdgelessGraph) {
  TaskGraph g(3);
  Matrix<double> exec(2, 3, 1.0);
  Matrix<double> tr(1, 0);
  const Workload w(std::move(g), MachineSet(2), std::move(exec), std::move(tr));
  const Workload back = workload_from_string(workload_to_string(w));
  EXPECT_EQ(back.num_items(), 0u);
  EXPECT_EQ(back.num_tasks(), 3u);
}

TEST(WorkloadIo, MissingHeaderThrows) {
  EXPECT_THROW(workload_from_string("machines 2\n"), Error);
}

TEST(WorkloadIo, TruncatedExecThrows) {
  const std::string text =
      "sehc-workload v1\n"
      "machines 2\n"
      "sehc-dag v1\n"
      "tasks 2\n"
      "edge 0 1\n"
      "end-dag\n"
      "exec\n"
      "1 2\n";  // missing second row
  EXPECT_THROW(workload_from_string(text), Error);
}

TEST(WorkloadIo, MissingTransferThrows) {
  const std::string text =
      "sehc-workload v1\n"
      "machines 2\n"
      "sehc-dag v1\n"
      "tasks 2\n"
      "edge 0 1\n"
      "end-dag\n"
      "exec\n"
      "1 2\n"
      "3 4\n";
  EXPECT_THROW(workload_from_string(text), Error);
}

TEST(WorkloadIo, WriterMatchesOstreamOracleOnPaperClasses) {
  for (const auto make :
       {&paper_fig5_high_connectivity, &paper_fig6_ccr1,
        &paper_fig7_low_everything}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const Workload w = make_workload(make(seed));
      EXPECT_EQ(workload_to_string(w), ostream_reference(w));
    }
  }
  const Workload fig1 = figure1_workload();
  EXPECT_EQ(workload_to_string(fig1), ostream_reference(fig1));
}

TEST(WorkloadIo, WriterMatchesOstreamOracleOnEdgeDoubles) {
  const double values[] = {
      0.0,
      1.0,
      42.0,
      1e15,
      123456789012345678.0,
      0.1,
      1.0 / 3.0,
      2.0 / 3.0,
      1e-300,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,  // subnormal
      std::numeric_limits<double>::min(),
      1e300,
      std::numeric_limits<double>::max(),
      std::nextafter(1.0, 2.0),  // needs all 17 significant digits
      0.30000000000000004,
      9007199254740993.0,
      5e-324,
      1e21,
      1e-5,
      123.456,
  };
  constexpr std::size_t n = sizeof values / sizeof values[0];
  TaskGraph g(n);
  for (TaskId t = 0; t + 1 < n; ++t) g.add_edge(t, t + 1);
  Matrix<double> exec(2, n);
  Matrix<double> transfer(1, n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    exec(0, i) = values[i];
    exec(1, i) = values[n - 1 - i];
    if (i + 1 < n) transfer(0, i) = values[i + 1];
  }
  const Workload w(std::move(g), MachineSet(2), std::move(exec),
                   std::move(transfer));
  const std::string text = workload_to_string(w);
  EXPECT_EQ(text, ostream_reference(w));
  // And the canonical text still round-trips every value exactly.
  const Workload back = workload_from_string(text);
  EXPECT_EQ(back.exec_matrix(), w.exec_matrix());
  EXPECT_EQ(back.transfer_matrix(), w.transfer_matrix());
}

TEST(WorkloadIo, HugeMachineCountIsRejectedBeforeAllocating) {
  // 68 bytes that used to allocate ~1 GB of machines before failing.
  const std::string text =
      "sehc-workload v1\n"
      "machines 20000000\n"
      "sehc-dag v1\n"
      "tasks 1\n"
      "end-dag\n"
      "exec\n"
      "1\n";
  try {
    (void)workload_from_string(text);
    FAIL() << "expected sehc::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'machines'"), std::string::npos)
        << e.what();
  }
}

TEST(WorkloadIo, HugeTaskCountIsRejectedBeforeAllocating) {
  const std::string text =
      "sehc-workload v1\n"
      "machines 2\n"
      "sehc-dag v1\n"
      "tasks 50000000\n"
      "end-dag\n"
      "exec\n"
      "1 2\n";
  try {
    (void)workload_from_string(text);
    FAIL() << "expected sehc::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'tasks'"), std::string::npos)
        << e.what();
  }
}

TEST(WorkloadIo, OversizedTransferMatrixIsRejectedBeforeAllocating) {
  // 3000 machines fit their one-number exec rows, but 3000*2999/2 pair rows
  // of one edge each cannot fit in the bytes that follow 'transfer'.
  std::string text =
      "sehc-workload v1\n"
      "machines 3000\n"
      "sehc-dag v1\n"
      "tasks 2\n"
      "edge 0 1\n"
      "end-dag\n"
      "exec\n";
  for (int m = 0; m < 3000; ++m) text += "1 1\n";
  text += "transfer\n1\n";
  try {
    (void)workload_from_string(text);
    FAIL() << "expected sehc::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("transfer declares"),
              std::string::npos)
        << e.what();
  }
}

TEST(WorkloadIo, ArchTagsOnManyMachinesRoundTrip) {
  MachineSet machines;
  const MachineArch cycle[] = {MachineArch::kSimd, MachineArch::kMimd,
                               MachineArch::kVector, MachineArch::kDataflow,
                               MachineArch::kSpecialPurpose};
  constexpr std::size_t l = 60;
  for (std::size_t m = 0; m < l; ++m) machines.add(Machine{{}, cycle[m % 5]});
  const Workload w(TaskGraph(2), std::move(machines), Matrix<double>(l, 2, 1.0),
                   Matrix<double>(l * (l - 1) / 2, 0));
  const Workload back = workload_from_string(workload_to_string(w));
  ASSERT_EQ(back.num_machines(), l);
  for (MachineId m = 0; m < l; ++m) {
    EXPECT_EQ(back.machines()[m].arch, w.machines()[m].arch) << m;
    EXPECT_EQ(back.machines()[m].name, "m" + std::to_string(m));
  }
}

TEST(WorkloadIo, ReadsFromAStreamLikeFromAString) {
  const Workload w = figure1_workload();
  std::istringstream is("leading junk line\n" + workload_to_string(w));
  std::string skip;
  std::getline(is, skip);  // start mid-stream: the bound is what is left
  const Workload back = read_workload(is);
  EXPECT_EQ(back.exec_matrix(), w.exec_matrix());
  EXPECT_EQ(back.transfer_matrix(), w.transfer_matrix());
}

}  // namespace
}  // namespace sehc
