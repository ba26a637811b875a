// SolveSession: the owning front door. One session = one sniffed source
// (in-memory / ssc1 text / sscb1 mmap); each Solve() binds a per-run
// engine from the session-level `threads` option and returns a uniform
// SolveReport. These tests pin the sniffing, the cross-source solution
// identity, the text-source threads upgrade, and the promise that every
// user-input failure is a Status, never an abort.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "api/solve_session.h"
#include "instance/generators.h"
#include "instance/serialization.h"
#include "storage/binary_instance_writer.h"
#include "stream/engine_context.h"
#include "testing/scoped_temp_dir.h"
#include "util/random.h"

namespace streamsc {
namespace {

using testing::ScopedTempDir;

SetSystem SessionInstance() {
  Rng rng(17);
  return PlantedCoverInstance(96, 12, 3, rng);
}

struct SessionFixture {
  SessionFixture() : system(SessionInstance()) {
    text_path = dir.FilePath("inst.ssc");
    binary_path = dir.FilePath("inst.sscb1");
    EXPECT_TRUE(SaveSetSystem(system, text_path).ok());
    EXPECT_TRUE(BinaryInstanceWriter::WriteSystem(system, binary_path).ok());
  }

  ScopedTempDir dir;
  SetSystem system;
  std::string text_path;
  std::string binary_path;
};

TEST(SolveSessionTest, SniffsTextAndBinarySources) {
  SessionFixture fx;
  StatusOr<SolveSession> text = SolveSession::Open(fx.text_path);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(text->source(), SolveSession::Source::kFile);
  EXPECT_EQ(text->universe_size(), fx.system.universe_size());
  EXPECT_EQ(text->num_sets(), fx.system.num_sets());

  StatusOr<SolveSession> binary = SolveSession::Open(fx.binary_path);
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  EXPECT_EQ(binary->source(), SolveSession::Source::kMmap);
  EXPECT_EQ(binary->universe_size(), fx.system.universe_size());
}

TEST(SolveSessionTest, OpenMissingFileReports) {
  StatusOr<SolveSession> session =
      SolveSession::Open("/nonexistent/definitely/not/here.ssc");
  EXPECT_FALSE(session.ok());
}

TEST(SolveSessionTest, OpenFifoReportsInvalidArgumentWithoutHanging) {
  // Regression: Open() sniffs the format before any hardened reader runs,
  // and the sniff (IsBinaryInstanceFile) plus the text fallback both used
  // blocking std::ifstream opens — so a FIFO path hung the session-open
  // path forever even after MmapFile::Open itself was fixed. The whole
  // chain must come straight back with a typed error.
  ScopedTempDir dir;
  const std::string path = dir.FilePath("pipe.fifo");
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
  StatusOr<SolveSession> session = SolveSession::Open(path);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(session.status().message().find("FIFO"), std::string::npos)
      << session.status().ToString();
}

TEST(SolveSessionTest, OpenGarbageFileReports) {
  ScopedTempDir dir;
  const std::string path = dir.FilePath("garbage.bin");
  ASSERT_TRUE(SaveSetSystem(SessionInstance(), path).ok());
  // Corrupt the header line so the text parser rejects it.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "not an instance at all\n";
  }
  StatusOr<SolveSession> session = SolveSession::Open(path);
  EXPECT_FALSE(session.ok());
}

TEST(SolveSessionTest, TruncatedTextBodyReportsInsteadOfSolvingAPrefix) {
  // The ssc1 header parses, but the body is bad. FileSetStream validates
  // the whole document when it opens, so Open() reports it as a Status
  // and no width ever returns a feasible report over the prefix. The
  // second document's defect sits in its last line, after the point
  // where one_pass has covered everything and stops reading.
  ScopedTempDir dir;
  const std::string path = dir.FilePath("truncated.ssc");
  for (const char* text : {
           "ssc1 8 4\n2 0 1\n2 2 3\n",  // claims 4 sets, delivers 2
           "ssc1 4 3\n2 0 1\n2 2 3\n3 0 0 1\n",  // late duplicate id
       }) {
    SCOPED_TRACE(text);
    {
      std::ofstream out(path, std::ios::trunc);
      out << text;
    }
    StatusOr<SolveSession> session = SolveSession::Open(path);
    EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(session.status().ToString(),
              LoadSetSystem(path).status().ToString());
  }
}

TEST(SolveSessionTest, AllSourcesProduceIdenticalSolutions) {
  SessionFixture fx;
  const std::vector<std::string> args = {"alpha=2", "epsilon=0.5"};

  SolveSession memory = SolveSession::OverSystem(fx.system);
  StatusOr<SolveReport> mem_report = memory.Solve("assadi", args);
  ASSERT_TRUE(mem_report.ok()) << mem_report.status().ToString();
  EXPECT_TRUE(mem_report->feasible);
  EXPECT_EQ(mem_report->source, "memory");
  EXPECT_EQ(mem_report->threads, 1u);

  StatusOr<SolveSession> text = SolveSession::Open(fx.text_path);
  ASSERT_TRUE(text.ok());
  StatusOr<SolveReport> text_report = text->Solve("assadi", args);
  ASSERT_TRUE(text_report.ok()) << text_report.status().ToString();
  EXPECT_EQ(text_report->source, "file");
  EXPECT_EQ(text_report->solution.chosen, mem_report->solution.chosen);

  StatusOr<SolveSession> binary = SolveSession::Open(fx.binary_path);
  ASSERT_TRUE(binary.ok());
  StatusOr<SolveReport> binary_report = binary->Solve("assadi", args);
  ASSERT_TRUE(binary_report.ok()) << binary_report.status().ToString();
  EXPECT_EQ(binary_report->source, "mmap");
  EXPECT_EQ(binary_report->solution.chosen, mem_report->solution.chosen);
}

TEST(SolveSessionTest, ThreadsUpgradeTextSourceAndPreserveBytes) {
  SessionFixture fx;
  SolveSession memory = SolveSession::OverSystem(fx.system);
  StatusOr<SolveReport> baseline =
      memory.Solve("threshold_greedy", {"beta=2"});
  ASSERT_TRUE(baseline.ok());

  StatusOr<SolveSession> text = SolveSession::Open(fx.text_path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text->source(), SolveSession::Source::kFile);
  StatusOr<SolveReport> sharded =
      text->Solve("threshold_greedy", {"beta=2", "threads=4"});
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  // The text source cannot buffer a pass; the session upgraded it to
  // memory so the 4-thread engine genuinely shards — same bytes out.
  EXPECT_EQ(text->source(), SolveSession::Source::kMemory);
  EXPECT_EQ(sharded->source, "memory");
  EXPECT_EQ(sharded->threads, 4u);
  EXPECT_EQ(sharded->solution.chosen, baseline->solution.chosen);
  EXPECT_EQ(sharded->counters.value(engine_counters::SetsTaken()),
            baseline->counters.value(engine_counters::SetsTaken()));
  EXPECT_EQ(sharded->counters.value(engine_counters::ElementsCovered()),
            baseline->counters.value(engine_counters::ElementsCovered()));
}

TEST(SolveSessionTest, MmapSourceShardsWithoutUpgrade) {
  SessionFixture fx;
  StatusOr<SolveSession> binary = SolveSession::Open(fx.binary_path);
  ASSERT_TRUE(binary.ok());
  StatusOr<SolveReport> report =
      binary->Solve("assadi", {"alpha=2", "threads=8"});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(binary->source(), SolveSession::Source::kMmap);
  EXPECT_EQ(report->source, "mmap");
  EXPECT_EQ(report->threads, 8u);
  EXPECT_TRUE(report->feasible);
}

TEST(SolveSessionTest, MaxCoverageAndPairFamiliesReportTheirScalars) {
  SessionFixture fx;
  SolveSession session = SolveSession::OverSystem(fx.system);
  StatusOr<SolveReport> mc = session.Solve("sieve_mc", {"k=2"});
  ASSERT_TRUE(mc.ok()) << mc.status().ToString();
  EXPECT_EQ(mc->kind, SolverKind::kMaxCoverage);
  EXPECT_TRUE(mc->feasible);
  EXPECT_GT(mc->extra, 0u);  // exact coverage of the returned sets

  // A planted 2-cover instance for the pair finder.
  SetSystem pair_system(64);
  std::vector<ElementId> low, high;
  for (ElementId e = 0; e < 64; ++e) (e < 32 ? low : high).push_back(e);
  pair_system.AddSetFromIndices(low);
  pair_system.AddSetFromIndices(high);
  SolveSession pair_session = SolveSession::OverSystem(pair_system);
  StatusOr<SolveReport> pair = pair_session.Solve("pair_finder", {});
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  EXPECT_EQ(pair->kind, SolverKind::kPairFinder);
  EXPECT_TRUE(pair->feasible);
  EXPECT_EQ(pair->solution.size(), 2u);
}

TEST(SolveSessionTest, UserInputFailuresAreStatusesNeverAborts) {
  SessionFixture fx;
  SolveSession session = SolveSession::OverSystem(fx.system);

  // Unknown solver.
  EXPECT_FALSE(session.Solve("nope", {}).ok());
  // Bad solver option (shape / range / type).
  EXPECT_FALSE(session.Solve("assadi", {"alpha=0"}).ok());
  EXPECT_FALSE(session.Solve("assadi", {"bogus=1"}).ok());
  // Bad session option: threads is a uint >= 1.
  StatusOr<SolveReport> zero = session.Solve("assadi", {"threads=0"});
  ASSERT_FALSE(zero.ok());
  EXPECT_NE(zero.status().message().find("threads"), std::string::npos);
  EXPECT_FALSE(session.Solve("assadi", {"threads=lots"}).ok());
  // Stream-dependent misuse: emek_rosen threshold > n.
  StatusOr<SolveReport> big =
      session.Solve("emek_rosen", {"threshold=100000"});
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kOutOfRange);
  // The session still works after all those failures.
  EXPECT_TRUE(session.Solve("assadi", {}).ok());
}

// --- The Reopen reuse contract ----------------------------------------
// A session is re-targetable in place (the daemon's warm-slot shape).
// The pinned contract: a failed Reopen leaves the session *empty* — not
// half-bound to the previous stream — and a later successful Reopen on
// the very same session behaves exactly like a fresh Open.

TEST(SolveSessionReopenTest, FailedReopenDetachesThePreviousSource) {
  SessionFixture fx;
  StatusOr<SolveSession> session = SolveSession::Open(fx.binary_path);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Solve("assadi", {"alpha=2"}).ok());

  // Reopen on a missing file fails...
  EXPECT_FALSE(session->Reopen("/nonexistent/definitely/gone.sscb1").ok());
  // ...and the session is now empty: no stale mmap keeps serving.
  EXPECT_EQ(session->source(), SolveSession::Source::kNone);
  EXPECT_EQ(session->universe_size(), 0u);
  StatusOr<SolveReport> report = session->Solve("assadi", {"alpha=2"});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SolveSessionReopenTest, SuccessAfterFailureMatchesAFreshOpen) {
  SessionFixture fx;
  // Baseline from a fresh session.
  StatusOr<SolveSession> fresh = SolveSession::Open(fx.binary_path);
  ASSERT_TRUE(fresh.ok());
  StatusOr<SolveReport> baseline = fresh->Solve("assadi", {"alpha=2"});
  ASSERT_TRUE(baseline.ok());

  // Interleave failing and succeeding opens on ONE session: text OK,
  // garbage FAIL, binary OK, missing FAIL, binary OK — the surviving
  // state must only ever reflect the last success (or be empty).
  ScopedTempDir dir;
  const std::string garbage = dir.FilePath("garbage.ssc");
  {
    std::ofstream out(garbage);
    out << "not an instance at all\n";
  }
  SolveSession session;
  ASSERT_TRUE(session.Reopen(fx.text_path).ok());
  EXPECT_EQ(session.source(), SolveSession::Source::kFile);
  ASSERT_FALSE(session.Reopen(garbage).ok());
  EXPECT_EQ(session.source(), SolveSession::Source::kNone);
  ASSERT_TRUE(session.Reopen(fx.binary_path).ok());
  EXPECT_EQ(session.source(), SolveSession::Source::kMmap);
  ASSERT_FALSE(session.Reopen("/nonexistent/nope.ssc").ok());
  ASSERT_TRUE(session.Reopen(fx.binary_path).ok());

  StatusOr<SolveReport> report = session.Solve("assadi", {"alpha=2"});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->source, "mmap");
  EXPECT_EQ(report->solution.chosen, baseline->solution.chosen);
}

TEST(SolveSessionReopenTest, ReopenClearsTheTextUpgradeAndParseError) {
  SessionFixture fx;
  // Drive a text session through the threads>1 memory upgrade, then
  // Reopen: the owned system must not leak into the new source's state.
  StatusOr<SolveSession> session = SolveSession::Open(fx.text_path);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Solve("threshold_greedy", {"beta=2", "threads=2"})
                  .ok());
  EXPECT_EQ(session->source(), SolveSession::Source::kMemory);
  ASSERT_TRUE(session->Reopen(fx.text_path).ok());
  EXPECT_EQ(session->source(), SolveSession::Source::kFile);
  StatusOr<SolveReport> report =
      session->Solve("threshold_greedy", {"beta=2"});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->source, "file");

  // And a truncated-body text source whose Reopen failed must not poison
  // the session after a Reopen onto a good file.
  ScopedTempDir dir;
  const std::string truncated = dir.FilePath("truncated.ssc");
  {
    std::ofstream out(truncated);
    out << "ssc1 8 4\n"
        << "2 0 1\n";
  }
  EXPECT_FALSE(session->Reopen(truncated).ok());
  EXPECT_FALSE(session->Solve("one_pass", {}).ok());
  ASSERT_TRUE(session->Reopen(fx.text_path).ok());
  EXPECT_TRUE(session->Solve("one_pass", {}).ok());
}

TEST(SolveSessionTest, EmptySessionSolveReports) {
  SolveSession empty;
  StatusOr<SolveReport> report = empty.Solve("assadi", {});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SolveSessionTest, SessionOptionsDocumentThreads) {
  const std::vector<OptionDescriptor>& options =
      SolveSession::SessionOptions();
  ASSERT_FALSE(options.empty());
  bool found = false;
  for (const OptionDescriptor& desc : options) {
    if (desc.name == "threads") {
      found = true;
      EXPECT_EQ(desc.type, OptionType::kUint);
      EXPECT_FALSE(desc.doc.empty());
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace streamsc
