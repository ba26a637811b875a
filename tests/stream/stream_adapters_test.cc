#include "stream/stream_adapters.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "core/assadi_set_cover.h"
#include "instance/generators.h"
#include "instance/serialization.h"
#include "offline/verifier.h"
#include "testing/scoped_temp_dir.h"
#include "testing/ssc1_corpus.h"

namespace streamsc {
namespace {

TEST(FileSetStreamTest, StreamsSavedSystem) {
  Rng rng(2);
  const SetSystem original = PlantedCoverInstance(128, 10, 3, rng);
  const testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("stream_adapters.ssc");
  ASSERT_TRUE(SaveSetSystem(original, path).ok());

  FileSetStream stream(path);
  ASSERT_TRUE(stream.status().ok()) << stream.status().ToString();
  EXPECT_EQ(stream.universe_size(), 128u);
  EXPECT_EQ(stream.num_sets(), 10u);

  stream.BeginPass();
  StreamItem item;
  SetId expected = 0;
  while (stream.Next(&item)) {
    EXPECT_EQ(item.id, expected);
    EXPECT_TRUE(item.set == original.set(expected));
    ++expected;
  }
  EXPECT_EQ(expected, 10u);
}

TEST(FileSetStreamTest, MultiplePassesReRead) {
  Rng rng(3);
  const SetSystem original = UniformRandomInstance(64, 8, 16, rng);
  const testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("stream_adapters2.ssc");
  ASSERT_TRUE(SaveSetSystem(original, path).ok());
  FileSetStream stream(path);
  // UniformRandomInstance may append a feasibility patch set, so compare
  // against the generated system's actual count.
  for (int pass = 0; pass < 3; ++pass) {
    stream.BeginPass();
    StreamItem item;
    std::size_t count = 0;
    while (stream.Next(&item)) ++count;
    EXPECT_EQ(count, original.num_sets()) << "pass " << pass;
  }
  EXPECT_EQ(stream.passes(), 3u);
}

TEST(FileSetStreamTest, AlgorithmRunsOverFile) {
  // Assadi over a file-backed stream, which re-parses the file every pass
  // and holds one set at a time, on two planted instances.
  struct Planted {
    std::size_t n, m, cover_size;
    std::uint64_t seed;
  };
  const Planted instances[] = {{256, 24, 4, 4}, {200, 20, 4, 5}};
  for (const Planted& planted : instances) {
    SCOPED_TRACE("n=" + std::to_string(planted.n));
    Rng rng(planted.seed);
    const SetSystem original =
        PlantedCoverInstance(planted.n, planted.m, planted.cover_size, rng);
    const testing::ScopedTempDir dir;
    const std::string path = dir.FilePath("stream_adapters3.ssc");
    ASSERT_TRUE(SaveSetSystem(original, path).ok());
    FileSetStream stream(path);
    ASSERT_TRUE(stream.status().ok());
    AssadiConfig config;
    config.alpha = 2;
    config.epsilon = 0.5;
    AssadiSetCover algorithm(config);
    const SetCoverRunResult result = algorithm.Run(stream);
    ASSERT_TRUE(result.feasible);
    EXPECT_TRUE(original.IsFeasibleCover(result.solution.chosen));
  }
}

TEST(FileSetStreamTest, MissingFileReportsStatus) {
  FileSetStream stream("/nonexistent/foo.ssc");
  EXPECT_FALSE(stream.status().ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kNotFound);
  stream.BeginPass();
  StreamItem item;
  EXPECT_FALSE(stream.Next(&item));
}

TEST(FileSetStreamTest, FifoPathReportsInvalidArgumentWithoutHanging) {
  // Regression: FileSetStream opened with a bare std::ifstream, and an
  // ifstream open of an unfed FIFO blocks forever — so a FIFO path
  // handed to `workload_tool solve` wedged the process before any
  // hardened reader saw it. The pre-open probe must turn this into an
  // immediate typed error.
  const testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("pipe.fifo");
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
  FileSetStream stream(path);
  ASSERT_FALSE(stream.status().ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stream.status().message().find("FIFO"), std::string::npos)
      << stream.status().ToString();
}

TEST(FileSetStreamTest, MalformedFileReportsStatus) {
  const testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("stream_adapters_bad.ssc");
  {
    std::ofstream out(path);
    out << "not-a-header\n";
  }
  FileSetStream stream(path);
  EXPECT_FALSE(stream.status().ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
}

TEST(FileSetStreamTest, FirstPassParseErrorsReportThroughStatus) {
  // A good header with a corrupt body: the check-status()-then-stream
  // contract covers the first pass, so this stays quiet (no abort).
  const testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("bad_body.ssc");
  {
    std::ofstream out(path);
    out << "ssc1 8 2\n2 0 1\n3 0 99 2\n";  // element 99 out of range
  }
  FileSetStream stream(path);
  ASSERT_TRUE(stream.status().ok());
  stream.BeginPass();
  StreamItem item;
  EXPECT_TRUE(stream.Next(&item));
  EXPECT_FALSE(stream.Next(&item));
  EXPECT_FALSE(stream.status().ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
}

TEST(FileSetStreamTest, ErrorsPastAnAbandonedPassStayQuiet) {
  // A statically corrupt file whose bad line lies beyond the point where
  // pass 1 stopped reading (algorithms abandon passes early, e.g. once
  // everything is covered) must keep reporting through status() on later
  // passes: only a file some pass has parsed end to end can trigger the
  // modified-between-passes abort.
  const testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("late_corruption.ssc");
  {
    std::ofstream out(path);
    out << "ssc1 8 3\n1 0\n1 1\nnot-a-set-line\n";
  }
  FileSetStream stream(path);
  ASSERT_TRUE(stream.status().ok());
  stream.BeginPass();
  StreamItem item;
  EXPECT_TRUE(stream.Next(&item));  // abandon the pass after one item

  stream.BeginPass();  // must not abort: the file never parsed fully
  EXPECT_TRUE(stream.Next(&item));
  EXPECT_TRUE(stream.Next(&item));
  EXPECT_FALSE(stream.Next(&item));  // hits the bad line -> quiet status
  EXPECT_FALSE(stream.status().ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

TEST(FileSetStreamTest, FirstFullPassRejectsWhatLoadSetSystemRejects) {
  // Each document has a good header, so the stream opens; the defect
  // surfaces on the first full pass, with LoadSetSystem's own error.
  const testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("strict.ssc");
  for (const char* text : {
           "ssc1 4 2\n3 0 0 1\n1 2\n",      // duplicate id
           "ssc1 4 2\n1 0 3\n1 2\n",        // trailing token
           "ssc1 4 2\n1 0\n1 2\n1 3\n",    // line after the last set
       }) {
    SCOPED_TRACE(text);
    WriteText(path, text);
    FileSetStream stream(path);
    ASSERT_TRUE(stream.status().ok()) << stream.status().ToString();
    stream.BeginPass();
    StreamItem item;
    while (stream.Next(&item)) {
    }
    EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(stream.status().ToString(),
              LoadSetSystem(path).status().ToString());
  }
  // With m = 0 the header is the last line, so trailing content is
  // visible at open.
  WriteText(path, "ssc1 4 0\n1 0\n");
  const FileSetStream empty(path);
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

// Every document of the parser's mutation corpus, replayed from a file: a
// full FileSetStream pass must accept exactly what SetSystemFromString
// accepts, serve the same sets, and fail with the same error otherwise.
class FileSetStreamAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(FileSetStreamAgreementTest, FullPassMatchesSetSystemFromString) {
  const testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("mutated.ssc");
  for (const std::string& text : testing::Ssc1MutationCorpus(GetParam())) {
    SCOPED_TRACE(text);
    WriteText(path, text);
    const StatusOr<SetSystem> parsed = SetSystemFromString(text);
    FileSetStream stream(path);
    std::size_t streamed = 0;
    if (stream.status().ok()) {
      stream.BeginPass();
      StreamItem item;
      while (stream.Next(&item)) {
        if (parsed.ok()) {
          ASSERT_LT(item.id, parsed->num_sets());
          EXPECT_TRUE(item.set == parsed->set(item.id));
        }
        ++streamed;
      }
    }
    ASSERT_EQ(stream.status().ok(), parsed.ok())
        << stream.status().ToString() << " vs "
        << parsed.status().ToString();
    if (parsed.ok()) {
      EXPECT_EQ(stream.universe_size(), parsed->universe_size());
      EXPECT_EQ(streamed, parsed->num_sets());
    } else {
      EXPECT_EQ(stream.status().ToString(), parsed.status().ToString());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FileSetStreamAgreementTest,
                         ::testing::Range(0, 4));

TEST(FileSetStreamDeathTest, TruncationBetweenPassesAborts) {
  // Once a pass has streamed cleanly, a mid-file truncation on a later
  // pass must abort loudly: ending the stream early would silently hand
  // the algorithm a partial instance.
  const testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("truncated.ssc");
  Rng rng(6);
  const SetSystem original = PlantedCoverInstance(64, 8, 3, rng);
  ASSERT_TRUE(SaveSetSystem(original, path).ok());

  FileSetStream stream(path);
  ASSERT_TRUE(stream.status().ok());
  stream.BeginPass();
  StreamItem item;
  std::size_t count = 0;
  while (stream.Next(&item)) ++count;
  ASSERT_EQ(count, original.num_sets());

  {
    std::ofstream out(path, std::ios::trunc);
    out << "ssc1 64 8\n1 0\n";  // header intact, body truncated
  }
  stream.BeginPass();
  EXPECT_TRUE(stream.Next(&item));
  EXPECT_DEATH(
      {
        while (stream.Next(&item)) {
        }
      },
      "truncated or modified between passes");
}

TEST(FileSetStreamDeathTest, DimensionChangeBetweenPassesAborts) {
  const testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("reshaped.ssc");
  Rng rng(7);
  const SetSystem original = PlantedCoverInstance(64, 8, 3, rng);
  ASSERT_TRUE(SaveSetSystem(original, path).ok());

  FileSetStream stream(path);
  ASSERT_TRUE(stream.status().ok());
  stream.BeginPass();
  StreamItem item;
  while (stream.Next(&item)) {
  }

  {
    std::ofstream out(path, std::ios::trunc);
    out << "ssc1 32 1\n1 0\n";  // different n and m
  }
  EXPECT_DEATH(stream.BeginPass(), "dimensions changed between passes");
}

TEST(FileSetStreamDeathTest, DeletionBetweenPassesAborts) {
  const testing::ScopedTempDir dir;
  const std::string path = dir.FilePath("deleted.ssc");
  Rng rng(8);
  const SetSystem original = PlantedCoverInstance(64, 8, 3, rng);
  ASSERT_TRUE(SaveSetSystem(original, path).ok());

  FileSetStream stream(path);
  ASSERT_TRUE(stream.status().ok());
  stream.BeginPass();
  StreamItem item;
  while (stream.Next(&item)) {
  }

  std::filesystem::remove(path);
  EXPECT_DEATH(stream.BeginPass(), "unreadable between passes");
}

}  // namespace
}  // namespace streamsc
