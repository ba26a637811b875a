// The container both on-disk binary formats share: the 48-byte header
// (magic, version, reserved, n, m, one format word, file_size), the
// mapped open that checks it, and the file writer that produces it.
// Pinned here: one header-defect matrix run against sscb1 and sscd1
// alike, the exact bytes each writer emits, and the write rule — a
// created file appears whole by rename, so a failed or abandoned write
// leaves the target untouched and readers of the old file keep their
// bytes.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "dynamic/delta_log.h"
#include "dynamic/overlay_set_stream.h"
#include "instance/generators.h"
#include "instance/serialization.h"
#include "instance/set_system.h"
#include "storage/binary_instance_writer.h"
#include "storage/mmap_set_stream.h"
#include "testing/scoped_temp_dir.h"
#include "util/bitset.h"
#include "util/random.h"

namespace streamsc {
namespace {

using testing::ScopedTempDir;

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

template <typename T>
std::string Patched(std::string bytes, std::size_t offset, T value) {
  std::memcpy(&bytes[offset], &value, sizeof(value));
  return bytes;
}

template <typename T>
T Field(const std::string& bytes, std::size_t offset) {
  T value;
  std::memcpy(&value, &bytes[offset], sizeof(value));
  return value;
}

// FNV-1a, 64-bit.
std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// Names of the files in `dir`, sorted.
std::vector<std::string> DirEntries(const ScopedTempDir& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

DynamicBitset SparseFixtureSet() {
  DynamicBitset set(100);
  set.Set(1);
  set.Set(2);
  set.Set(3);
  return set;
}

DynamicBitset DenseFixtureSet() {
  DynamicBitset set(100);
  for (std::size_t e = 0; e < 60; ++e) set.Set(e);
  return set;
}

// sscb1 over n = 100: set 0 sparse {1,2,3}, set 1 dense [0, 60).
//   [header 48B][sparse 16B @48][dense 16B @64][index 2 x 16B @80]
std::string WriteSscb1Fixture(const std::string& path) {
  SetSystem system(100);
  system.AddSet(SparseFixtureSet());
  system.AddSet(DenseFixtureSet());
  EXPECT_TRUE(BinaryInstanceWriter::WriteSystem(system, path).ok());
  return ReadFile(path);
}

// sscd1 over n = 100, m0 = 10: add sparse {1,2,3}, remove slot 5,
// replace slot 0 with dense [0, 60).
//   [header 48B][add 40B @48][remove 24B @88][replace 40B @112]
std::string WriteSscd1Fixture(const std::string& path) {
  DeltaLogWriter writer(path, 100, 10);
  EXPECT_TRUE(writer.AddSet(SparseFixtureSet()).ok());
  EXPECT_TRUE(writer.RemoveSet(5).ok());
  EXPECT_TRUE(writer.ReplaceSet(0, DenseFixtureSet()).ok());
  EXPECT_TRUE(writer.Finish().ok());
  return ReadFile(path);
}

// Opens `path` with the format's reader. A rejected file must leave the
// reader empty.
Status OpenSscb1(const std::string& path) {
  MmapSetStream stream(path);
  if (!stream.status().ok()) {
    EXPECT_EQ(stream.universe_size(), 0u);
    EXPECT_EQ(stream.num_sets(), 0u);
  }
  return stream.status();
}

Status OpenSscd1(const std::string& path) {
  DeltaLog log(path);
  if (!log.status().ok()) {
    EXPECT_EQ(log.universe_size(), 0u);
    EXPECT_EQ(log.num_slots(), 0u);
    EXPECT_EQ(log.record_count(), 0u);
  }
  return log.status();
}

struct FormatCase {
  const char* prefix;  // every rejection's message starts with it
  std::function<std::string(const std::string&)> write_fixture;
  std::function<Status(const std::string&)> open;
};

const FormatCase kFormats[] = {
    {"sscb1: ", WriteSscb1Fixture, OpenSscb1},
    {"sscd1: ", WriteSscd1Fixture, OpenSscd1},
};

struct Defect {
  const char* what;
  std::function<std::string(const std::string&)> apply;
};

// Header field offsets, the same in both formats.
constexpr std::size_t kVersionAt = 8;
constexpr std::size_t kReservedAt = 12;
constexpr std::size_t kUniverseAt = 16;
constexpr std::size_t kNumSetsAt = 24;
constexpr std::size_t kFormatWordAt = 32;  // sscb1 index_offset
constexpr std::size_t kFileSizeAt = 40;
constexpr std::uint64_t kOverCap = (std::uint64_t{1} << 31) + 1;

// The defects of the shared 48-byte prefix.
std::vector<Defect> PrefixDefects() {
  return {
      {"bad magic",
       [](std::string b) {
         b[0] = 'x';
         return b;
       }},
      {"bad version",
       [](const std::string& b) {
         return Patched<std::uint32_t>(b, kVersionAt, 2);
       }},
      {"nonzero reserved field",
       [](const std::string& b) {
         return Patched<std::uint32_t>(b, kReservedAt, 1);
       }},
      {"n > 2^31",
       [](const std::string& b) {
         return Patched<std::uint64_t>(b, kUniverseAt, kOverCap);
       }},
      {"m > 2^31",
       [](const std::string& b) {
         return Patched<std::uint64_t>(b, kNumSetsAt, kOverCap);
       }},
      {"file_size + 8",
       [](const std::string& b) {
         return Patched<std::uint64_t>(b, kFileSizeAt, b.size() + 8);
       }},
      {"file_size - 8",
       [](const std::string& b) {
         return Patched<std::uint64_t>(b, kFileSizeAt, b.size() - 8);
       }},
      {"empty file", [](const std::string&) { return std::string(); }},
      {"8 bytes", [](const std::string& b) { return b.substr(0, 8); }},
      {"header minus one byte",
       [](const std::string& b) { return b.substr(0, 47); }},
  };
}

void ExpectDefectRejected(const FormatCase& format, const Defect& defect,
                          const std::string& path, const std::string& good) {
  SCOPED_TRACE(std::string(format.prefix) + defect.what);
  WriteFile(path, defect.apply(good));
  const Status status = format.open(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(status.message().rfind(format.prefix, 0), 0u)
      << status.ToString();
}

TEST(ContainerHeaderTest, EveryPrefixDefectIsRejectedInBothFormats) {
  ScopedTempDir dir;
  for (const FormatCase& format : kFormats) {
    const std::string path = dir.FilePath("fixture.bin");
    const std::string good = format.write_fixture(path);
    ASSERT_TRUE(format.open(path).ok());
    for (const Defect& defect : PrefixDefects()) {
      ExpectDefectRejected(format, defect, path, good);
    }
  }
}

TEST(ContainerHeaderTest, Sscb1IndexPlacementDefectsAreRejected) {
  ScopedTempDir dir;
  const std::string path = dir.FilePath("fixture.sscb1");
  const std::string good = WriteSscb1Fixture(path);
  const std::uint64_t index_offset =
      Field<std::uint64_t>(good, kFormatWordAt);
  ASSERT_EQ(index_offset, 80u);
  const auto at = [](std::uint64_t offset) {
    return [offset](const std::string& b) {
      return Patched<std::uint64_t>(b, kFormatWordAt, offset);
    };
  };
  const Defect defects[] = {
      {"index_offset inside the header", at(40)},
      {"index_offset misaligned", at(index_offset + 4)},
      {"index one entry too long", at(index_offset - 16)},
      {"index one entry too short", at(index_offset + 16)},
      {"index_offset past the file", at(good.size() + 8)},
  };
  for (const Defect& defect : defects) {
    ExpectDefectRejected(kFormats[0], defect, path, good);
  }
}

// ---- Written bytes ---------------------------------------------------------

TEST(ContainerBytesTest, Sscb1WriterBytesArePinned) {
  ScopedTempDir dir;
  const std::string bytes = WriteSscb1Fixture(dir.FilePath("pin.sscb1"));
  ASSERT_EQ(bytes.size(), 112u);
  EXPECT_EQ(Field<std::uint64_t>(bytes, kFileSizeAt), 112u);
  EXPECT_EQ(Fnv1a(bytes), 0x3b6f20a7cc4cd796ULL);
}

TEST(ContainerBytesTest, Sscd1WriterBytesArePinned) {
  ScopedTempDir dir;
  const std::string bytes = WriteSscd1Fixture(dir.FilePath("pin.sscd1"));
  ASSERT_EQ(bytes.size(), 152u);
  EXPECT_EQ(Field<std::uint64_t>(bytes, kFormatWordAt), 3u);  // records
  EXPECT_EQ(Field<std::uint64_t>(bytes, kFileSizeAt), 152u);
  EXPECT_EQ(Fnv1a(bytes), 0x96d653f85f0c3bfaULL);
}

TEST(ContainerBytesTest, AppendModeWritesTheSameBytesAsOneWriter) {
  ScopedTempDir dir;
  const std::string one_shot = WriteSscd1Fixture(dir.FilePath("one.sscd1"));
  const std::string path = dir.FilePath("appended.sscd1");
  {
    DeltaLogWriter writer(path, 100, 10);
    ASSERT_TRUE(writer.AddSet(SparseFixtureSet()).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  {
    DeltaLogWriter writer(path);
    ASSERT_TRUE(writer.status().ok()) << writer.status().ToString();
    ASSERT_TRUE(writer.RemoveSet(5).ok());
    ASSERT_TRUE(writer.ReplaceSet(0, DenseFixtureSet()).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  EXPECT_EQ(ReadFile(path), one_shot);
}

// ---- The write rule --------------------------------------------------------

SetSystem Planted(std::uint64_t seed, std::size_t m) {
  Rng rng(seed);
  return PlantedCoverInstance(128, m, 4, rng);
}

TEST(ContainerWriterTest, StreamOpenedBeforeARewriteKeepsItsSets) {
  ScopedTempDir dir;
  const std::string path = dir.FilePath("instance.sscb1");
  const SetSystem before = Planted(1, 40);
  const SetSystem after = Planted(2, 8);
  ASSERT_TRUE(BinaryInstanceWriter::WriteSystem(before, path).ok());
  MmapSetStream open(path);
  ASSERT_TRUE(open.status().ok());

  // A smaller file rewritten in place would cut the mapping short.
  ASSERT_TRUE(BinaryInstanceWriter::WriteSystem(after, path).ok());
  ASSERT_EQ(open.num_sets(), before.num_sets());
  for (SetId id = 0; id < before.num_sets(); ++id) {
    EXPECT_TRUE(open.set(id) == before.set(id)) << "set " << id;
  }
  MmapSetStream reopened(path);
  ASSERT_TRUE(reopened.status().ok());
  ASSERT_EQ(reopened.num_sets(), after.num_sets());
  for (SetId id = 0; id < after.num_sets(); ++id) {
    EXPECT_TRUE(reopened.set(id) == after.set(id)) << "set " << id;
  }
}

TEST(ContainerWriterTest, CompactOntoTheOverlaysOwnBase) {
  ScopedTempDir dir;
  const std::string base_path = dir.FilePath("base.sscb1");
  const std::string delta_path = dir.FilePath("delta.sscd1");
  const SetSystem base = Planted(3, 12);
  ASSERT_TRUE(BinaryInstanceWriter::WriteSystem(base, base_path).ok());
  {
    DeltaLogWriter writer(delta_path, base.universe_size(), base.num_sets());
    DynamicBitset added(base.universe_size());
    added.Set(7);
    ASSERT_TRUE(writer.AddSet(added).ok());
    ASSERT_TRUE(writer.RemoveSet(2).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  OverlaySetStream overlay(base_path, delta_path);
  ASSERT_TRUE(overlay.status().ok()) << overlay.status().ToString();
  ASSERT_TRUE(overlay.Materialize(base_path).ok());

  MmapSetStream compacted(base_path);
  ASSERT_TRUE(compacted.status().ok()) << compacted.status().ToString();
  ASSERT_EQ(compacted.num_sets(), overlay.num_sets());
  ASSERT_EQ(compacted.num_sets(), base.num_sets());
  for (SetId id = 0; id < overlay.num_sets(); ++id) {
    EXPECT_TRUE(compacted.set(id) == overlay.set(id)) << "set " << id;
  }
}

TEST(ContainerWriterTest, ConvertOntoItsOwnInput) {
  ScopedTempDir dir;
  const SetSystem system = Planted(4, 10);
  const std::string path = dir.FilePath("instance.ssc");
  const std::string expected = dir.FilePath("expected.sscb1");
  ASSERT_TRUE(SaveSetSystem(system, path).ok());
  ASSERT_TRUE(BinaryInstanceWriter::WriteSystem(system, expected).ok());
  ASSERT_TRUE(BinaryInstanceWriter::TranscodeText(path, path).ok());
  EXPECT_EQ(ReadFile(path), ReadFile(expected));
}

TEST(ContainerWriterTest, ConvertWritesThroughASymlink) {
  ScopedTempDir dir;
  const SetSystem system = Planted(5, 10);
  const std::string text = dir.FilePath("in.ssc");
  const std::string expected = dir.FilePath("expected.sscb1");
  const std::string real = dir.FilePath("real.sscb1");
  const std::string link = dir.FilePath("link.sscb1");
  ASSERT_TRUE(SaveSetSystem(system, text).ok());
  ASSERT_TRUE(BinaryInstanceWriter::WriteSystem(system, expected).ok());
  WriteFile(real, "previous sscb1 bytes");
  std::filesystem::create_symlink("real.sscb1", link);
  const std::vector<std::string> entries = DirEntries(dir);

  ASSERT_TRUE(BinaryInstanceWriter::TranscodeText(text, link).ok());
  EXPECT_TRUE(std::filesystem::is_symlink(link));
  EXPECT_EQ(std::filesystem::read_symlink(link), "real.sscb1");
  EXPECT_EQ(ReadFile(real), ReadFile(expected));
  EXPECT_EQ(DirEntries(dir), entries);
}

TEST(ContainerWriterTest, FailedWritesLeaveTheTargetAndNoTempFile) {
  ScopedTempDir dir;
  const std::string sscb1_path = dir.FilePath("out.sscb1");
  const std::string sscd1_path = dir.FilePath("out.sscd1");
  WriteFile(sscb1_path, "previous sscb1 bytes");
  WriteFile(sscd1_path, "previous sscd1 bytes");
  const std::vector<std::string> entries = DirEntries(dir);
  {
    // Finish() fails: one of the two declared sets is missing.
    BinaryInstanceWriter writer(sscb1_path, 8, 2);
    ASSERT_TRUE(writer.AddSet(DynamicBitset(8)).ok());
    EXPECT_EQ(writer.Finish().code(), StatusCode::kFailedPrecondition);
  }
  {
    // Destroyed before Finish().
    BinaryInstanceWriter writer(sscb1_path, 8, 1);
    ASSERT_TRUE(writer.AddSet(DynamicBitset(8)).ok());
  }
  {
    // A failed mutation, then Finish() reports it.
    DeltaLogWriter writer(sscd1_path, 8, 2);
    ASSERT_TRUE(writer.AddSet(DynamicBitset(8)).ok());
    EXPECT_EQ(writer.RemoveSet(9).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(writer.Finish().code(), StatusCode::kInvalidArgument);
  }
  {
    DeltaLogWriter writer(sscd1_path, 8, 2);
    ASSERT_TRUE(writer.AddSet(DynamicBitset(8)).ok());
  }
  EXPECT_EQ(DirEntries(dir), entries);
  EXPECT_EQ(ReadFile(sscb1_path), "previous sscb1 bytes");
  EXPECT_EQ(ReadFile(sscd1_path), "previous sscd1 bytes");
}

TEST(ContainerWriterTest, NonRegularTargetIsInvalidArgumentWithoutHanging) {
  ScopedTempDir dir;
  const std::string fifo = dir.FilePath("pipe.fifo");
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  const std::string subdir = dir.FilePath("subdir");
  ASSERT_TRUE(std::filesystem::create_directory(subdir));
  for (const std::string& path : {fifo, subdir}) {
    SCOPED_TRACE(path);
    const BinaryInstanceWriter binary(path, 8, 0);
    EXPECT_EQ(binary.status().code(), StatusCode::kInvalidArgument);
    const DeltaLogWriter created(path, 8, 0);
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
    const DeltaLogWriter appended(path);
    EXPECT_EQ(appended.status().code(), StatusCode::kInvalidArgument);
  }
  const BinaryInstanceWriter binary(fifo, 8, 0);
  EXPECT_NE(binary.status().message().find("FIFO"), std::string::npos)
      << binary.status().ToString();
  EXPECT_EQ(BinaryInstanceWriter::TranscodeText(fifo, dir.FilePath("o"))
                .code(),
            StatusCode::kInvalidArgument);
  std::filesystem::remove(fifo);
  std::filesystem::remove(subdir);
  EXPECT_TRUE(DirEntries(dir).empty());
}

}  // namespace
}  // namespace streamsc
