#include "storage/container.h"

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/file_probe.h"

#if defined(__unix__) || defined(__APPLE__)
#define STREAMSC_HAVE_GETPID 1
#include <unistd.h>
#else
#define STREAMSC_HAVE_GETPID 0
#endif

namespace streamsc {
namespace container {
namespace {

Status CheckHostEndianness(const Format& format) {
  if constexpr (std::endian::native == std::endian::little) {
    return Status::Ok();
  }
  return Status::FailedPrecondition(
      std::string(format.name) +
      " is a little-endian in-place format; this host is big-endian");
}

// A sibling of \p path no other writer uses: the process id tells
// processes apart and the counter tells this process's writers apart.
std::string SiblingPath(const std::string& path) {
#if STREAMSC_HAVE_GETPID
  const long long process = ::getpid();
#else
  const long long process = 0;
#endif
  static std::atomic<std::uint64_t> next{0};
  return path + ".tmp." + std::to_string(process) + "." +
         std::to_string(next++);
}

}  // namespace

Status Format::Malformed(const std::string& what) const {
  return Status::InvalidArgument(std::string(name) + ": " + what);
}

StatusOr<Header> OpenMapped(const Format& format, const std::string& path,
                            MmapFile* file) {
  const Status endian = CheckHostEndianness(format);
  if (!endian.ok()) return endian;
  StatusOr<MmapFile> mapped = MmapFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  *file = std::move(*mapped);
  const std::uint64_t size = file->size();
  if (size < sizeof(Header)) {
    return format.Malformed(std::string("file too small for an ") +
                            format.name + " header");
  }
  // Copied out of the mapping into an aligned struct; what follows the
  // header is the format's to read in place.
  Header header = {};
  std::memcpy(&header, file->data(), sizeof(Header));
  if (std::memcmp(header.magic, format.magic, sizeof(header.magic)) != 0) {
    return format.Malformed(std::string("bad magic (not an ") + format.name +
                            " file)");
  }
  if (header.version != format.version) {
    return format.Malformed("unsupported version " +
                            std::to_string(header.version));
  }
  if (header.reserved != 0) {
    return format.Malformed("nonzero reserved header field");
  }
  if (header.universe_size > kMaxDimension ||
      header.num_sets > kMaxDimension) {
    return format.Malformed("header dimensions exceed 2^31");
  }
  if (header.file_size != size) {
    return format.Malformed(
        "file size mismatch: header says " + std::to_string(header.file_size) +
        " bytes, file has " + std::to_string(size) +
        " (truncated or torn write)");
  }
  return header;
}

FileWriter::FileWriter(const Format& format, const std::string& path,
                       std::uint64_t universe_size, std::uint64_t num_sets,
                       Mode mode)
    : format_(format), path_(path) {
  std::memcpy(header_.magic, format.magic, sizeof(header_.magic));
  header_.version = format.version;
  header_.universe_size = universe_size;
  header_.num_sets = num_sets;
  status_ = CheckHostEndianness(format);
  if (!status_.ok()) return;
  if (universe_size > kMaxDimension || num_sets > kMaxDimension) {
    status_ = format.Malformed("header dimensions exceed the 2^31 format cap");
    return;
  }
  // Probe before any open: opening a FIFO for writing blocks until a
  // reader comes, and Finish() must never rename over a directory or a
  // device node. A missing target is what create mode makes.
  const Status probe = ProbeRegularFile(path);
  if (probe.code() == StatusCode::kInvalidArgument ||
      (mode == Mode::kAppend && !probe.ok())) {
    status_ = probe;
    return;
  }
  if (mode == Mode::kAppend) {
    out_.open(path, std::ios::binary | std::ios::in | std::ios::out);
    out_.seekp(0, std::ios::end);
    offset_ = static_cast<std::uint64_t>(out_.tellp());
  } else {
    temp_path_ = SiblingPath(path);
    out_.open(temp_path_, std::ios::binary | std::ios::out | std::ios::trunc);
    // Provisional: Finish() fills in the format word and file_size.
    out_.write(reinterpret_cast<const char*>(&header_), sizeof(header_));
    offset_ = sizeof(header_);
  }
  if (!out_) Fail(Status::Internal("cannot open '" + path + "' for writing"));
}

void FileWriter::Discard() {
  if (temp_path_.empty()) return;
  out_.close();
  std::remove(temp_path_.c_str());
  temp_path_.clear();
}

bool FileWriter::Write(const void* bytes, std::size_t count) {
  if (finished_) {
    Fail(Status::FailedPrecondition(std::string(format_.name) +
                                    ": write after Finish"));
  }
  if (!status_.ok()) return false;
  out_.write(static_cast<const char*>(bytes),
             static_cast<std::streamsize>(count));
  offset_ += count;
  if (!out_) Fail(Status::Internal("write to '" + path_ + "' failed"));
  return status_.ok();
}

Status FileWriter::Fail(Status status) {
  if (status_.ok()) status_ = std::move(status);
  Discard();
  return status_;
}

Status FileWriter::Finish(std::uint64_t format_word) {
  if (!status_.ok() || finished_) return status_;
  finished_ = true;
  header_.format_word = format_word;
  header_.file_size = offset_;
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(&header_), sizeof(header_));
  out_.close();
  if (!out_) {
    return Fail(Status::Internal("header patch of '" + path_ + "' failed"));
  }
  if (!temp_path_.empty() &&
      std::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    return Fail(Status::Internal("cannot rename '" + temp_path_ + "' over '" +
                                 path_ + "': " + std::strerror(errno)));
  }
  temp_path_.clear();
  return status_;
}

}  // namespace container
}  // namespace streamsc
