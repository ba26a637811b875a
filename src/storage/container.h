#ifndef STREAMSC_STORAGE_CONTAINER_H_
#define STREAMSC_STORAGE_CONTAINER_H_

#include <cstdint>
#include <fstream>
#include <string>

#include "storage/mmap_file.h"
#include "util/status.h"

/// \file container.h
/// The container both binary on-disk formats share, sscb1 instances
/// (storage/binary_format.h) and sscd1 delta logs
/// (dynamic/delta_format.h): a 48-byte little-endian Header, the mapped
/// open that checks it, and the writer that back-patches it. Each format
/// keeps only what is its own: the meaning of the header's format word
/// and what follows the header.
///
/// The write rule: a created file is written to a uniquely named sibling
/// and renamed over its target by Finish(), so it appears whole or not at
/// all, and a reader that mapped the old file keeps the old bytes. Append
/// mode extends an existing file in place.

namespace streamsc {
namespace container {

/// What tells one format's container from another's.
struct Format {
  const char* name;            ///< "sscb1" or "sscd1".
  const unsigned char* magic;  ///< The 8 bytes at offset 0.
  std::uint32_t version;       ///< The only version readers accept.

  /// InvalidArgument "<name>: <what>", the shape of every rejection.
  Status Malformed(const std::string& what) const;
};

/// The header at offset 0 of both formats. sscd1 uses it as is; sscb1's
/// FileHeader is this layout under its own field names.
struct Header {
  unsigned char magic[8];
  std::uint32_t version;
  std::uint32_t reserved;       ///< Zero.
  std::uint64_t universe_size;  ///< n.
  std::uint64_t num_sets;       ///< m (sscd1: the base's set count).
  std::uint64_t format_word;    ///< sscb1 index_offset, sscd1 record_count.
  std::uint64_t file_size;      ///< Total file size in bytes.
};
static_assert(sizeof(Header) == 48, "container header layout drifted");

/// Cap on n and m: a corrupt header must never drive allocation.
inline constexpr std::uint64_t kMaxDimension = std::uint64_t{1} << 31;

/// Maps \p path into \p file and returns its header, checked as
/// \p format: a little-endian host, a file at least one header long, the
/// magic, the version, a zero reserved field, n and m within
/// kMaxDimension, and file_size equal to the real size. Errors are
/// MmapFile::Open's, FailedPrecondition for the host, else
/// InvalidArgument "<name>: ...".
StatusOr<Header> OpenMapped(const Format& format, const std::string& path,
                            MmapFile* file);

/// Writes one container file: the header, whatever the format appends
/// through Write(), then Finish(). Errors are sticky.
class FileWriter {
 public:
  enum class Mode { kCreate, kAppend };

  /// Checks the host and the dimensions, then opens: in create mode a
  /// sibling of \p path, headed by a provisional header; in append mode
  /// \p path itself (which must exist), at its end. An existing \p path
  /// that is not a regular file is InvalidArgument, found without
  /// blocking.
  FileWriter(const Format& format, const std::string& path,
             std::uint64_t universe_size, std::uint64_t num_sets, Mode mode);

  /// Removes the sibling unless Finish() renamed it into place.
  ~FileWriter() { Discard(); }

  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  const Status& status() const { return status_; }
  const Header& header() const { return header_; }
  bool finished() const { return finished_; }
  /// Bytes in the file so far: where the next Write() lands.
  std::uint64_t offset() const { return offset_; }

  /// Appends \p count bytes. False iff the writer has failed; a write
  /// after Finish() fails with FailedPrecondition.
  bool Write(const void* bytes, std::size_t count);

  /// Records \p status as the failure unless one came first, removes the
  /// sibling, and returns status().
  Status Fail(Status status);

  /// Back-patches \p format_word and file_size = offset(), closes, and in
  /// create mode renames the sibling over the target. Later calls return
  /// status().
  Status Finish(std::uint64_t format_word);

 private:
  void Discard();

  Format format_;
  std::string path_;
  std::string temp_path_;  // the sibling, until renamed or removed
  std::fstream out_;
  Header header_ = {};
  std::uint64_t offset_ = 0;
  bool finished_ = false;
  Status status_;
};

}  // namespace container
}  // namespace streamsc

#endif  // STREAMSC_STORAGE_CONTAINER_H_
