#include "dynamic/delta_format.h"

#include <cstring>
#include <string>

namespace streamsc {
namespace sscd1 {
namespace {

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("sscd1: " + what);
}

}  // namespace

Status ValidateHeader(const FileHeader& header, std::uint64_t actual_size) {
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Malformed("bad magic (not an sscd1 delta log)");
  }
  if (header.version != kVersion) {
    return Malformed("unsupported version " + std::to_string(header.version));
  }
  if (header.reserved != 0) return Malformed("nonzero reserved header field");
  if (header.universe_size > kMaxDimension ||
      header.base_num_sets > kMaxDimension) {
    return Malformed("header dimensions exceed 2^31");
  }
  // record_count is bounded by what could physically fit: every record is
  // at least 24 bytes. A hostile count can therefore never drive the
  // replay loop past the mapped bytes.
  if (header.record_count >
      (actual_size < sizeof(FileHeader)
           ? 0
           : (actual_size - sizeof(FileHeader)) / sizeof(RecordHeader))) {
    return Malformed("record count exceeds what the file could hold");
  }
  if (header.file_size != actual_size) {
    return Malformed("file size mismatch: header says " +
                     std::to_string(header.file_size) + " bytes, file has " +
                     std::to_string(actual_size) +
                     " (truncated or torn write)");
  }
  return Status::Ok();
}

Status ValidateRecordHeader(const FileHeader& header,
                            const RecordHeader& record, std::uint64_t offset,
                            std::uint64_t file_size,
                            std::uint64_t record_index) {
  const auto fail = [record_index](const std::string& what) {
    return Malformed("record " + std::to_string(record_index) + ": " + what);
  };
  if (record.reserved != 0) return fail("nonzero reserved record field");
  if (record.record_bytes < sizeof(RecordHeader) ||
      record.record_bytes % kPayloadAlign != 0) {
    return fail("record length " + std::to_string(record.record_bytes) +
                " is not a multiple of 8 covering the header");
  }
  if (offset > file_size || file_size - offset < record.record_bytes) {
    return fail("record overruns the file (truncated?)");
  }
  std::uint64_t expected_bytes = 0;
  switch (record.type) {
    case kAddSet:
    case kReplaceSet: {
      if (record.rep != sscb1::kDense && record.rep != sscb1::kSparse) {
        return fail("unknown representation tag " +
                    std::to_string(record.rep));
      }
      if (record.count > header.universe_size) {
        return fail("count exceeds universe size");
      }
      if (record.type == kAddSet && record.target != 0) {
        return fail("add record with nonzero target slot");
      }
      expected_bytes = sizeof(RecordHeader) +
                       sscb1::PayloadBytes(record.rep, header.universe_size,
                                           record.count);
      break;
    }
    case kRemoveSet: {
      if (record.rep != 0 || record.count != 0) {
        return fail("remove record carries a payload shape");
      }
      expected_bytes = kRemoveRecordBytes;
      break;
    }
    default:
      return fail("unknown record type " + std::to_string(record.type));
  }
  if (record.record_bytes != expected_bytes) {
    return fail("record length " + std::to_string(record.record_bytes) +
                " != expected " + std::to_string(expected_bytes) +
                " for its type/representation");
  }
  return Status::Ok();
}

}  // namespace sscd1
}  // namespace streamsc
