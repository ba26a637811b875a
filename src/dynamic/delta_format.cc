#include "dynamic/delta_format.h"

#include <string>

namespace streamsc {
namespace sscd1 {

Status ValidateRecordHeader(const FileHeader& header,
                            const RecordHeader& record, std::uint64_t offset,
                            std::uint64_t file_size,
                            std::uint64_t record_index) {
  const auto fail = [record_index](const std::string& what) {
    return kFormat.Malformed("record " + std::to_string(record_index) + ": " +
                             what);
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
