#ifndef STREAMSC_DYNAMIC_DELTA_FORMAT_H_
#define STREAMSC_DYNAMIC_DELTA_FORMAT_H_

#include <cstddef>
#include <cstdint>

#include "storage/binary_format.h"
#include "util/common.h"
#include "util/status.h"

/// \file delta_format.h
/// The "sscd1" on-disk delta-log format: an append-only mutation journal
/// over a base instance (an sscb1 file, an ssc1 text file, or an
/// in-memory SetSystem). A file is
///
///   [FileHeader | Record | Record | ...]
///
/// where each record is a fixed 24-byte RecordHeader followed by an
/// 8-byte-aligned payload in the *same representation rules as sscb1*
/// (storage/binary_format.h): dense = ceil(n/64) little-endian u64 words
/// with zero tail bits, sparse = count sorted duplicate-free u32 ids
/// zero-padded to the next 8-byte boundary. All integers little-endian;
/// the header, the mapped open and the writer are the container shared
/// with sscb1 (storage/container.h).
///
/// Slot semantics (the contract OverlaySetStream replays):
///
///   * The base contributes slots 0 .. base_num_sets-1.
///   * kAddSet      appends a new slot (target must be 0).
///   * kRemoveSet   tombstones a currently-live slot (base or appended).
///   * kReplaceSet  swaps a currently-live slot's payload in place.
///
/// The live instance is the slots that are not tombstoned, enumerated in
/// slot order and densely renumbered — exactly the set ids a compacted
/// sscb1 written by OverlaySetStream::Materialize would contain.
///
/// Records are length-prefixed (record_bytes, a multiple of 8 covering
/// header + padded payload), and the file header's record_count and
/// file_size are back-patched by the writer on Finish() — so truncation
/// anywhere, torn trailing records, or a crashed writer are all detected
/// structurally before any payload byte is dereferenced. Every decoder is
/// total in the frame.h style: hostile bytes produce a typed
/// InvalidArgument, never a hang, over-read, or abort.

namespace streamsc {
namespace sscd1 {

/// Magic bytes at offset 0 ("sscd1" + NUL padding).
inline constexpr unsigned char kMagic[8] = {'s', 's', 'c', 'd', '1',
                                            '\0', '\0', '\0'};

/// Current (and only) format version.
inline constexpr std::uint32_t kVersion = 1;

/// Payload alignment, shared with sscb1: every record size is a multiple
/// of this, so payloads (at record offset + 24, with 48 ≡ 24 ≡ 0 mod 8)
/// are always 8-aligned and dense words readable in place.
inline constexpr std::uint64_t kPayloadAlign = sscb1::kPayloadAlign;

/// The cap on n and m0, shared with sscb1.
inline constexpr std::uint64_t kMaxDimension = container::kMaxDimension;

/// The container this format uses (storage/container.h).
inline constexpr container::Format kFormat = {"sscd1", kMagic, kVersion};

/// Mutation kind (RecordHeader::type).
enum RecordType : std::uint16_t {
  kAddSet = 1,      ///< Append a new slot. target == 0; payload present.
  kRemoveSet = 2,   ///< Tombstone a live slot. rep/count 0; no payload.
  kReplaceSet = 3,  ///< Swap a live slot's payload. Payload present.
};

/// The file header is the container's: n must match the base, m is the
/// base's set count (base_num_sets), and the format word is the
/// record_count.
using FileHeader = container::Header;

/// Fixed-size record header; the payload (if any) follows immediately.
struct RecordHeader {
  std::uint32_t record_bytes;  ///< Header + padded payload; multiple of 8.
  std::uint16_t type;          ///< RecordType.
  std::uint16_t rep;           ///< sscb1::Rep; 0 for kRemoveSet.
  std::uint64_t target;        ///< Slot id (kRemoveSet/kReplaceSet); else 0.
  std::uint32_t count;         ///< Member count; 0 for kRemoveSet.
  std::uint32_t reserved;      ///< Zero.
};
static_assert(sizeof(RecordHeader) == 24, "sscd1 record layout drifted");

/// Bytes of a remove record (no payload).
inline constexpr std::uint64_t kRemoveRecordBytes = sizeof(RecordHeader);

/// Structural validation of one record header at byte \p offset of a file
/// of \p file_size bytes under a validated file header: type/rep tags,
/// alignment, count ranges, exact record_bytes arithmetic, and that the
/// whole record lies inside the file. Payload content is checked by
/// sscb1::ValidatePayload; slot liveness needs replay state and lives in
/// DeltaLog.
Status ValidateRecordHeader(const FileHeader& header,
                            const RecordHeader& record, std::uint64_t offset,
                            std::uint64_t file_size,
                            std::uint64_t record_index);

}  // namespace sscd1
}  // namespace streamsc

#endif  // STREAMSC_DYNAMIC_DELTA_FORMAT_H_
