#ifndef STREAMSC_STORAGE_BINARY_FORMAT_H_
#define STREAMSC_STORAGE_BINARY_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/container.h"
#include "util/common.h"
#include "util/set_view.h"
#include "util/status.h"

/// \file binary_format.h
/// The "sscb1" on-disk binary instance format: the mmap-friendly sibling
/// of the ssc1 text format (instance/serialization.h). A file is
///
///   [FileHeader | set payloads ... | SetIndexEntry x m]
///
/// with every payload 8-byte aligned so dense words can be read in place
/// as std::uint64_t and sparse ids as std::uint32_t, directly out of a
/// read-only mapping. All integers are little-endian; the header, the
/// mapped open and the writer are the container shared with sscd1
/// (storage/container.h).
///
/// Per set, the payload is one of two representations, chosen by the same
/// 1/32 density rule as SetSystem's hybrid store:
///
///   kDense  — ceil(n/64) 64-bit words, tail bits beyond n zero.
///   kSparse — count sorted, duplicate-free 32-bit element ids, zero-padded
///             to the next 8-byte boundary.
///
/// The sscd1 delta log (dynamic/delta_format.h) stores its payloads under
/// the same rules, so PayloadEncoder and ValidatePayload below are the one
/// writer and the one checker of set payloads for both formats.
///
/// The index lives at the *end* of the file (header field index_offset)
/// so a writer can stream payloads without knowing their sizes up front,
/// then append the index and patch the header. file_size in the header
/// makes truncation detectable before any payload is dereferenced.

namespace streamsc {
namespace sscb1 {

/// Magic bytes at offset 0 ("sscb1" + NUL padding).
inline constexpr unsigned char kMagic[8] = {'s', 's', 'c', 'b', '1',
                                            '\0', '\0', '\0'};

/// Current (and only) format version.
inline constexpr std::uint32_t kVersion = 1;

/// Payload alignment; every set payload offset is a multiple of this.
inline constexpr std::uint64_t kPayloadAlign = 8;

/// The container this format uses (storage/container.h).
inline constexpr container::Format kFormat = {"sscb1", kMagic, kVersion};

/// Set payload representation tag (SetIndexEntry::rep).
enum Rep : std::uint16_t {
  kDense = 0,   ///< ceil(n/64) x u64 words.
  kSparse = 1,  ///< count x u32 sorted ids, padded to 8 bytes.
};

/// Fixed-size file header at offset 0.
struct FileHeader {
  unsigned char magic[8];      ///< kMagic.
  std::uint32_t version;       ///< kVersion.
  std::uint32_t reserved;      ///< Zero.
  std::uint64_t universe_size; ///< n.
  std::uint64_t num_sets;      ///< m.
  std::uint64_t index_offset;  ///< Byte offset of the SetIndexEntry array.
  std::uint64_t file_size;     ///< Total file size in bytes.
};
static_assert(sizeof(FileHeader) == sizeof(container::Header),
              "sscb1 header layout drifted");

/// One per set, in SetId order, at index_offset.
struct SetIndexEntry {
  std::uint64_t offset;   ///< Payload byte offset from file start (8-aligned).
  std::uint32_t count;    ///< Number of member elements.
  std::uint16_t rep;      ///< Rep tag.
  std::uint16_t reserved; ///< Zero.
};
static_assert(sizeof(SetIndexEntry) == 16, "sscb1 index layout drifted");

/// Bytes of a \p rep payload of \p count ids over a universe of \p n
/// bits: ceil(n/64) words if dense, else count ids plus the padding to
/// the next 8-byte boundary.
constexpr std::uint64_t PayloadBytes(std::uint16_t rep, std::uint64_t n,
                                     std::uint64_t count) {
  const std::uint64_t raw = rep == kDense
                                ? (n + 63) / 64 * sizeof(std::uint64_t)
                                : count * sizeof(std::uint32_t);
  return (raw + kPayloadAlign - 1) / kPayloadAlign * kPayloadAlign;
}

/// Structural validation of one index entry against a validated header:
/// representation tag, alignment, count range, and that the payload lies
/// entirely inside [header size, index_offset).
Status ValidateIndexEntry(const FileHeader& header, const SetIndexEntry& entry,
                          std::size_t set_id);

/// How one set is stored: what its index entry or record header records.
struct PayloadShape {
  Rep rep = kDense;
  std::uint32_t count = 0;
  std::uint64_t bytes = 0;  ///< PayloadBytes(rep, n, count).
};

/// Writes set payloads (sscb1 and sscd1 alike). Reuses one id buffer
/// across sets.
class PayloadEncoder {
 public:
  /// A set is stored sparse iff its count < \p sparsity_threshold * n,
  /// the same rule as SetSystem.
  explicit PayloadEncoder(double sparsity_threshold)
      : sparsity_threshold_(sparsity_threshold) {}

  /// The representation, count and payload size \p set is stored with.
  PayloadShape Shape(SetView set) const;

  /// Writes \p set's payload in \p shape (from Shape(set)) to \p out:
  /// the dense words, or the sorted ids plus zero padding. Returns false
  /// iff \p out has failed.
  bool Write(SetView set, const PayloadShape& shape,
             container::FileWriter& out);

 private:
  double sparsity_threshold_;
  std::vector<ElementId> scratch_ids_;
};

/// Result of ValidatePayload: the payload as a view, or why it is bad.
struct PayloadCheck {
  SetView view;                  ///< Valid iff error is null.
  const char* error = nullptr;   ///< Static reason text on failure.
};

/// Checks the content of one payload of \p count elements stored as
/// \p rep over a universe of \p universe_size bits. Dense: tail bits
/// beyond n are zero and the popcount equals count. Sparse: ids are in
/// range and strictly increasing, and the padding is zero. The caller has
/// already checked that the PayloadBytes() bytes at \p payload lie inside
/// the file and are 8-byte aligned. No string is built: the caller adds
/// its location to the reason only on failure.
PayloadCheck ValidatePayload(const std::byte* payload, std::uint16_t rep,
                             std::uint32_t count, std::size_t universe_size);

/// True iff \p path is a regular file starting with the 8 bytes of
/// \p magic (the format sniff for sscb1 and sscd1). Probes before the
/// blocking open, so a FIFO path answers false at once.
bool FileHasMagic(const std::string& path, const unsigned char (&magic)[8]);

}  // namespace sscb1
}  // namespace streamsc

#endif  // STREAMSC_STORAGE_BINARY_FORMAT_H_
