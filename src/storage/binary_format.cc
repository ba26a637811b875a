#include "storage/binary_format.h"

#include <cstring>
#include <fstream>
#include <string>

#include "util/bitset.h"
#include "util/file_probe.h"

namespace streamsc {
namespace sscb1 {

Status ValidateIndexEntry(const FileHeader& header, const SetIndexEntry& entry,
                          std::size_t set_id) {
  const auto fail = [set_id](const std::string& what) {
    return kFormat.Malformed("set " + std::to_string(set_id) + ": " + what);
  };
  if (entry.rep != kDense && entry.rep != kSparse) {
    return fail("unknown representation tag " + std::to_string(entry.rep));
  }
  if (entry.reserved != 0) return fail("nonzero reserved index field");
  if (entry.count > header.universe_size) {
    return fail("count exceeds universe size");
  }
  if (entry.offset % kPayloadAlign != 0) {
    return fail("payload offset not 8-byte aligned");
  }
  const std::uint64_t payload_bytes =
      PayloadBytes(entry.rep, header.universe_size, entry.count);
  if (entry.offset < sizeof(FileHeader) ||
      entry.offset > header.index_offset ||
      header.index_offset - entry.offset < payload_bytes) {
    return fail("payload out of range");
  }
  return Status::Ok();
}

PayloadShape PayloadEncoder::Shape(SetView set) const {
  const Count count = set.CountSet();
  const Rep rep = static_cast<double>(count) <
                          sparsity_threshold_ * static_cast<double>(set.size())
                      ? kSparse
                      : kDense;
  return {rep, static_cast<std::uint32_t>(count),
          PayloadBytes(rep, set.size(), count)};
}

bool PayloadEncoder::Write(SetView set, const PayloadShape& shape,
                           container::FileWriter& out) {
  if (shape.rep == kSparse) {
    scratch_ids_.clear();
    set.ForEach([&](ElementId e) { scratch_ids_.push_back(e); });
    const std::uint64_t raw = scratch_ids_.size() * sizeof(ElementId);
    const std::uint64_t zero = 0;
    return out.Write(scratch_ids_.data(), raw) &&
           out.Write(&zero, shape.bytes - raw);
  }
  if (const DenseSpan* words = set.dense_span()) {
    return out.Write(words->WordData(), words->ByteSize());
  }
  // Sparse-represented set dense enough to store dense: materialize once.
  const DynamicBitset dense = set.ToDense();
  return out.Write(dense.WordData(), dense.ByteSize());
}

PayloadCheck ValidatePayload(const std::byte* payload, std::uint16_t rep,
                             std::uint32_t count, std::size_t universe_size) {
  using Word = DynamicBitset::Word;
  if (rep == kDense) {
    const Word* words = reinterpret_cast<const Word*>(payload);
    // Tail invariant: bits beyond n must be zero, or CountSet /
    // projection results would silently include phantom elements.
    if (universe_size % 64 != 0 &&
        (words[universe_size / 64] & (~Word{0} << (universe_size % 64)))) {
      return {{}, "dense tail bits beyond the universe are set"};
    }
    const DenseSpan span(words, universe_size);
    if (span.CountSet() != count) {
      return {{}, "payload popcount mismatches the declared count"};
    }
    return {span};
  }
  // Sorted, unique, in-range: everything SparseSpan's O(k) operations
  // assume. Validating once here is what makes serving the payload
  // verbatim safe.
  const ElementId* ids = reinterpret_cast<const ElementId*>(payload);
  for (std::size_t i = 0; i < count; ++i) {
    if (ids[i] >= universe_size) return {{}, "element out of range"};
    if (i > 0 && ids[i] <= ids[i - 1]) {
      return {{}, "elements not strictly increasing"};
    }
  }
  // The pad bytes are part of the payload; requiring them zero gives a
  // file exactly one byte representation per logical content.
  for (std::uint64_t b = count * sizeof(ElementId);
       b < PayloadBytes(kSparse, universe_size, count); ++b) {
    if (payload[b] != std::byte{0}) {
      return {{}, "nonzero sparse payload padding"};
    }
  }
  return {SparseSpan(ids, count, universe_size)};
}

bool FileHasMagic(const std::string& path, const unsigned char (&magic)[8]) {
  // Probe before the blocking open: an ifstream open of an unfed FIFO
  // hangs forever, and format sniffing runs before any hardened reader
  // gets a look at the path.
  if (!ProbeRegularFile(path).ok()) return false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  unsigned char head[sizeof(magic)] = {};
  in.read(reinterpret_cast<char*>(head), sizeof(head));
  return in.gcount() == sizeof(head) &&
         std::memcmp(head, magic, sizeof(head)) == 0;
}

}  // namespace sscb1
}  // namespace streamsc
