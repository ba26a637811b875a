#include "storage/mmap_set_stream.h"

#include <bit>
#include <cstring>

#include "util/check.h"

namespace streamsc {

using sscb1::FileHeader;
using sscb1::SetIndexEntry;

MmapSetStream::MmapSetStream(const std::string& path) {
  status_ = Load(path);
  if (!status_.ok()) {
    // Leave a well-defined empty stream so accidental use without a
    // status check streams nothing instead of reading junk.
    universe_size_ = 0;
    sets_.clear();
    sparse_sets_ = 0;
  }
}

Status MmapSetStream::Load(const std::string& path) {
  const StatusOr<container::Header> mapped =
      container::OpenMapped(sscb1::kFormat, path, &file_);
  if (!mapped.ok()) return mapped.status();
  const auto header = std::bit_cast<FileHeader>(*mapped);
  const std::size_t m = static_cast<std::size_t>(header.num_sets);
  // The index starts 8-aligned past the header and ends at the file's end.
  if (header.index_offset < sizeof(FileHeader) ||
      header.index_offset % sscb1::kPayloadAlign != 0 ||
      header.index_offset > header.file_size ||
      header.file_size - header.index_offset != m * sizeof(SetIndexEntry)) {
    return sscb1::kFormat.Malformed(
        "index placement invalid (truncated index?)");
  }
  universe_size_ = static_cast<std::size_t>(header.universe_size);
  sets_.reserve(m);

  // The whole index is copied and checked before any payload is read:
  // interleaving index and payload reads made a 60 MB sparse open about
  // 10% slower.
  std::vector<SetIndexEntry> entries(m);
  if (m > 0) {
    std::memcpy(entries.data(), file_.data() + header.index_offset,
                m * sizeof(SetIndexEntry));
  }
  for (std::size_t id = 0; id < m; ++id) {
    const Status status = sscb1::ValidateIndexEntry(header, entries[id], id);
    if (!status.ok()) return status;
  }
  for (std::size_t id = 0; id < m; ++id) {
    const SetIndexEntry& entry = entries[id];
    const sscb1::PayloadCheck check = sscb1::ValidatePayload(
        file_.data() + entry.offset, entry.rep, entry.count, universe_size_);
    if (check.error != nullptr) {
      return sscb1::kFormat.Malformed("set " + std::to_string(id) + ": " +
                                      check.error);
    }
    sets_.push_back(check.view);
    if (entry.rep == sscb1::kSparse) ++sparse_sets_;
  }
  return Status::Ok();
}

void MmapSetStream::BeginPass() {
  cursor_ = 0;
  ++passes_;
}

bool MmapSetStream::Next(StreamItem* item) {
  STREAMSC_DCHECK(passes_ > 0 && "BeginPass() before Next()");
  if (cursor_ >= sets_.size()) return false;
  const SetId id = static_cast<SetId>(cursor_++);
  item->id = id;
  item->set = set(id);
  return true;
}

SetView MmapSetStream::set(SetId id) const {
  STREAMSC_CHECK(status_.ok() && id < sets_.size(),
                 "MmapSetStream::set: invalid stream or id");
  return sets_[id];
}

}  // namespace streamsc
