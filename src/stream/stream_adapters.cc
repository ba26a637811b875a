#include "stream/stream_adapters.h"

#include "util/check.h"

namespace streamsc {

// ---- FileSetStream ---------------------------------------------------------

FileSetStream::FileSetStream(std::string path) : path_(std::move(path)) {
  // The validating pass: every later pass re-reads a file already known
  // to be whole, so an algorithm that stops early cannot hide a defect.
  status_ = Reopen();
  for (SetId id = 0; status_.ok() && id < num_sets(); ++id) {
    status_ = reader_.ReadSet(&current_);
  }
  if (status_.ok()) status_ = reader_.ReadEnd();
  // BeginPass() re-opens.
  in_.close();
}

Status FileSetStream::Reopen() {
  next_id_ = 0;
  reader_ = Ssc1Reader(in_);
  const Status opened = OpenSsc1File(path_, &in_);
  if (!opened.ok()) return opened;
  const Status header = reader_.ReadHeader();
  current_ = DynamicBitset(reader_.universe_size());
  return header;
}

void FileSetStream::BeginPass() {
  ++passes_;
  if (!status_.ok()) return;
  // The file was whole at open: it vanishing or changing shape since is
  // an environment fault no algorithm can recover from mid-run, so it
  // fails loudly (in all build modes) instead of silently streaming a
  // different instance.
  const std::size_t prev_universe = universe_size();
  const std::size_t prev_sets = num_sets();
  const Status reopened = Reopen();
  STREAMSC_CHECK(reopened.ok(),
                 "FileSetStream: file became unreadable between passes");
  STREAMSC_CHECK(
      universe_size() == prev_universe && num_sets() == prev_sets,
      "FileSetStream: file dimensions changed between passes");
}

bool FileSetStream::Next(StreamItem* item) {
  if (!status_.ok() || next_id_ >= num_sets()) return false;
  Status parsed = reader_.ReadSet(&current_);
  if (parsed.ok() && next_id_ + 1 == num_sets()) parsed = reader_.ReadEnd();
  // The document parsed whole at open, so a parse error now means the
  // file was truncated or modified under the multi-pass run.
  STREAMSC_CHECK(parsed.ok(),
                 "FileSetStream: file truncated or modified between passes");
  item->id = next_id_++;
  item->set = SetView(current_);
  return true;
}

}  // namespace streamsc
