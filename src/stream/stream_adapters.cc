#include "stream/stream_adapters.h"

#include "util/check.h"

namespace streamsc {

// ---- FileSetStream ---------------------------------------------------------

FileSetStream::FileSetStream(std::string path) : path_(std::move(path)) {
  Reopen();
  // BeginPass() re-opens; the constructor's open only validates the header.
  in_.close();
}

void FileSetStream::Reopen() {
  next_id_ = 0;
  reader_ = Ssc1Reader(in_);
  status_ = OpenSsc1File(path_, &in_);
  if (!status_.ok()) return;
  status_ = reader_.ReadHeader();
  current_ = DynamicBitset(reader_.universe_size());
  // With no set lines the header is also the last line the document may
  // hold, so the end check happens here rather than in Next().
  if (status_.ok() && reader_.num_sets() == 0) status_ = reader_.ReadEnd();
}

void FileSetStream::BeginPass() {
  // A stream that was healthy on an earlier pass must stay consistent: the
  // file vanishing or changing shape between passes is an environment
  // fault no algorithm can recover from mid-run, so it fails loudly (in
  // all build modes) instead of silently streaming a different instance.
  const bool was_healthy = passes_ > 0 && status_.ok();
  const std::size_t prev_universe = universe_size();
  const std::size_t prev_sets = num_sets();
  Reopen();
  if (was_healthy) {
    STREAMSC_CHECK(status_.ok(),
                   "FileSetStream: file became unreadable between passes");
    STREAMSC_CHECK(
        universe_size() == prev_universe && num_sets() == prev_sets,
        "FileSetStream: file dimensions changed between passes");
  }
  ++passes_;
}

bool FileSetStream::Next(StreamItem* item) {
  if (!status_.ok() || next_id_ >= num_sets()) return false;
  Status parsed = reader_.ReadSet(&current_);
  if (parsed.ok() && next_id_ + 1 == num_sets()) parsed = reader_.ReadEnd();
  if (!parsed.ok()) {
    // Errors on a file no pass has fully parsed yet report through
    // status() (the documented check-before-streaming contract; a pass
    // abandoned early by the algorithm may simply never have reached a
    // statically bad line). Once some pass has streamed all m sets
    // cleanly, though, a parse error can only mean the file was
    // truncated or modified out from under the multi-pass run — ending
    // the stream early would silently feed the algorithm a partial
    // instance; abort instead.
    status_ = std::move(parsed);
    STREAMSC_CHECK(!fully_parsed_once_,
                   "FileSetStream: file truncated or modified between passes");
    return false;
  }
  item->id = next_id_++;
  if (next_id_ == num_sets()) fully_parsed_once_ = true;
  item->set = SetView(current_);
  return true;
}

}  // namespace streamsc
