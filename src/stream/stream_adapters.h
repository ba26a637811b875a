#ifndef STREAMSC_STREAM_STREAM_ADAPTERS_H_
#define STREAMSC_STREAM_STREAM_ADAPTERS_H_

#include <cstdint>
#include <fstream>
#include <string>

#include "instance/serialization.h"
#include "stream/set_stream.h"
#include "util/status.h"

/// \file stream_adapters.h
/// External-storage stream adapter: FileSetStream re-parses an ssc1 file
/// every pass, holding one set in memory at a time — a genuinely
/// o(mn)-memory stream source, which keeps the streaming algorithms honest
/// about what they retain.

namespace streamsc {

/// Streams an ssc1 file (see instance/serialization.h), re-reading it on
/// every pass through Ssc1Reader, so it accepts exactly the documents
/// LoadSetSystem accepts and reports the same errors. Holds exactly one
/// set in memory at a time.
///
/// Error contract: the constructor parses the whole document once, so an
/// ok status() means every set line and the end of the file are valid —
/// whatever point an algorithm stops reading at. A stream whose open
/// failed serves no items. Later failures — the file deleted, truncated
/// or reshaped between passes — STREAMSC_CHECK-abort in all build modes:
/// silently ending a re-read early would hand the algorithm a different
/// instance than the one it already half-processed.
class FileSetStream : public SetStream {
 public:
  /// Opens \p path and validates the whole document in one pass; check
  /// status() before streaming.
  explicit FileSetStream(std::string path);

  /// Not copyable (owns a file handle position).
  FileSetStream(const FileSetStream&) = delete;
  FileSetStream& operator=(const FileSetStream&) = delete;

  /// Ok iff the file opened and the whole document parsed.
  const Status& status() const { return status_; }

  std::size_t universe_size() const override {
    return reader_.universe_size();
  }
  std::size_t num_sets() const override { return reader_.num_sets(); }
  void BeginPass() override;
  bool Next(StreamItem* item) override;
  std::uint64_t passes() const override { return passes_; }
  // Holds exactly one set at a time: each Next() invalidates the previous
  // item's view, so a pass can never be buffered.
  bool ItemsRemainValid() const override { return false; }

 private:
  // (Re)opens the file and positions the cursor after the header.
  Status Reopen();

  std::string path_;
  Status status_;
  std::ifstream in_;
  Ssc1Reader reader_{in_};
  DynamicBitset current_;
  SetId next_id_ = 0;
  std::uint64_t passes_ = 0;
};

}  // namespace streamsc

#endif  // STREAMSC_STREAM_STREAM_ADAPTERS_H_
