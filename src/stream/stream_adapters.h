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
/// Error contract: problems visible up front (missing file, bad header)
/// and parse errors on a file no pass has yet streamed end to end report
/// through status(). The end of the document is checked when the last set
/// is read (or at open when m = 0), so trailing content fails that read.
/// Once one pass has parsed all m sets cleanly, later failures — file
/// deleted, truncated, or reshaped between passes — STREAMSC_CHECK-abort
/// in all build modes: silently ending a re-read early would hand the
/// algorithm a different instance than the one it already half-processed.
class FileSetStream : public SetStream {
 public:
  /// Opens \p path and validates the header eagerly; check status()
  /// before streaming.
  explicit FileSetStream(std::string path);

  /// Not copyable (owns a file handle position).
  FileSetStream(const FileSetStream&) = delete;
  FileSetStream& operator=(const FileSetStream&) = delete;

  /// Ok iff the file opened and the header parsed.
  const Status& status() const { return status_; }

  /// True once some pass has streamed every set and the end of the
  /// document cleanly (the point after which parse errors abort).
  bool fully_parsed() const { return fully_parsed_once_; }

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
  void Reopen();

  std::string path_;
  Status status_;
  std::ifstream in_;
  Ssc1Reader reader_{in_};
  DynamicBitset current_;
  SetId next_id_ = 0;
  std::uint64_t passes_ = 0;
  // True once some pass parsed all m sets cleanly: from then on parse
  // errors are environment faults (file modified mid-run) and abort.
  bool fully_parsed_once_ = false;
};

}  // namespace streamsc

#endif  // STREAMSC_STREAM_STREAM_ADAPTERS_H_
