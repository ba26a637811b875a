#ifndef STREAMSC_STORAGE_BINARY_INSTANCE_WRITER_H_
#define STREAMSC_STORAGE_BINARY_INSTANCE_WRITER_H_

#include <string>
#include <vector>

#include "instance/set_system.h"
#include "storage/binary_format.h"
#include "util/set_view.h"
#include "util/status.h"

/// \file binary_instance_writer.h
/// BinaryInstanceWriter: produces sscb1 files (storage/binary_format.h),
/// either from an in-memory SetSystem or by transcoding an ssc1 text file
/// set-by-set — the transcode path never holds more than one set in
/// memory, so multi-GB instances convert in o(mn) space.
///
/// Streaming protocol: construct with the final (n, m), call AddSet()
/// exactly m times, then Finish(). The writer streams payloads, buffers
/// only the 16-byte index entries (O(m)), and appends the index at the
/// end. Errors are sticky, and the file appears whole, by rename, in
/// Finish() (container::FileWriter, storage/container.h).

namespace streamsc {

/// Incremental sscb1 writer. Not copyable.
class BinaryInstanceWriter {
 public:
  /// Starts a new file for \p path. Check status() before use. Each added
  /// set is stored dense or sparse by \p sparsity_threshold, the same
  /// rule as SetSystem.
  BinaryInstanceWriter(
      const std::string& path, std::size_t universe_size, std::size_t num_sets,
      double sparsity_threshold = SetSystem::kDefaultSparsityThreshold);

  BinaryInstanceWriter(const BinaryInstanceWriter&) = delete;
  BinaryInstanceWriter& operator=(const BinaryInstanceWriter&) = delete;

  /// Ok iff every operation so far succeeded.
  const Status& status() const { return file_.status(); }

  /// Appends the next set's payload. The view's universe must match;
  /// returns the sticky status.
  Status AddSet(SetView set);

  /// Writes the index, patches the header, and renames the file into
  /// place. Must be called after exactly num_sets AddSet() calls.
  Status Finish();

  /// Writes \p system to \p path in one call.
  static Status WriteSystem(const SetSystem& system, const std::string& path);

  /// Transcodes the ssc1 text file at \p text_path to an sscb1 file at
  /// \p binary_path, streaming one set at a time (never materializing the
  /// instance).
  static Status TranscodeText(const std::string& text_path,
                              const std::string& binary_path);

 private:
  container::FileWriter file_;
  sscb1::PayloadEncoder encoder_;
  std::vector<sscb1::SetIndexEntry> index_;
};

}  // namespace streamsc

#endif  // STREAMSC_STORAGE_BINARY_INSTANCE_WRITER_H_
