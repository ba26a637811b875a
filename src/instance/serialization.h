#ifndef STREAMSC_INSTANCE_SERIALIZATION_H_
#define STREAMSC_INSTANCE_SERIALIZATION_H_

#include <iosfwd>
#include <sstream>
#include <string>

#include "instance/set_system.h"
#include "util/bitset.h"
#include "util/status.h"

/// \file serialization.h
/// Text serialization of SetSystem instances, so workloads can be
/// generated once, saved, and replayed across runs/tools (the benches and
/// the streamsc_gen example use this).
///
/// Format ("ssc1"): line-oriented, '#' comments allowed anywhere.
///
///   ssc1 <n> <m>
///   <k> <e_1> <e_2> ... <e_k>     # one line per set, elements ascending
///   ...
///
/// Ssc1Reader is the only parser of the format: ReadSetSystem and the
/// streaming FileSetStream both read through it, so every reader of an
/// ssc1 file accepts and rejects exactly the same documents.

namespace streamsc {

/// Incremental ssc1 parser over a std::istream: the header, then one set
/// line per ReadSet() call, then ReadEnd(). Every rule of the format lives
/// here — n, m <= 2^31; exactly k distinct 0-based ids < n per set line
/// and no trailing tokens; exactly m set lines; only blank and comment
/// lines after the last set. Violations are InvalidArgument with a
/// line-numbered message. Holds one line at a time.
class Ssc1Reader {
 public:
  /// Reads from \p in, which must outlive the reader.
  explicit Ssc1Reader(std::istream& in) : in_(&in) {}

  /// Parses the header line. Call once, first.
  Status ReadHeader();

  /// Universe size n from the header (0 before ReadHeader()).
  std::size_t universe_size() const { return universe_size_; }

  /// Set count m from the header (0 before ReadHeader()).
  std::size_t num_sets() const { return num_sets_; }

  /// Parses the next set line into \p set, overwriting it. Precondition:
  /// set->size() == universe_size(), fewer than num_sets() sets read.
  Status ReadSet(DynamicBitset* set);

  /// Checks that only blank and comment lines follow the last set. Call
  /// after num_sets() successful ReadSet() calls.
  Status ReadEnd();

 private:
  // Reads the next non-comment, non-blank line into line_; false at end
  // of stream.
  bool NextContentLine();
  Status MalformedAt(const std::string& what) const;

  std::istream* in_;
  std::string line_;
  std::istringstream row_;  // reused across lines
  std::size_t line_number_ = 0;
  std::size_t universe_size_ = 0;
  std::size_t num_sets_ = 0;
  std::size_t sets_read_ = 0;
};

/// Opens \p path for ssc1 reading into \p in (closing whatever it held).
/// Probes first (util/file_probe.h): a FIFO, directory or device is an
/// immediate InvalidArgument instead of a blocked open. NotFound if the
/// file cannot be opened.
Status OpenSsc1File(const std::string& path, std::ifstream* in);

/// Writes \p system to \p out. Always succeeds on a good stream.
void WriteSetSystem(const SetSystem& system, std::ostream& out);

/// Serializes to a string (convenience wrapper over WriteSetSystem).
std::string SetSystemToString(const SetSystem& system);

/// Parses a whole "ssc1" document with Ssc1Reader.
StatusOr<SetSystem> ReadSetSystem(std::istream& in);

/// Parses from a string (convenience wrapper over ReadSetSystem).
StatusOr<SetSystem> SetSystemFromString(const std::string& text);

/// Writes \p system to \p path. Returns Internal if the file cannot be
/// opened or written.
Status SaveSetSystem(const SetSystem& system, const std::string& path);

/// Reads a system from \p path. NotFound if unreadable, InvalidArgument
/// if malformed.
StatusOr<SetSystem> LoadSetSystem(const std::string& path);

}  // namespace streamsc

#endif  // STREAMSC_INSTANCE_SERIALIZATION_H_
