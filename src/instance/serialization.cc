#include "instance/serialization.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/file_probe.h"

namespace streamsc {
namespace {

constexpr char kMagic[] = "ssc1";

}  // namespace

bool Ssc1Reader::NextContentLine() {
  while (std::getline(*in_, line_)) {
    ++line_number_;
    const std::size_t start = line_.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;  // blank
    if (line_[start] == '#') continue;         // comment
    return true;
  }
  return false;
}

Status Ssc1Reader::MalformedAt(const std::string& what) const {
  return Status::InvalidArgument("line " + std::to_string(line_number_) +
                                 ": " + what);
}

Status Ssc1Reader::ReadHeader() {
  if (!NextContentLine()) {
    return Status::InvalidArgument("empty input (missing ssc1 header)");
  }
  row_.clear();
  row_.str(line_);
  std::string magic;
  std::uint64_t n = 0, m = 0;
  if (!(row_ >> magic >> n >> m) || magic != kMagic) {
    return MalformedAt("expected header 'ssc1 <n> <m>', got '" + line_ +
                       "'");
  }
  // Sanity caps: a corrupt header must not drive allocation. 2^31 bits is
  // already a 256 MiB set — far beyond any workload this library targets.
  constexpr std::uint64_t kMaxDimension = std::uint64_t{1} << 31;
  if (n > kMaxDimension || m > kMaxDimension) {
    return MalformedAt("header dimensions exceed 2^31");
  }
  std::string trailing;
  if (row_ >> trailing) return MalformedAt("trailing tokens after header");
  universe_size_ = static_cast<std::size_t>(n);
  num_sets_ = static_cast<std::size_t>(m);
  return Status::Ok();
}

Status Ssc1Reader::ReadSet(DynamicBitset* set) {
  STREAMSC_DCHECK(sets_read_ < num_sets_ && set->size() == universe_size_);
  if (!NextContentLine()) {
    return Status::InvalidArgument("expected " + std::to_string(num_sets_) +
                                   " set lines, got " +
                                   std::to_string(sets_read_));
  }
  row_.clear();
  row_.str(line_);
  std::uint64_t k = 0;
  if (!(row_ >> k)) return MalformedAt("expected '<k> <elements...>'");
  set->Clear();
  bool duplicate = false;
  for (std::uint64_t i = 0; i < k; ++i) {
    std::uint64_t e = 0;
    if (!(row_ >> e)) {
      return MalformedAt("set declares " + std::to_string(k) +
                         " elements but lists fewer");
    }
    if (e >= universe_size_) {
      return MalformedAt("element " + std::to_string(e) +
                         " out of range for universe " +
                         std::to_string(universe_size_));
    }
    const std::size_t element = static_cast<std::size_t>(e);
    if (set->Test(element)) duplicate = true;
    set->Set(element);
  }
  std::string trailing;
  if (row_ >> trailing) {
    return MalformedAt("trailing tokens after set elements");
  }
  if (duplicate) return MalformedAt("duplicate elements in set line");
  ++sets_read_;
  return Status::Ok();
}

Status Ssc1Reader::ReadEnd() {
  return NextContentLine() ? MalformedAt("trailing content after last set")
                           : Status::Ok();
}

Status OpenSsc1File(const std::string& path, std::ifstream* in) {
  in->close();
  in->clear();
  // Probe before the blocking open: ifstream on an unfed FIFO (or a
  // device node) blocks forever instead of failing. Missing files fall
  // through so the open supplies NotFound.
  const Status probe = ProbeRegularFile(path);
  if (!probe.ok() && probe.code() == StatusCode::kInvalidArgument) {
    return probe;
  }
  in->open(path);
  if (!*in) {
    return Status::NotFound("cannot open '" + path + "' for reading");
  }
  return Status::Ok();
}

void WriteSetSystem(const SetSystem& system, std::ostream& out) {
  out << kMagic << ' ' << system.universe_size() << ' ' << system.num_sets()
      << '\n';
  for (SetId id = 0; id < system.num_sets(); ++id) {
    const std::vector<ElementId> members = system.set(id).ToIndices();
    out << members.size();
    for (ElementId e : members) out << ' ' << e;
    out << '\n';
  }
}

std::string SetSystemToString(const SetSystem& system) {
  std::ostringstream out;
  WriteSetSystem(system, out);
  return out.str();
}

StatusOr<SetSystem> ReadSetSystem(std::istream& in) {
  Ssc1Reader reader(in);
  Status status = reader.ReadHeader();
  if (!status.ok()) return status;
  SetSystem system(reader.universe_size());
  for (std::size_t i = 0; i < reader.num_sets(); ++i) {
    DynamicBitset set(reader.universe_size());
    status = reader.ReadSet(&set);
    if (!status.ok()) return status;
    system.AddSet(std::move(set));
  }
  status = reader.ReadEnd();
  if (!status.ok()) return status;
  return system;
}

StatusOr<SetSystem> SetSystemFromString(const std::string& text) {
  std::istringstream in(text);
  return ReadSetSystem(in);
}

Status SaveSetSystem(const SetSystem& system, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  WriteSetSystem(system, out);
  out.flush();
  if (!out) {
    return Status::Internal("write to '" + path + "' failed");
  }
  return Status::Ok();
}

StatusOr<SetSystem> LoadSetSystem(const std::string& path) {
  std::ifstream in;
  const Status opened = OpenSsc1File(path, &in);
  if (!opened.ok()) return opened;
  return ReadSetSystem(in);
}

}  // namespace streamsc
