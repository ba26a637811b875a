#include "dynamic/delta_log.h"

#include <cstring>
#include <utility>

#include "util/check.h"

namespace streamsc {

using sscd1::FileHeader;
using sscd1::RecordHeader;

// ---------------------------------------------------------------------------
// DeltaLog (reader)

DeltaLog::DeltaLog(const std::string& path) {
  status_ = Load(path);
  if (!status_.ok()) {
    // Leave a well-defined empty log so accidental use without a status
    // check replays nothing instead of reading junk.
    universe_size_ = 0;
    base_num_sets_ = 0;
    record_count_ = 0;
    touched_base_.clear();
    appended_.clear();
    payloads_.clear();
  }
}

const DeltaLog::Slot& DeltaLog::SlotRef(std::uint64_t slot) const {
  if (slot >= base_num_sets_) {
    return appended_[static_cast<std::size_t>(slot - base_num_sets_)];
  }
  static const Slot kUntouchedBase{};
  const auto it = touched_base_.find(slot);
  return it == touched_base_.end() ? kUntouchedBase : it->second;
}

DeltaLog::Slot& DeltaLog::MutableSlot(std::uint64_t slot) {
  if (slot >= base_num_sets_) {
    return appended_[static_cast<std::size_t>(slot - base_num_sets_)];
  }
  // Default-inserts the untouched-base state (live, version 0) on the
  // first record that touches a base slot.
  return touched_base_[slot];
}

std::vector<std::uint64_t> DeltaLog::TombstonedSlots() const {
  std::vector<std::uint64_t> dead;
  for (const auto& [slot, state] : touched_base_) {
    if (!state.live) dead.push_back(slot);
  }
  for (std::size_t i = 0; i < appended_.size(); ++i) {
    if (!appended_[i].live) dead.push_back(base_num_sets_ + i);
  }
  return dead;
}

Status DeltaLog::Load(const std::string& path) {
  const StatusOr<FileHeader> mapped =
      container::OpenMapped(sscd1::kFormat, path, &file_);
  if (!mapped.ok()) return mapped.status();
  const FileHeader& header = *mapped;
  // Every record is at least 24 bytes, so a hostile count cannot drive
  // the replay loop past the mapped bytes.
  if (header.format_word >
      (header.file_size - sizeof(FileHeader)) / sizeof(RecordHeader)) {
    return sscd1::kFormat.Malformed(
        "record count exceeds what the file could hold");
  }

  // No allocation keyed on base_num_sets_: the claim is not backed by any
  // bytes of this file (unlike sscb1's offset table), so a hostile header
  // must not be able to drive a giant slot-table reservation. Slots
  // materialize lazily as records touch them.
  universe_size_ = static_cast<std::size_t>(header.universe_size);
  base_num_sets_ = header.num_sets;
  record_count_ = header.format_word;

  std::uint64_t offset = sizeof(FileHeader);
  for (std::uint64_t i = 0; i < record_count_; ++i) {
    const auto fail = [i](const std::string& what) {
      return sscd1::kFormat.Malformed("record " + std::to_string(i) + ": " +
                                      what);
    };
    if (file_.size() - offset < sizeof(RecordHeader)) {
      return fail("record overruns the file (truncated?)");
    }
    RecordHeader record;
    std::memcpy(&record, file_.data() + offset, sizeof(record));
    const Status status = sscd1::ValidateRecordHeader(
        header, record, offset, file_.size(), i);
    if (!status.ok()) return status;

    switch (static_cast<sscd1::RecordType>(record.type)) {
      case sscd1::kRemoveSet: {
        if (record.target >= num_slots() || !slot_live(record.target)) {
          return fail("removes a dead or out-of-range slot " +
                      std::to_string(record.target));
        }
        MutableSlot(record.target).live = false;
        break;
      }
      case sscd1::kAddSet:
      case sscd1::kReplaceSet: {
        const sscb1::PayloadCheck check = sscb1::ValidatePayload(
            file_.data() + offset + sizeof(record), record.rep, record.count,
            universe_size_);
        if (check.error != nullptr) return fail(check.error);
        Slot slot;
        slot.from_delta = true;
        slot.payload = static_cast<std::uint32_t>(payloads_.size());
        slot.version = i + 1;
        payloads_.push_back(check.view);
        if (record.type == sscd1::kAddSet) {
          appended_.push_back(slot);
        } else {
          if (record.target >= num_slots() || !slot_live(record.target)) {
            return fail("replaces a dead or out-of-range slot " +
                        std::to_string(record.target));
          }
          MutableSlot(record.target) = slot;
        }
        break;
      }
      default:
        // Unreachable: ValidateRecordHeader rejects unknown types.
        return fail("unknown record type");
    }
    offset += record.record_bytes;
  }
  if (offset != file_.size()) {
    return sscd1::kFormat.Malformed("trailing bytes after the last record");
  }
  return Status::Ok();
}

SetView DeltaLog::slot_view(std::uint64_t slot) const {
  STREAMSC_CHECK(status_.ok() && slot < num_slots() && slot_from_delta(slot),
                 "DeltaLog::slot_view: invalid log, slot, or base-backed "
                 "slot");
  return payloads_[SlotRef(slot).payload];
}

// ---------------------------------------------------------------------------
// DeltaLogWriter

DeltaLogWriter::DeltaLogWriter(const std::string& path,
                               std::size_t universe_size,
                               std::size_t base_num_sets,
                               double sparsity_threshold)
    : file_(sscd1::kFormat, path, universe_size, base_num_sets,
            container::FileWriter::Mode::kCreate),
      encoder_(sparsity_threshold),
      num_slots_(base_num_sets) {}

DeltaLogWriter::DeltaLogWriter(const std::string& path,
                               double sparsity_threshold)
    : DeltaLogWriter(path, DeltaLog(path), sparsity_threshold) {}

DeltaLogWriter::DeltaLogWriter(const std::string& path,
                               const DeltaLog& existing,
                               double sparsity_threshold)
    : file_(sscd1::kFormat, path, existing.universe_size(),
            existing.base_num_sets(), container::FileWriter::Mode::kAppend),
      encoder_(sparsity_threshold),
      record_count_(existing.record_count()),
      num_slots_(existing.num_slots()) {
  // The full reader replay runs before the open: append mode refuses to
  // extend a log it could not itself read back, and the replay hands us
  // the liveness state the new records must be validated against.
  if (!existing.status().ok()) {
    file_.Fail(existing.status());
    return;
  }
  const std::vector<std::uint64_t> dead = existing.TombstonedSlots();
  dead_.insert(dead.begin(), dead.end());
}

Status DeltaLogWriter::WritePayloadRecord(sscd1::RecordType type,
                                          std::uint64_t target, SetView set) {
  if (!set.valid() || set.size() != universe_size()) {
    return file_.Fail(sscd1::kFormat.Malformed(
        "set universe size mismatches the log header"));
  }
  const sscb1::PayloadShape shape = encoder_.Shape(set);
  RecordHeader record = {};
  record.type = static_cast<std::uint16_t>(type);
  record.rep = shape.rep;
  record.target = target;
  record.count = shape.count;
  record.record_bytes =
      static_cast<std::uint32_t>(sizeof(RecordHeader) + shape.bytes);
  if (file_.Write(&record, sizeof(record)) &&
      encoder_.Write(set, shape, file_)) {
    ++record_count_;
  }
  return file_.status();
}

Status DeltaLogWriter::AddSet(SetView set) {
  const Status written = WritePayloadRecord(sscd1::kAddSet, 0, set);
  if (written.ok()) ++num_slots_;
  return written;
}

Status DeltaLogWriter::CheckTarget(const char* op, std::uint64_t slot) {
  if (slot >= num_slots_ || dead_.count(slot) != 0) {
    return file_.Fail(sscd1::kFormat.Malformed(
        std::string(op) + " of dead or out-of-range slot " +
        std::to_string(slot)));
  }
  return file_.status();
}

Status DeltaLogWriter::RemoveSet(std::uint64_t slot) {
  const Status target = CheckTarget("RemoveSet", slot);
  if (!target.ok()) return target;
  RecordHeader record = {};
  record.type = sscd1::kRemoveSet;
  record.target = slot;
  record.record_bytes = static_cast<std::uint32_t>(sscd1::kRemoveRecordBytes);
  if (file_.Write(&record, sizeof(record))) {
    ++record_count_;
    dead_.insert(slot);
  }
  return file_.status();
}

Status DeltaLogWriter::ReplaceSet(std::uint64_t slot, SetView set) {
  const Status target = CheckTarget("ReplaceSet", slot);
  if (!target.ok()) return target;
  return WritePayloadRecord(sscd1::kReplaceSet, slot, set);
}

Status DeltaLogWriter::Finish() { return file_.Finish(record_count_); }

}  // namespace streamsc
