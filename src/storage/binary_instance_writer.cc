#include "storage/binary_instance_writer.h"

#include "stream/stream_adapters.h"

namespace streamsc {

using sscb1::SetIndexEntry;

BinaryInstanceWriter::BinaryInstanceWriter(const std::string& path,
                                           std::size_t universe_size,
                                           std::size_t num_sets,
                                           double sparsity_threshold)
    : file_(sscb1::kFormat, path, universe_size, num_sets,
            container::FileWriter::Mode::kCreate),
      encoder_(sparsity_threshold) {
  if (file_.status().ok()) index_.reserve(num_sets);
}

Status BinaryInstanceWriter::AddSet(SetView set) {
  if (!set.valid() || set.size() != file_.header().universe_size) {
    return file_.Fail(sscb1::kFormat.Malformed(
        "set universe size mismatches the file header"));
  }
  if (index_.size() >= file_.header().num_sets) {
    return file_.Fail(Status::FailedPrecondition(
        "sscb1: more AddSet calls than the declared set count"));
  }
  const sscb1::PayloadShape shape = encoder_.Shape(set);
  const SetIndexEntry entry = {file_.offset(), shape.count, shape.rep, 0};
  if (encoder_.Write(set, shape, file_)) index_.push_back(entry);
  return file_.status();
}

Status BinaryInstanceWriter::Finish() {
  if (!file_.status().ok() || file_.finished()) return file_.status();
  if (index_.size() != file_.header().num_sets) {
    return file_.Fail(Status::FailedPrecondition(
        "sscb1: Finish after " + std::to_string(index_.size()) +
        " AddSet calls; header declares " +
        std::to_string(file_.header().num_sets)));
  }
  const std::uint64_t index_offset = file_.offset();
  if (!file_.Write(index_.data(), index_.size() * sizeof(SetIndexEntry))) {
    return file_.status();
  }
  return file_.Finish(index_offset);
}

Status BinaryInstanceWriter::WriteSystem(const SetSystem& system,
                                         const std::string& path) {
  BinaryInstanceWriter writer(path, system.universe_size(), system.num_sets());
  for (SetId id = 0; id < system.num_sets() && writer.status().ok(); ++id) {
    writer.AddSet(system.set(id));
  }
  return writer.Finish();
}

Status BinaryInstanceWriter::TranscodeText(const std::string& text_path,
                                           const std::string& binary_path) {
  FileSetStream source(text_path);
  if (!source.status().ok()) return source.status();
  BinaryInstanceWriter writer(binary_path, source.universe_size(),
                              source.num_sets());
  source.BeginPass();
  StreamItem item;
  while (writer.status().ok() && source.Next(&item)) writer.AddSet(item.set);
  // A clean end-of-stream and a mid-file parse error both end the pass;
  // only the stream's status tells them apart.
  if (!source.status().ok()) return source.status();
  return writer.Finish();
}

}  // namespace streamsc
