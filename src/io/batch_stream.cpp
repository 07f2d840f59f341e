#include "io/batch_stream.hpp"

#include <utility>

#include "obs/metrics.hpp"

namespace jem::io {

BatchStream::BatchStream(std::istream& in, std::size_t batch_size)
    : reader_(in), batch_size_(batch_size == 0 ? 1 : batch_size) {}

std::uint64_t BatchStream::skip(std::uint64_t batches) {
  std::uint64_t records = 0;
  for (std::uint64_t b = 0; b < batches; ++b) {
    SequenceSet reads = reader_.next_batch(batch_size_);
    if (reads.empty()) break;
    records += reads.size();
    ++batches_read_;  // the skipped batch consumes its index
    ++batches_skipped_;
  }
  return records;
}

bool BatchStream::next(ReadBatch& batch) {
  const std::uint64_t first = reader_.records_read();
  SequenceSet reads = reader_.next_batch(batch_size_);
  if (reads.empty()) return false;
  batch.index = batches_read_++;
  batch.first_record = first;
  batch.reads = std::move(reads);
  obs::default_registry().counter("io.batch.read").add(1);
  return true;
}

}  // namespace jem::io
