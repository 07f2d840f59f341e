// BatchStream — chunked FASTA/FASTQ input for the streaming mapping engine.
// Wraps SequenceStreamReader and hands out fixed-size ReadBatch units, each
// carrying its position in the stream so downstream stages can restore global
// ordering (and global read ids) after parallel processing.
#pragma once

#include <cstdint>
#include <istream>

#include "io/sequence.hpp"
#include "io/sequence_set.hpp"
#include "io/stream_reader.hpp"

namespace jem::io {

/// One chunk of the query stream. Read ids inside `reads` are batch-local
/// (0-based); `first_record` is the global index of read 0 of this batch.
struct ReadBatch {
  std::uint64_t index = 0;         // 0-based batch number
  std::uint64_t first_record = 0;  // global index of the batch's first read
  SequenceSet reads;
};

class BatchStream {
 public:
  /// The stream must outlive the BatchStream. `batch_size` is clamped to at
  /// least 1 record per batch.
  BatchStream(std::istream& in, std::size_t batch_size);

  /// Parses the next batch into `batch` (contents overwritten). Returns
  /// false at end of input. Throws ParseError on malformed records.
  [[nodiscard]] bool next(ReadBatch& batch);

  /// Fast-forwards past `batches` batches without delivering them — the
  /// resume path: a journal that says n batches are already durable skips
  /// them here, and the next delivered batch carries index n (indices
  /// continue as if the skipped prefix had been consumed normally). Returns
  /// the number of records skipped; stops early at end of input. Throws
  /// ParseError on malformed records (the skipped prefix is still parsed —
  /// a resume cannot silently jump over undecodable input).
  std::uint64_t skip(std::uint64_t batches);

  [[nodiscard]] std::uint64_t batches_skipped() const noexcept {
    return batches_skipped_;
  }

  [[nodiscard]] std::size_t batch_size() const noexcept { return batch_size_; }
  [[nodiscard]] std::uint64_t batches_read() const noexcept {
    return batches_read_;
  }
  [[nodiscard]] std::uint64_t records_read() const noexcept {
    return reader_.records_read();
  }

 private:
  SequenceStreamReader reader_;
  std::size_t batch_size_;
  std::uint64_t batches_read_ = 0;
  std::uint64_t batches_skipped_ = 0;
};

}  // namespace jem::io
