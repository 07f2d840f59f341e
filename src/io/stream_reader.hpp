// SequenceStreamReader — incremental FASTA/FASTQ parsing for batch
// processing. The paper's query sets reach 4.4 Gbp; loading them whole
// costs more memory than the sketch table itself. The mapping phase is
// embarrassingly parallel over reads, so the CLI can stream: read a batch,
// map it, emit, discard (jem_map --batch).
//
// This is the one FASTA/FASTQ parser: the whole-file readers in fasta.hpp
// are loops over it. It tolerates multi-line FASTA, CRLF, blank lines and
// lowercase bases (normalised to uppercase, whitespace inside a sequence
// line dropped), and throws ParseError on malformed records.
//
// The stream is read in kChunkBytes chunks through its streambuf, so the
// stream position runs ahead of the last record returned.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <string>
#include <string_view>

#include "io/fasta.hpp"
#include "io/sequence.hpp"
#include "io/sequence_set.hpp"

namespace jem::io {

class SequenceStreamReader {
 public:
  /// Bytes requested from the stream per read; a line longer than this
  /// grows the buffer.
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 18;

  /// The stream must outlive the reader. Format is detected from the first
  /// non-blank byte.
  explicit SequenceStreamReader(std::istream& in);

  enum class Format { kFasta, kFastq, kEmpty };

  /// The detected format; kEmpty for input with no record.
  [[nodiscard]] Format format() const noexcept { return format_; }

  /// Parses the next record into `record` (contents overwritten). Returns
  /// false at end of input. Throws ParseError on malformed input.
  [[nodiscard]] bool next(SequenceRecord& record);

  /// Appends up to `max_records` records (name and bases; FASTQ quality is
  /// checked, not kept) to `out`. Returns how many were appended; 0 signals
  /// end of input.
  std::size_t append_batch(SequenceSet& out, std::size_t max_records);

  /// Reads up to `max_records` records into a fresh SequenceSet; an empty
  /// set signals end of input.
  [[nodiscard]] SequenceSet next_batch(std::size_t max_records);

  /// Records returned so far.
  [[nodiscard]] std::uint64_t records_read() const noexcept {
    return records_read_;
  }

 private:
  static constexpr std::size_t kNoKeep = static_cast<std::size_t>(-1);

  /// The next line without its '\n' or "\r\n". The view is valid until the
  /// next call.
  [[nodiscard]] bool get_line(std::string_view& line);
  /// Moves unread bytes (from keep_, if set) to the front and reads one
  /// more chunk; false at end of input.
  bool fill();

  /// Parses the next record: its header into name_/comment_, then
  /// on_record(bases, quality) with normalised bases (quality is empty for
  /// FASTA). Returns false at end of input.
  template <typename OnRecord>
  bool parse(const OnRecord& on_record);

  std::streambuf* in_;
  std::string buffer_;
  std::size_t pos_ = 0;        // first unread byte of buffer_
  std::size_t end_ = 0;        // end of the bytes read into buffer_
  std::size_t keep_ = kNoKeep;  // fill() keeps bytes from here on
  bool eof_ = false;
  Format format_ = Format::kEmpty;
  std::string name_;
  std::string comment_;
  std::string bases_;           // FASTA bases / normalised FASTQ line
  std::string pending_header_;  // FASTA: the next record's header line
  bool has_pending_header_ = false;
  std::uint64_t records_read_ = 0;
};

}  // namespace jem::io
