// Run journal for checkpointed, resumable streaming runs. The MappingEngine
// hands batches to its sink in input order, one at a time; a checkpointing
// driver's sink writes each batch's output, fsyncs it, then appends one
// durable record:
//
//   { batch_index, records_done, output_bytes, output_hash }
//
// binding "batches [0, batch_index] are fully mapped" to "the first
// output_bytes bytes of the partial output (with prefix digest output_hash)
// contain exactly their results". A run killed at any point — even mid-
// append — resumes by reading the journal, discarding the torn tail record
// (the crash artifact), truncating the partial output back to the last
// durable record's byte offset, fast-forwarding the input stream, and
// continuing into the same output. The final output is byte-identical to an
// uninterrupted run.
//
// The journal is bound to one (input, params, request) combination through
// an opaque 32-byte fingerprint supplied by the caller (core/index_serde
// digests the mapping params; the driver adds input and request digests).
// A journal whose fingerprint disagrees is stale: resuming it would splice
// results computed under different parameters, so every validation failure
// is a structured ArtifactError and the caller falls back to a full re-run.
//
// On-disk layout (little-endian):
//   header: u64 magic "JEMCKPT1", u32 version, u32 reserved,
//           4 x u64 fingerprint, u64 xxh64(preceding 48 bytes)
//   records: { u64 batch_index, u64 records_done, u64 output_bytes,
//              u64 output_hash, u64 xxh64(preceding 32 bytes) }
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "io/artifact.hpp"
#include "util/fault_plan.hpp"

namespace jem::io {

/// Opaque digest binding a journal to one run configuration.
struct JournalFingerprint {
  std::array<std::uint64_t, 4> words{};

  friend bool operator==(const JournalFingerprint&,
                         const JournalFingerprint&) = default;
};

/// One durable batch record (all counters cumulative).
struct JournalRecord {
  std::uint64_t batch_index = 0;   // last batch whose output is durable
  std::uint64_t records_done = 0;  // reads emitted through this batch
  std::uint64_t output_bytes = 0;  // valid prefix of the partial output
  std::uint64_t output_hash = 0;   // XXH64 of that prefix

  friend bool operator==(const JournalRecord&, const JournalRecord&) = default;
};

/// Where a validated journal says the run stopped.
struct ResumePoint {
  std::uint64_t batches_done = 0;   // complete batches (= next batch index)
  std::uint64_t records_done = 0;
  std::uint64_t output_bytes = 0;
  std::uint64_t output_hash = 0;
  std::uint64_t torn_records = 0;   // partial tail records discarded

  [[nodiscard]] bool fresh() const noexcept { return batches_done == 0; }
};

/// Parses and validates a journal against `fp`. A torn tail record (the
/// signature of a crash mid-append) is discarded, not an error. Throws
/// ArtifactError on a missing/foreign/corrupt/stale journal — callers catch
/// it and fall back to a full re-run.
[[nodiscard]] ResumePoint read_journal(const std::string& path,
                                       const JournalFingerprint& fp);

class CheckpointWriter {
 public:
  /// Reports the current (bytes, prefix-digest) of the partial output; set
  /// by the driver that owns the output file. When unset, records carry
  /// zeros (journal still tracks batch/record progress).
  using OutputState = std::function<std::pair<std::uint64_t, std::uint64_t>()>;

  /// Creates (or truncates) the journal and durably writes its header.
  static CheckpointWriter create(const std::string& path,
                                 const JournalFingerprint& fp);

  /// Reopens a journal previously validated by read_journal, truncating any
  /// torn tail so the next append lands on a record boundary.
  static CheckpointWriter reopen(const std::string& path,
                                 const JournalFingerprint& fp,
                                 const ResumePoint& resume);

  CheckpointWriter(CheckpointWriter&& other) noexcept;
  CheckpointWriter& operator=(CheckpointWriter&& other) noexcept;
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;
  ~CheckpointWriter();

  /// Appends one record durably (write + fsync). Throws ArtifactError
  /// (kIoError) on failure and util::FaultAbort when the attached injector
  /// aborts site "ckpt.write" — after tearing a partial record onto disk,
  /// modeling a crash mid-append (resume discards it).
  void append(const JournalRecord& record);

  /// Sink-facing form: fills output_bytes/output_hash from the attached
  /// OutputState provider (zeros without one) and appends.
  void append_batch(std::uint64_t batch_index, std::uint64_t records_done);

  void set_output_state(OutputState provider) {
    output_state_ = std::move(provider);
  }

  /// Attaches a fault injector (not owned; null detaches); every append is
  /// a "ckpt.write" site: delay stalls, abort tears a partial record and
  /// throws. A drop decision is ignored.
  void set_fault_injector(util::FaultInjector* injector) noexcept {
    injector_ = injector;
  }

  [[nodiscard]] std::uint64_t records_appended() const noexcept {
    return appended_;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Closes the file descriptor (idempotent; destructor calls it too).
  void close() noexcept;

 private:
  CheckpointWriter(std::string path, int fd);

  void write_all(const void* data, std::size_t size);

  std::string path_;
  int fd_ = -1;
  std::uint64_t appended_ = 0;
  OutputState output_state_;
  util::FaultInjector* injector_ = nullptr;
};

/// Removes a journal file (best-effort; missing files are fine). Called
/// after a checkpointed run publishes its final output.
void remove_journal(const std::string& path) noexcept;

}  // namespace jem::io
