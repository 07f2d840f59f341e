// Tab-separated mapping output, a PAF-flavoured record per mapped query end:
//   query_name  end(P|S)  segment_len  contig_name  votes  trials
// plus a reader for round-tripping in tests and downstream tools, and the
// crash-safe output paths (docs/persistence.md):
//  * write_mappings_atomic — one-shot results published via temp + fsync +
//    rename, so a crash mid-write never leaves a half-written result file;
//  * MappingOutput — an append-only `<path>.partial` staging file for
//    streamed runs. It tracks (bytes written, XXH64 prefix
//    digest) — exactly the output state the run journal records per batch —
//    supports reopening at a journal's resume point (truncate + rehash +
//    verify), and publishes atomically on completion. Readers of `path`
//    never observe a partial result; the .partial file is the only
//    crash-visible artifact and a resume or fresh run reclaims it.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "io/artifact.hpp"

namespace jem::io {

struct MappingLine {
  std::string query;
  char end = 'P';  // 'P' prefix segment, 'S' suffix segment
  std::uint32_t segment_length = 0;
  std::string subject;     // empty when unmapped (written as '*')
  std::uint32_t votes = 0;  // trials that voted for the winning subject
  std::uint32_t trials = 0;

  [[nodiscard]] bool mapped() const noexcept { return !subject.empty(); }
  friend bool operator==(const MappingLine&, const MappingLine&) = default;
};

void write_mappings(std::ostream& out, const std::vector<MappingLine>& lines);
[[nodiscard]] std::vector<MappingLine> read_mappings(std::istream& in);

/// write_mappings serialized to memory, then published with
/// atomic_write_file (temp + fsync + rename): the file at `path` is always
/// either the previous version or the complete new one.
void write_mappings_atomic(const std::string& path,
                           const std::vector<MappingLine>& lines);

/// Append-only staging output for streamed runs; the partial file lives at
/// `path() + ".partial"` until publish() (or discard()).
class MappingOutput {
 public:
  /// Fresh run: creates/truncates the partial file.
  explicit MappingOutput(std::string path);

  /// Resume: reopens the partial file, truncates it to `bytes` (everything
  /// past the last journaled batch is an un-journaled crash remainder),
  /// rehashes the kept prefix and requires it to equal `hash`. A mismatch
  /// means the partial output does not contain what the journal claims —
  /// thrown as ArtifactError(kStaleJournal); callers fall back to a full
  /// re-run. kOpenFailed when the partial file is gone.
  MappingOutput(std::string path, std::uint64_t bytes, std::uint64_t hash);

  MappingOutput(MappingOutput&& other) noexcept;
  MappingOutput& operator=(MappingOutput&& other) noexcept;
  MappingOutput(const MappingOutput&) = delete;
  MappingOutput& operator=(const MappingOutput&) = delete;
  ~MappingOutput();

  /// Appends bytes to the partial file and folds them into the prefix
  /// digest. Throws ArtifactError(kIoError) on a short write.
  void append(std::string_view bytes);

  /// fsync the partial file — called before each journal append so the
  /// journal never claims bytes the disk does not have.
  void sync();

  /// Current (bytes, prefix digest) — the CheckpointWriter::OutputState
  /// provider for this output.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> state() const noexcept;

  [[nodiscard]] std::uint64_t bytes_written() const noexcept;
  [[nodiscard]] std::uint64_t digest() const noexcept;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::string partial_path() const { return path_ + ".partial"; }

  /// Atomically publishes the partial file as `path()` (fsync + rename +
  /// directory fsync) and closes. Throws ArtifactError(kIoError).
  void publish();

  /// Closes and removes the partial file (abandoned run). Idempotent.
  void discard() noexcept;

 private:
  void close_fd() noexcept;

  std::string path_;
  int fd_ = -1;
  Xxh64Stream hash_;
};

}  // namespace jem::io
