#include "io/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"

namespace jem::io {

namespace {

constexpr std::uint64_t kJournalMagic = 0x3154504b434d454aULL;  // "JEMCKPT1"
constexpr std::uint32_t kJournalVersion = 1;
constexpr std::size_t kHeaderSize = 56;  // magic+version+reserved+fp+checksum
constexpr std::size_t kRecordSize = 40;  // 4 fields + checksum

void append_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void append_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(const char* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t read_u32(const char* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::string encode_header(const JournalFingerprint& fp) {
  std::string out;
  out.reserve(kHeaderSize);
  append_u64(out, kJournalMagic);
  append_u32(out, kJournalVersion);
  append_u32(out, 0);  // reserved
  for (const std::uint64_t word : fp.words) append_u64(out, word);
  append_u64(out, xxh64(out));
  return out;
}

std::string encode_record(const JournalRecord& record) {
  std::string out;
  out.reserve(kRecordSize);
  append_u64(out, record.batch_index);
  append_u64(out, record.records_done);
  append_u64(out, record.output_bytes);
  append_u64(out, record.output_hash);
  append_u64(out, xxh64(out));
  return out;
}

[[noreturn]] void throw_io(const std::string& what) {
  throw ArtifactError(ArtifactReason::kIoError,
                      what + ": " + std::strerror(errno));
}

}  // namespace

ResumePoint read_journal(const std::string& path,
                         const JournalFingerprint& fp) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ArtifactError(ArtifactReason::kOpenFailed,
                        "cannot open journal: " + path);
  }
  std::ostringstream raw;
  raw << in.rdbuf();
  const std::string bytes = std::move(raw).str();

  if (bytes.size() < kHeaderSize) {
    throw ArtifactError(ArtifactReason::kTruncated,
                        "journal shorter than its header (" +
                            std::to_string(bytes.size()) + " bytes)");
  }
  if (read_u64(bytes.data()) != kJournalMagic) {
    throw ArtifactError(ArtifactReason::kBadMagic,
                        "not a JEM run journal: " + path);
  }
  const std::uint32_t version = read_u32(bytes.data() + 8);
  if (version != kJournalVersion) {
    throw ArtifactError(ArtifactReason::kBadVersion,
                        "journal version " + std::to_string(version) +
                            ", expected " + std::to_string(kJournalVersion));
  }
  if (xxh64({bytes.data(), kHeaderSize - 8}) !=
      read_u64(bytes.data() + kHeaderSize - 8)) {
    throw ArtifactError(ArtifactReason::kChecksumMismatch,
                        "journal header fails its checksum");
  }
  JournalFingerprint stored;
  for (std::size_t i = 0; i < stored.words.size(); ++i) {
    stored.words[i] = read_u64(bytes.data() + 16 + 8 * i);
  }
  if (!(stored == fp)) {
    throw ArtifactError(
        ArtifactReason::kStaleJournal,
        "journal fingerprint disagrees with this run's input/params — "
        "refusing to splice results from a different configuration");
  }

  ResumePoint resume;
  std::size_t cursor = kHeaderSize;
  while (cursor < bytes.size()) {
    const std::size_t remaining = bytes.size() - cursor;
    const bool tail_ok =
        remaining >= kRecordSize &&
        xxh64({bytes.data() + cursor, kRecordSize - 8}) ==
            read_u64(bytes.data() + cursor + kRecordSize - 8);
    if (!tail_ok) {
      // A short or checksum-failed *final* record is the expected crash
      // artifact (torn append) and is discarded. The same defect with more
      // bytes after it means the journal body is corrupt.
      if (remaining <= kRecordSize) {
        resume.torn_records = 1;
        break;
      }
      throw ArtifactError(ArtifactReason::kChecksumMismatch,
                          "journal record at byte " + std::to_string(cursor) +
                              " fails its checksum with records after it");
    }
    JournalRecord record;
    record.batch_index = read_u64(bytes.data() + cursor);
    record.records_done = read_u64(bytes.data() + cursor + 8);
    record.output_bytes = read_u64(bytes.data() + cursor + 16);
    record.output_hash = read_u64(bytes.data() + cursor + 24);
    if (record.batch_index != resume.batches_done ||
        record.records_done < resume.records_done ||
        record.output_bytes < resume.output_bytes) {
      throw ArtifactError(ArtifactReason::kStaleJournal,
                          "journal records are not contiguous (batch " +
                              std::to_string(record.batch_index) +
                              " where " +
                              std::to_string(resume.batches_done) +
                              " was expected)");
    }
    resume.batches_done = record.batch_index + 1;
    resume.records_done = record.records_done;
    resume.output_bytes = record.output_bytes;
    resume.output_hash = record.output_hash;
    cursor += kRecordSize;
  }
  return resume;
}

CheckpointWriter::CheckpointWriter(std::string path, int fd)
    : path_(std::move(path)), fd_(fd) {}

CheckpointWriter::CheckpointWriter(CheckpointWriter&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      appended_(other.appended_),
      output_state_(std::move(other.output_state_)),
      injector_(other.injector_) {}

CheckpointWriter& CheckpointWriter::operator=(
    CheckpointWriter&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    appended_ = other.appended_;
    output_state_ = std::move(other.output_state_);
    injector_ = other.injector_;
  }
  return *this;
}

CheckpointWriter::~CheckpointWriter() { close(); }

void CheckpointWriter::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

CheckpointWriter CheckpointWriter::create(const std::string& path,
                                          const JournalFingerprint& fp) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_io("cannot create journal " + path);
  CheckpointWriter writer(path, fd);
  const std::string header = encode_header(fp);
  writer.write_all(header.data(), header.size());
  if (::fsync(fd) != 0) throw_io("fsync of journal " + path);
  return writer;
}

CheckpointWriter CheckpointWriter::reopen(const std::string& path,
                                          const JournalFingerprint& fp,
                                          const ResumePoint& resume) {
  // read_journal re-validates so a reopen can never extend a journal that
  // stopped matching this run between validation and reopen.
  const ResumePoint current = read_journal(path, fp);
  if (current.batches_done != resume.batches_done) {
    throw ArtifactError(ArtifactReason::kStaleJournal,
                        "journal changed between validation and reopen");
  }
  const int fd = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) throw_io("cannot reopen journal " + path);
  const off_t end = static_cast<off_t>(
      kHeaderSize + resume.batches_done * kRecordSize);
  // Drop any torn tail so the next append starts on a record boundary.
  if (::ftruncate(fd, end) != 0 || ::lseek(fd, end, SEEK_SET) < 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_io("cannot truncate journal " + path);
  }
  CheckpointWriter writer(path, fd);
  writer.appended_ = resume.batches_done;
  return writer;
}

void CheckpointWriter::write_all(const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd_, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_io("journal append to " + path_);
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

void CheckpointWriter::append(const JournalRecord& record) {
  if (fd_ < 0) {
    throw ArtifactError(ArtifactReason::kIoError,
                        "journal already closed: " + path_);
  }
  const std::string encoded = encode_record(record);
  if (injector_ != nullptr && injector_->active()) {
    const util::FaultDecision decision = injector_->next("ckpt.write");
    if (decision.action == util::FaultAction::kDelay) {
      std::this_thread::sleep_for(decision.delay);
    } else if (decision.action == util::FaultAction::kAbort) {
      // Model a crash mid-append: half a record reaches the disk, then the
      // process "dies". Resume must discard this torn tail.
      write_all(encoded.data(), encoded.size() / 2);
      (void)::fsync(fd_);
      throw util::FaultAbort(injector_->rank(), "ckpt.write");
    }
  }
  write_all(encoded.data(), encoded.size());
  if (::fsync(fd_) != 0) throw_io("fsync of journal " + path_);
  ++appended_;
  obs::default_registry().counter("io.checkpoint.appends").add(1);
}

void CheckpointWriter::append_batch(std::uint64_t batch_index,
                                    std::uint64_t records_done) {
  JournalRecord record;
  record.batch_index = batch_index;
  record.records_done = records_done;
  if (output_state_) {
    const auto [bytes, hash] = output_state_();
    record.output_bytes = bytes;
    record.output_hash = hash;
  }
  append(record);
}

void remove_journal(const std::string& path) noexcept {
  (void)::unlink(path.c_str());
}

}  // namespace jem::io
