#include "io/stream_reader.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "util/string_util.hpp"

namespace jem::io {

namespace {

constexpr bool is_space(unsigned char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// What a sequence-line byte is stored as: its uppercase form, or -1 for
/// whitespace, which is dropped.
constexpr std::array<std::int16_t, 256> kBaseMap = [] {
  std::array<std::int16_t, 256> map{};
  for (int c = 0; c < 256; ++c) {
    map[c] = is_space(static_cast<unsigned char>(c)) ? -1
             : c >= 'a' && c <= 'z'                  ? c - 'a' + 'A'
                                                     : c;
  }
  return map;
}();

/// True when no byte of `line` is lowercase or whitespace, i.e. kBaseMap
/// leaves the line as it is. Every value stays a byte, so the compiler
/// vectorises the loop a full vector of bytes per step, not a quarter of
/// one widened to 32-bit lanes.
bool is_clean(std::string_view line) noexcept {
  std::uint8_t dirty = 0;
  for (const char ch : line) {
    const auto c = static_cast<std::uint8_t>(ch);
    dirty |= static_cast<std::uint8_t>(
        (static_cast<std::uint8_t>(c - 'a') < std::uint8_t{26}) |
        (static_cast<std::uint8_t>(c - '\t') < std::uint8_t{5}) |
        (c == ' '));
  }
  return dirty == 0;
}

void append_bases(std::string& dst, std::string_view line) {
  if (is_clean(line)) {
    dst.append(line);
    return;
  }
  for (const char c : line) {
    const std::int16_t mapped = kBaseMap[static_cast<unsigned char>(c)];
    if (mapped >= 0) dst.push_back(static_cast<char>(mapped));
  }
}

void split_header(std::string_view header, std::string& name,
                  std::string& comment) {
  const std::size_t ws = header.find_first_of(" \t");
  if (ws == std::string_view::npos) {
    name.assign(header);
    comment.clear();
  } else {
    name.assign(header.substr(0, ws));
    comment.assign(util::trim(header.substr(ws + 1)));
  }
  if (name.empty()) {
    throw ParseError("sequence header with empty name");
  }
}

}  // namespace

SequenceStreamReader::SequenceStreamReader(std::istream& in)
    : in_(in.rdbuf()) {
  // The format is the first non-blank byte; leading blanks are consumed.
  for (;;) {
    while (pos_ < end_ &&
           is_space(static_cast<unsigned char>(buffer_[pos_]))) {
      ++pos_;
    }
    if (pos_ < end_ || !fill()) break;
  }
  if (pos_ == end_) {
    format_ = Format::kEmpty;
  } else if (buffer_[pos_] == '>') {
    format_ = Format::kFasta;
  } else if (buffer_[pos_] == '@') {
    format_ = Format::kFastq;
  } else {
    throw ParseError("input is neither FASTA ('>') nor FASTQ ('@')");
  }
}

bool SequenceStreamReader::fill() {
  if (eof_ || in_ == nullptr) return false;
  const std::size_t from = std::min(pos_, keep_);
  if (from > 0) {
    std::memmove(buffer_.data(), buffer_.data() + from, end_ - from);
    pos_ -= from;
    end_ -= from;
    if (keep_ != kNoKeep) keep_ -= from;
  }
  if (buffer_.size() < end_ + kChunkBytes) {
    buffer_.resize(std::max(2 * buffer_.size(), end_ + kChunkBytes));
  }
  const std::streamsize got = in_->sgetn(
      buffer_.data() + end_, static_cast<std::streamsize>(kChunkBytes));
  if (got <= 0) {
    eof_ = true;
    return false;
  }
  end_ += static_cast<std::size_t>(got);
  return true;
}

bool SequenceStreamReader::get_line(std::string_view& line) {
  std::size_t searched = 0;  // bytes past pos_ known to hold no '\n'
  for (;;) {
    const char* begin = buffer_.data() + pos_;
    const void* newline =
        std::memchr(begin + searched, '\n', end_ - pos_ - searched);
    if (newline != nullptr) {
      const auto length =
          static_cast<std::size_t>(static_cast<const char*>(newline) - begin);
      line = std::string_view(begin, length);
      pos_ += length + 1;
      break;
    }
    searched = end_ - pos_;
    if (!fill()) {  // end of input: what is left is the last line
      if (pos_ == end_) return false;
      line = std::string_view(buffer_.data() + pos_, end_ - pos_);
      pos_ = end_;
      break;
    }
  }
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return true;
}

template <typename OnRecord>
bool SequenceStreamReader::parse(const OnRecord& on_record) {
  std::string_view line;
  if (format_ == Format::kFastq) {
    // Skip blank separator lines.
    bool got = false;
    while ((got = get_line(line)) && line.empty()) {
    }
    if (!got) return false;
    if (line.front() != '@') {
      throw ParseError("FASTQ record does not start with '@': " +
                       std::string(line));
    }
    split_header(line.substr(1), name_, comment_);
    if (!get_line(line)) {
      throw ParseError("FASTQ record '" + name_ + "' truncated");
    }
    // Keep the bases line in the buffer while the '+' and quality lines
    // are read after it.
    keep_ = static_cast<std::size_t>(line.data() - buffer_.data());
    const std::size_t raw_size = line.size();
    if (!get_line(line) || line.empty() || line.front() != '+') {
      keep_ = kNoKeep;
      throw ParseError("FASTQ record '" + name_ + "' missing '+'");
    }
    if (!get_line(line)) {
      keep_ = kNoKeep;
      throw ParseError("FASTQ record '" + name_ + "' has no quality");
    }
    std::string_view bases(buffer_.data() + keep_, raw_size);
    keep_ = kNoKeep;
    if (!is_clean(bases)) {
      bases_.clear();
      append_bases(bases_, bases);
      bases = bases_;
    }
    if (line.size() != bases.size()) {
      throw ParseError("FASTQ record '" + name_ +
                       "': quality length != sequence length");
    }
    on_record(bases, line);
    ++records_read_;
    return true;
  }
  if (format_ == Format::kEmpty) return false;

  // FASTA: consume the pending header (or find the first one).
  if (!has_pending_header_) {
    bool got = false;
    while ((got = get_line(line)) && line.empty()) {
    }
    if (!got) return false;
    if (line.front() != '>') {
      throw ParseError("FASTA input does not start with '>'");
    }
    pending_header_.assign(line);
  }
  split_header(std::string_view(pending_header_).substr(1), name_, comment_);
  has_pending_header_ = false;

  bases_.clear();
  while (get_line(line)) {
    if (line.empty()) continue;
    if (line.front() == '>') {
      pending_header_.assign(line);
      has_pending_header_ = true;
      break;
    }
    append_bases(bases_, line);
  }
  if (bases_.empty()) {
    throw ParseError("FASTA record '" + name_ + "' has no sequence");
  }
  on_record(std::string_view(bases_), std::string_view());
  ++records_read_;
  return true;
}

bool SequenceStreamReader::next(SequenceRecord& record) {
  record = {};
  return parse([&](std::string_view bases, std::string_view quality) {
    record.name = name_;
    record.comment = comment_;
    record.bases = bases;
    record.quality = quality;
  });
}

std::size_t SequenceStreamReader::append_batch(SequenceSet& out,
                                               std::size_t max_records) {
  std::size_t appended = 0;
  while (appended < max_records &&
         parse([&](std::string_view bases, std::string_view) {
           out.add(name_, bases);
         })) {
    ++appended;
  }
  return appended;
}

SequenceSet SequenceStreamReader::next_batch(std::size_t max_records) {
  SequenceSet batch;
  (void)append_batch(batch, max_records);
  return batch;
}

}  // namespace jem::io
