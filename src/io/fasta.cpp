#include "io/fasta.hpp"

#include <fstream>
#include <limits>
#include <sstream>

#include "io/gzip.hpp"
#include "io/stream_reader.hpp"

namespace jem::io {

namespace {

std::vector<SequenceRecord> read_all(SequenceStreamReader& reader) {
  std::vector<SequenceRecord> records;
  SequenceRecord record;
  while (reader.next(record)) records.push_back(std::move(record));
  return records;
}

/// The file's bytes, inflated when gzip-compressed (.fa.gz / .fastq.gz).
std::string read_sequence_file(const std::string& path) {
  try {
    return read_file_auto(path);
  } catch (const std::exception& error) {
    throw ParseError(error.what());
  }
}

}  // namespace

std::vector<SequenceRecord> read_fasta(std::istream& in) {
  SequenceStreamReader reader(in);
  if (reader.format() == SequenceStreamReader::Format::kFastq) {
    throw ParseError("FASTA input does not start with '>'");
  }
  return read_all(reader);
}

std::vector<SequenceRecord> read_fastq(std::istream& in) {
  SequenceStreamReader reader(in);
  if (reader.format() == SequenceStreamReader::Format::kFasta) {
    throw ParseError("FASTQ record does not start with '@'");
  }
  return read_all(reader);
}

std::vector<SequenceRecord> read_sequences(std::istream& in) {
  SequenceStreamReader reader(in);
  return read_all(reader);
}

std::vector<SequenceRecord> read_sequences_file(const std::string& path) {
  std::istringstream in(read_sequence_file(path));
  return read_sequences(in);
}

void load_into(const std::string& path, SequenceSet& out) {
  std::string text = read_sequence_file(path);
  const std::size_t text_bytes = text.size();
  std::istringstream in(std::move(text));
  SequenceStreamReader reader(in);
  // The text bounds the bases (a FASTQ record holds as many quality bytes
  // as bases), so the arena is allocated once: no doubling copy holds the
  // bases twice while the whole text is still in memory.
  const std::size_t max_bases =
      reader.format() == SequenceStreamReader::Format::kFastq ? text_bytes / 2
                                                              : text_bytes;
  out.reserve(0, out.total_bases() + max_bases);
  (void)reader.append_batch(out, std::numeric_limits<std::size_t>::max());
}

namespace {
void write_wrapped(std::ostream& out, std::string_view bases,
                   std::size_t line_width) {
  if (line_width == 0) {
    out << bases << '\n';
    return;
  }
  for (std::size_t pos = 0; pos < bases.size(); pos += line_width) {
    out << bases.substr(pos, line_width) << '\n';
  }
}
}  // namespace

void write_fasta(std::ostream& out, std::span<const SequenceRecord> records,
                 std::size_t line_width) {
  for (const SequenceRecord& rec : records) {
    out << '>' << rec.name;
    if (!rec.comment.empty()) out << ' ' << rec.comment;
    out << '\n';
    write_wrapped(out, rec.bases, line_width);
  }
}

void write_fasta(std::ostream& out, const SequenceSet& set,
                 std::size_t line_width) {
  for (SeqId id = 0; id < set.size(); ++id) {
    out << '>' << set.name(id) << '\n';
    write_wrapped(out, set.bases(id), line_width);
  }
}

void write_fasta_file(const std::string& path,
                      std::span<const SequenceRecord> records,
                      std::size_t line_width) {
  std::ofstream out(path);
  if (!out) throw ParseError("cannot open file for writing: " + path);
  write_fasta(out, records, line_width);
}

void write_fastq(std::ostream& out, std::span<const SequenceRecord> records) {
  for (const SequenceRecord& rec : records) {
    out << '@' << rec.name;
    if (!rec.comment.empty()) out << ' ' << rec.comment;
    out << '\n' << rec.bases << "\n+\n";
    if (rec.quality.size() == rec.bases.size()) {
      out << rec.quality << '\n';
    } else {
      out << std::string(rec.bases.size(), 'I') << '\n';
    }
  }
}

}  // namespace jem::io
