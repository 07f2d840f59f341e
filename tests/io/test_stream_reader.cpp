#include "io/stream_reader.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <istream>
#include <map>
#include <streambuf>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "io/batch_stream.hpp"
#include "io/fasta.hpp"
#include "sim/genome.hpp"
#include "sim/hifi_reads.hpp"

namespace jem::io {
namespace {

TEST(StreamReader, ReadsFastaRecordsOneByOne) {
  std::istringstream in(">a first\nACGT\nAC\n>b\nTTTT\n");
  SequenceStreamReader reader(in);
  SequenceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.name, "a");
  EXPECT_EQ(rec.comment, "first");
  EXPECT_EQ(rec.bases, "ACGTAC");
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.name, "b");
  EXPECT_EQ(rec.bases, "TTTT");
  EXPECT_FALSE(reader.next(rec));
  EXPECT_EQ(reader.records_read(), 2u);
}

TEST(StreamReader, ReadsFastqRecordsOneByOne) {
  std::istringstream in("@r1\nACGT\n+\nIIII\n@r2\nGG\n+\nJJ\n");
  SequenceStreamReader reader(in);
  SequenceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.name, "r1");
  EXPECT_EQ(rec.quality, "IIII");
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.name, "r2");
  EXPECT_FALSE(reader.next(rec));
}

TEST(StreamReader, MatchesWholeFileReader) {
  std::ostringstream data;
  for (int i = 0; i < 50; ++i) {
    data << ">seq" << i << "\nACGTACGTACGT\nGG\n";
  }
  std::istringstream whole(data.str());
  const auto expected = read_fasta(whole);

  std::istringstream streamed(data.str());
  SequenceStreamReader reader(streamed);
  SequenceRecord rec;
  std::size_t index = 0;
  while (reader.next(rec)) {
    ASSERT_LT(index, expected.size());
    EXPECT_EQ(rec.name, expected[index].name);
    EXPECT_EQ(rec.bases, expected[index].bases);
    ++index;
  }
  EXPECT_EQ(index, expected.size());
}

TEST(StreamReader, BatchesRespectLimit) {
  std::ostringstream data;
  for (int i = 0; i < 25; ++i) data << ">s" << i << "\nACGT\n";
  std::istringstream in(data.str());
  SequenceStreamReader reader(in);

  std::size_t total = 0;
  std::size_t batches = 0;
  while (true) {
    const SequenceSet batch = reader.next_batch(10);
    if (batch.empty()) break;
    EXPECT_LE(batch.size(), 10u);
    total += batch.size();
    ++batches;
  }
  EXPECT_EQ(total, 25u);
  EXPECT_EQ(batches, 3u);  // 10 + 10 + 5
}

TEST(StreamReader, EmptyInputYieldsNothing) {
  std::istringstream in("   \n ");
  SequenceStreamReader reader(in);
  SequenceRecord rec;
  EXPECT_FALSE(reader.next(rec));
  EXPECT_TRUE(reader.next_batch(10).empty());
}

TEST(StreamReader, ThrowsOnUnknownFormat) {
  std::istringstream in("#comment\n");
  EXPECT_THROW(SequenceStreamReader reader(in), ParseError);
}

TEST(StreamReader, ThrowsOnTruncatedFastq) {
  std::istringstream in("@r1\nACGT\n+\n");
  SequenceStreamReader reader(in);
  SequenceRecord rec;
  EXPECT_THROW((void)reader.next(rec), ParseError);
}

TEST(StreamReader, ThrowsOnEmptyFastaRecord) {
  std::istringstream in(">a\n>b\nACGT\n");
  SequenceStreamReader reader(in);
  SequenceRecord rec;
  EXPECT_THROW((void)reader.next(rec), ParseError);
}

TEST(StreamReader, HandlesCrlf) {
  std::istringstream in(">a\r\nACGT\r\n");
  SequenceStreamReader reader(in);
  SequenceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.bases, "ACGT");
}

// --- Chunk boundaries ------------------------------------------------------
//
// The reader takes kChunkBytes from the stream at a time, so stream offsets
// that are multiples of kChunkBytes are where a line may be split.

constexpr std::size_t kChunk = SequenceStreamReader::kChunkBytes;
constexpr std::size_t kNoQualityLength = static_cast<std::size_t>(-1);

/// `text` padded with newlines (blank lines, which both formats skip) up to
/// byte offset `at`.
std::string pad_to(std::string text, std::size_t at) {
  EXPECT_LE(text.size(), at);
  text.resize(at, '\n');
  return text;
}

std::vector<SequenceRecord> read_all_records(const std::string& data) {
  std::istringstream in(data);
  SequenceStreamReader reader(in);
  std::vector<SequenceRecord> records;
  SequenceRecord rec;
  while (reader.next(rec)) records.push_back(rec);
  return records;
}

TEST(StreamReaderChunks, RecordStraddlingTheBoundaryParses) {
  // Every line of the second record — header, bases, '+', quality — lands
  // on the boundary for one of these shifts.
  const std::string first = "@a\nACGT\n+\nIIII\n";
  const std::string second = "@second\nACGTACGTAC\n+\nIIIIIIIIII\n";
  for (std::size_t back = 1; back <= second.size(); ++back) {
    const std::string data = pad_to(first, kChunk - back) + second;
    const auto records = read_all_records(data);
    ASSERT_EQ(records.size(), 2u) << "back " << back;
    EXPECT_EQ(records[1].name, "second");
    EXPECT_EQ(records[1].bases, "ACGTACGTAC");
    EXPECT_EQ(records[1].quality, "IIIIIIIIII");
  }
  const std::string fasta_second = ">second x\nACGTA\ncgtac\n";
  for (std::size_t back = 1; back <= fasta_second.size(); ++back) {
    const auto records = read_all_records(
        pad_to(">a\nACGT\n", kChunk - back) + fasta_second + ">c\nGG\n");
    ASSERT_EQ(records.size(), 3u) << "back " << back;
    EXPECT_EQ(records[1].name, "second");
    EXPECT_EQ(records[1].comment, "x");
    EXPECT_EQ(records[1].bases, "ACGTACGTAC");
  }
}

TEST(StreamReaderChunks, CrEndsOneChunkAndLfStartsTheNext) {
  // FASTQ bases and quality lines, then a FASTA line, each ending in a
  // '\r' that is the chunk's last byte.
  for (const std::string& tail : {std::string("@r\nACGT\r\n+\r\nIIII\r\n"),
                                 std::string("@r\nACGT\n+\nIIII\r\n")}) {
    const std::size_t cr = tail.find('\r');
    const std::string data =
        pad_to("@a\nA\n+\nI\n", kChunk - 1 - cr) + tail;
    ASSERT_EQ(data[kChunk - 1], '\r');
    const auto records = read_all_records(data);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[1].bases, "ACGT");
    EXPECT_EQ(records[1].quality, "IIII");
  }
  const std::string fasta_tail = ">r\nAC\r\nGT\r\n";
  const std::string data =
      pad_to(">a\nA\n", kChunk - 1 - fasta_tail.find('\r')) + fasta_tail;
  ASSERT_EQ(data[kChunk - 1], '\r');
  const auto records = read_all_records(data);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].bases, "ACGT");
}

TEST(StreamReaderChunks, LastLineWithoutNewline) {
  for (const std::size_t at : {std::size_t{0}, kChunk - 3, kChunk + 5}) {
    const std::string lead = at == 0 ? "" : pad_to("@a\nA\n+\nI\n", at);
    const auto fastq = read_all_records(lead + "@r\nACGT\n+\nIIII");
    ASSERT_FALSE(fastq.empty());
    EXPECT_EQ(fastq.back().quality, "IIII");
    const std::string fasta_lead = at == 0 ? "" : pad_to(">a\nA\n", at);
    const auto fasta = read_all_records(fasta_lead + ">r\nAC\nGT");
    ASSERT_FALSE(fasta.empty());
    EXPECT_EQ(fasta.back().bases, "ACGT");
  }
}

TEST(StreamReaderChunks, LowercaseAndWhitespaceLinesBesideCleanOnes) {
  const auto fasta = read_all_records(
      ">s\nACGT\nac gt\nTT\tAA\r\nAC GT\n>t\nacgtn\n");
  ASSERT_EQ(fasta.size(), 2u);
  EXPECT_EQ(fasta[0].bases, "ACGTACGTTTAAACGT");
  EXPECT_EQ(fasta[1].bases, "ACGTN");

  // The quality must match the normalised bases, whitespace dropped.
  const std::string fastq =
      "@q\nac gT\n+\nIIII\n@r\nACGT\n+\nJJJJ\n@s\nAC GT\n+\nKKKK\n";
  const auto records = read_all_records(fastq);
  ASSERT_EQ(records.size(), 3u);
  for (const SequenceRecord& rec : records) EXPECT_EQ(rec.bases, "ACGT");
  std::istringstream in(fastq);
  SequenceStreamReader reader(in);
  const SequenceSet batch = reader.next_batch(10);
  ASSERT_EQ(batch.size(), 3u);
  for (SeqId id = 0; id < batch.size(); ++id) {
    EXPECT_EQ(batch.bases(id), "ACGT");
  }
  EXPECT_EQ(batch.name(1), "r");

  std::istringstream bad("@q\nac gT\n+\nIIIII\n");
  SequenceStreamReader bad_reader(bad);
  EXPECT_THROW((void)bad_reader.next_batch(10), ParseError);
}

TEST(StreamReaderChunks, LinesLongerThanAChunk) {
  const std::string bases(3 * kChunk + 5, 'C');
  const auto fastq = read_all_records("@a\nA\n+\nI\n@long\n" + bases +
                                      "\n+\n" + std::string(bases.size(), 'I') +
                                      "\n@z\nG\n+\nI\n");
  ASSERT_EQ(fastq.size(), 3u);
  EXPECT_EQ(fastq[1].bases, bases);
  EXPECT_EQ(fastq[2].bases, "G");
  const auto fasta = read_all_records(">long\n" + bases + "\n" + bases);
  ASSERT_EQ(fasta.size(), 1u);
  EXPECT_EQ(fasta[0].bases, bases + bases);
}

TEST(StreamReaderChunks, QualityMismatchAcrossTheBoundaryThrows) {
  const std::string data =
      pad_to("@a\nA\n+\nI\n", kChunk - 12) + "@r\nACGTACGT\n+\nIIIIIII\n";
  std::istringstream in(data);
  SequenceStreamReader reader(in);
  EXPECT_THROW((void)reader.next_batch(10), ParseError);
}

// --- Every byte at every position ------------------------------------------
//
// The clean check decides per line whether bases are copied as they are or
// mapped byte by byte, and it runs vectorised: each byte value goes at each
// position 0-130 of a line, across the 16-, 32- and 64-byte vector widths,
// and the bases must equal a per-byte reference.

constexpr std::size_t kProbePositions = 131;
constexpr std::size_t kProbeLength = 140;  // a scalar tail past the probes

bool probe_is_space(unsigned char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// What the reader stores for a sequence line, byte by byte: lowercase
/// made uppercase, whitespace dropped.
std::string reference_bases(std::string_view line) {
  std::string out;
  for (const char ch : line) {
    const auto c = static_cast<unsigned char>(ch);
    if (probe_is_space(c)) continue;
    out.push_back(c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A')
                                       : ch);
  }
  return out;
}

/// Sequence lines of ACGT that together hold each byte value at each
/// position 0-130, except where the byte would end the record instead
/// ('\n' in a FASTQ bases line, '>' opening a FASTA line). A lowercase or
/// whitespace byte is always alone in its line: the check must not pass
/// it as clean. With `packed`, the other values share lines, one value per
/// position, so fewer lines cover them.
std::vector<std::string> probe_lines(bool fastq, bool packed) {
  std::string background(kProbeLength, 'A');
  for (std::size_t i = 0; i < kProbeLength; ++i) {
    background[i] = "ACGT"[(i * 7 + i / 5) % 4];
  }
  const auto skipped = [&](unsigned c, std::size_t p) {
    return fastq ? c == '\n' : p == 0 && c == '>';
  };
  std::vector<unsigned> clean_values;
  std::vector<std::string> lines;
  for (unsigned c = 0; c < 256; ++c) {
    const bool dirty = probe_is_space(static_cast<unsigned char>(c)) ||
                       (c >= 'a' && c <= 'z');
    if (packed && !dirty) {
      clean_values.push_back(c);
      continue;
    }
    for (std::size_t p = 0; p < kProbePositions; ++p) {
      if (skipped(c, p)) continue;
      lines.push_back(background);
      lines.back()[p] = static_cast<char>(c);
    }
  }
  for (std::size_t j = 0; j < clean_values.size(); ++j) {
    std::string line = background;
    for (std::size_t p = 0; p < kProbePositions; ++p) {
      const unsigned c = clean_values[(j + p) % clean_values.size()];
      if (!skipped(c, p)) line[p] = static_cast<char>(c);
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

/// One record whose sequence is `line`; a FASTQ quality of the normalised
/// length unless `quality_length` is given.
std::string probe_record(bool fastq, std::size_t index,
                         const std::string& line,
                         std::size_t quality_length = kNoQualityLength) {
  const std::string name = "p" + std::to_string(index);
  if (!fastq) return ">" + name + "\n" + line + "\n";
  if (quality_length == kNoQualityLength) {
    quality_length = reference_bases(line).size();
  }
  return "@" + name + "\n" + line + "\n+\n" +
         std::string(quality_length, 'I') + "\n";
}

/// Serves `pieces` one after another as one stream without joining them,
/// so a stream many chunks long costs no memory of its own.
class PiecesBuf : public std::streambuf {
 public:
  explicit PiecesBuf(std::vector<std::string_view> pieces)
      : pieces_(std::move(pieces)) {}

 protected:
  int_type underflow() override {
    while (gptr() == egptr() && next_ < pieces_.size()) {
      char* begin = const_cast<char*>(pieces_[next_].data());
      setg(begin, begin, begin + pieces_[next_].size());
      ++next_;
    }
    return gptr() == egptr() ? traits_type::eof()
                             : traits_type::to_int_type(*gptr());
  }

 private:
  std::vector<std::string_view> pieces_;
  std::size_t next_ = 0;
};

void expect_every_byte_parses(bool fastq) {
  const std::string what = fastq ? "FASTQ" : "FASTA";
  // Within a chunk: every record of one stream, each padded onto the next
  // chunk rather than across a chunk boundary.
  {
    const std::vector<std::string> lines = probe_lines(fastq, false);
    std::string data;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string record = probe_record(fastq, i, lines[i]);
      const std::size_t chunk_end = (data.size() / kChunk + 1) * kChunk;
      if (data.size() + record.size() > chunk_end) data.resize(chunk_end, '\n');
      data += record;
    }
    std::istringstream in(data);
    SequenceStreamReader reader(in);
    SequenceRecord rec;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      ASSERT_TRUE(reader.next(rec)) << what << " line " << i;
      ASSERT_EQ(rec.bases, reference_bases(lines[i])) << what << " line " << i;
    }
    EXPECT_FALSE(reader.next(rec));
  }
  // Straddling a boundary: each probe line starts 64 bytes before a chunk
  // boundary, so positions 0-63 arrive in one chunk and 64-130 in the
  // next. Between probes, a record with a long header comment fills the
  // rest of the chunk: the reader searches and copies a header, it does
  // not check it byte by byte, which keeps the thousands of chunks one
  // reader reads cheap under the sanitizers.
  constexpr std::size_t kSplit = 64;
  const std::string filler_tail = fastq ? "\nA\n+\nI\n" : "\nA\n";
  std::map<std::size_t, std::string> fillers;  // by size
  const auto filler = [&](std::size_t size) -> std::string_view {
    std::string& text = fillers[size];
    if (text.empty()) {
      text = (fastq ? "@f " : ">f ") +
             std::string(size - 3 - filler_tail.size(), 'x') + filler_tail;
    }
    return text;
  };
  const std::vector<std::string> lines = probe_lines(fastq, true);
  std::vector<std::string> records;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    records.push_back(probe_record(fastq, i, lines[i]));
  }
  std::vector<std::string_view> pieces;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::size_t line_at = (i + 1) * kChunk - kSplit;
    const std::size_t record_at = line_at - records[i].find('\n') - 1;
    pieces.push_back(filler(record_at - offset));
    pieces.push_back(records[i]);
    offset = record_at + records[i].size();
  }
  PiecesBuf buf(std::move(pieces));
  std::istream in(&buf);
  SequenceStreamReader reader(in);
  SequenceRecord rec;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ASSERT_TRUE(reader.next(rec) && rec.name == "f") << what << " line " << i;
    ASSERT_TRUE(reader.next(rec)) << what << " line " << i;
    ASSERT_EQ(rec.bases, reference_bases(lines[i]))
        << what << " across, line " << i;
  }
  EXPECT_FALSE(reader.next(rec));
}

TEST(StreamReaderChunks, EveryByteAtEveryPositionOfAFastaLine) {
  expect_every_byte_parses(false);
}

TEST(StreamReaderChunks, EveryByteAtEveryPositionOfAFastqLine) {
  expect_every_byte_parses(true);
  // The quality must match the normalised length: one more quality byte
  // than bases left after a whitespace byte is dropped is an error.
  const std::vector<std::string> lines = probe_lines(true, false);
  for (unsigned c = '\t'; c <= ' '; ++c) {
    if (!probe_is_space(static_cast<unsigned char>(c)) || c == '\n') continue;
    for (const std::string& line : lines) {
      if (line.find(static_cast<char>(c)) == std::string::npos) continue;
      std::istringstream in(probe_record(true, 0, line, line.size()));
      SequenceStreamReader reader(in);
      SequenceRecord rec;
      EXPECT_THROW((void)reader.next(rec), ParseError) << "byte " << c;
    }
  }
}

/// Simulated HiFi reads and their FASTQ text, several chunks long.
struct SimFastq {
  SequenceSet reads;
  std::string text;
};

const SimFastq& sim_fastq() {
  static const SimFastq fastq = [] {
    sim::GenomeParams genome_params;
    genome_params.length = 120'000;
    genome_params.seed = 11;
    const std::string genome = sim::simulate_genome(genome_params);
    sim::HiFiParams read_params;
    read_params.coverage = 12.0;
    read_params.mean_length = 4000.0;
    read_params.sd_length = 1500.0;
    SimFastq out{sim::simulate_hifi_reads(genome, read_params).reads, ""};
    for (SeqId id = 0; id < out.reads.size(); ++id) {
      out.text += "@" + std::string(out.reads.name(id)) + "\n" +
                  std::string(out.reads.bases(id)) + "\n+\n" +
                  std::string(out.reads.length(id), 'I') + "\n";
    }
    return out;
  }();
  return fastq;
}

void expect_read(const SequenceSet& expected, SeqId id, std::string_view name,
                 std::string_view bases) {
  ASSERT_LT(id, expected.size());
  EXPECT_EQ(name, expected.name(id));
  EXPECT_TRUE(bases == expected.bases(id)) << "read " << id;
}

TEST(StreamReaderChunks, SimulatedFastqSeveralChunksLong) {
  const SimFastq& fastq = sim_fastq();
  ASSERT_GT(fastq.text.size(), 4 * kChunk);

  std::istringstream batched(fastq.text);
  SequenceStreamReader batch_reader(batched);
  SeqId id = 0;
  for (SequenceSet batch = batch_reader.next_batch(29); !batch.empty();
       batch = batch_reader.next_batch(29)) {
    for (SeqId b = 0; b < batch.size(); ++b, ++id) {
      expect_read(fastq.reads, id, batch.name(b), batch.bases(b));
    }
  }
  EXPECT_EQ(id, fastq.reads.size());

  std::istringstream single(fastq.text);
  SequenceStreamReader reader(single);
  SequenceRecord rec;
  id = 0;
  while (reader.next(rec)) {
    EXPECT_EQ(rec.quality, std::string(rec.bases.size(), 'I'));
    expect_read(fastq.reads, id++, rec.name, rec.bases);
  }
  EXPECT_EQ(id, fastq.reads.size());

  std::istringstream whole(fastq.text);
  const auto records = read_sequences(whole);
  ASSERT_EQ(records.size(), fastq.reads.size());
  for (SeqId r = 0; r < records.size(); ++r) {
    expect_read(fastq.reads, r, records[r].name, records[r].bases);
  }
}

TEST(BatchStream, SkipAcrossAChunkBoundary) {
  const SimFastq& fastq = sim_fastq();
  constexpr std::size_t kBatch = 37;
  // Enough batches that the skipped prefix ends past the first chunk.
  const auto records_in_first_chunk = static_cast<std::size_t>(
      std::count(fastq.text.begin(), fastq.text.begin() + kChunk, '\n') / 4);
  const std::size_t skip = records_in_first_chunk / kBatch + 1;
  ASSERT_GT(fastq.reads.size(), (skip + 1) * kBatch);
  std::istringstream in(fastq.text);
  BatchStream stream(in, kBatch);
  EXPECT_EQ(stream.skip(skip), skip * kBatch);
  ReadBatch batch;
  ASSERT_TRUE(stream.next(batch));
  EXPECT_EQ(batch.index, skip);
  EXPECT_EQ(batch.first_record, skip * kBatch);
  ASSERT_EQ(batch.reads.size(), kBatch);
  for (SeqId b = 0; b < batch.reads.size(); ++b) {
    expect_read(fastq.reads, static_cast<SeqId>(skip * kBatch + b),
                batch.reads.name(b), batch.reads.bases(b));
  }
}

TEST(LoadInto, AppendsFastqAfterExistingSequences) {
  const std::string path = ::testing::TempDir() + "/jem_io_test_append.fq";
  {
    std::ofstream out(path, std::ios::binary);
    out << "@r1 c\r\nacgtNN\r\n+\r\nIIIIII\r\n@r2\nA C G\n+\nIII\n";
  }
  SequenceSet set;
  set.add("first", "TTTT");
  load_into(path, set);
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.bases(0), "TTTT");
  EXPECT_EQ(set.name(1), "r1");
  EXPECT_EQ(set.bases(1), "ACGTNN");
  EXPECT_EQ(set.name(2), "r2");
  EXPECT_EQ(set.bases(2), "ACG");
  EXPECT_EQ(set.total_bases(), 13u);
}

}  // namespace
}  // namespace jem::io
