// verify_mappings — the productionized Fig 9 pipeline: given the contigs,
// the reads, and a mapping TSV produced by jem_map, verify every mapped
// end segment by exact local alignment (the paper used BLAST), print the
// percent-identity histogram, and optionally emit the verified alignments
// as SAM for downstream tools.
//
//   verify_mappings --subjects contigs.fa --queries reads.fq
//       --mappings mappings.tsv [--sam out.sam] [--max N]
#include <fstream>
#include <iostream>

#include "align/identity.hpp"
#include "core/jem.hpp"
#include "eval/report.hpp"
#include "io/sam.hpp"
#include "util/options.hpp"
#include "util/string_util.hpp"

int main(int argc, const char** argv) {
  using namespace jem;

  std::string subjects_path;
  std::string queries_path;
  std::string mappings_path;
  std::string sam_path;
  std::uint64_t max_records = 0;
  std::uint64_t k = 16;
  std::uint64_t w = 100;
  util::Options options;
  options.add_string("subjects", subjects_path, "contigs FASTA path");
  options.add_string("queries", queries_path, "long-read FASTA/FASTQ path");
  options.add_string("mappings", mappings_path, "mapping TSV from jem_map");
  options.add_string("sam", sam_path, "optional SAM output path");
  options.add_uint("max", max_records, "verify at most N mappings (0 = all)");
  options.add_uint("k", k, "k-mer size for the alignment anchor");
  options.add_uint("w", w, "minimizer window for the alignment anchor");
  if (const auto exit_code = options.parse_command(
          {argv + 1, static_cast<std::size_t>(argc - 1)}, "verify_mappings")) {
    return *exit_code;
  }
  if (subjects_path.empty() || queries_path.empty() ||
      mappings_path.empty()) {
    std::cerr << "error: --subjects, --queries and --mappings are required\n"
              << options.usage("verify_mappings");
    return 2;
  }

  io::SequenceSet subjects;
  io::SequenceSet reads;
  std::vector<io::MappingLine> lines;
  try {
    io::load_into(subjects_path, subjects);
    io::load_into(queries_path, reads);
    std::ifstream in(mappings_path);
    if (!in) throw std::runtime_error("cannot open " + mappings_path);
    lines = io::read_mappings(in);
  } catch (const std::exception& error) {
    std::cerr << "input error: " << error.what() << '\n';
    return 1;
  }

  align::IdentityParams id_params;
  id_params.minimizer = {static_cast<int>(k), static_cast<int>(w)};

  std::vector<double> identities;
  std::vector<io::SamRecord> sam_records;
  std::uint64_t verified = 0;
  std::uint64_t skipped = 0;
  for (const io::MappingLine& line : lines) {
    if (!line.mapped()) continue;
    if (max_records != 0 && verified >= max_records) break;
    const io::SeqId read = reads.find(line.query);
    const io::SeqId subject = subjects.find(line.subject);
    if (read == io::kInvalidSeqId || subject == io::kInvalidSeqId) {
      ++skipped;
      continue;
    }
    // Locate the segment this line describes.
    std::string_view segment;
    const auto segments = line.end == 'I'
                              ? core::extract_tiled_segments(
                                    read, reads.bases(read),
                                    line.segment_length)
                              : core::extract_end_segments(
                                    read, reads.bases(read),
                                    line.segment_length);
    for (const core::EndSegment& candidate : segments) {
      if (core::read_end_tag(candidate.end) == line.end) {
        segment = candidate.bases;
        break;
      }
    }
    if (segment.empty()) {
      ++skipped;
      continue;
    }

    const auto result = align::segment_identity(
        segment, subjects.bases(subject), id_params);
    if (!result.has_value()) {
      ++skipped;
      continue;
    }
    ++verified;
    identities.push_back(100.0 * result->identity);

    if (!sam_path.empty()) {
      io::SamRecord rec;
      rec.qname = line.query;
      rec.qname += '/';
      rec.qname += line.end;
      rec.flag = result->reverse ? io::SamRecord::kReverse : 0;
      rec.rname = line.subject;
      rec.pos = result->subject_begin + 1;  // SAM is 1-based
      rec.mapq = static_cast<std::uint32_t>(
          std::min(60.0, result->identity * 60.0));
      rec.cigar = align::cigar_string(result->cigar);
      rec.seq = result->reverse
                    ? core::reverse_complement(segment)
                    : std::string(segment);
      sam_records.push_back(std::move(rec));
    }
  }

  const auto bins = eval::make_histogram(identities, 80.0, 100.0, 10);
  std::cout << "verified " << verified << " mappings (" << skipped
            << " skipped)\n\n"
            << eval::render_histogram(bins);
  std::uint64_t above95 = 0;
  for (double identity : identities) {
    if (identity >= 95.0) ++above95;
  }
  std::cout << "\nidentity >= 95 %: " << above95 << " / " << identities.size()
            << " ("
            << util::fixed(identities.empty()
                               ? 0.0
                               : 100.0 * static_cast<double>(above95) /
                                     static_cast<double>(identities.size()),
                           1)
            << " %)\n";

  if (!sam_path.empty()) {
    std::ofstream sam(sam_path);
    if (!sam) {
      std::cerr << "error: cannot write " << sam_path << '\n';
      return 1;
    }
    io::write_sam_header(sam, subjects);
    io::write_sam_records(sam, sam_records);
    std::cout << "wrote " << sam_records.size() << " SAM records to "
              << sam_path << '\n';
  }
  return 0;
}
