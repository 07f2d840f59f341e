// make_dataset — materializes a simulated benchmark data set as files, so
// the jem_map CLI (and external tools) can be run on realistic inputs:
//
//   <prefix>_contigs.fa     the draft assembly (subjects)
//   <prefix>_reads.fq.gz    HiFi long reads (queries, gzip)
//   <prefix>_truth.tsv      ground-truth coordinates for both
//
// Run:  ./make_dataset --preset "E. coli" --cap-bp 1000000 --prefix ecoli
#include <fstream>
#include <iostream>
#include <sstream>

#include "io/fasta.hpp"
#include "io/gzip.hpp"
#include "sim/presets.hpp"
#include "util/options.hpp"
#include "util/string_util.hpp"

int main(int argc, const char** argv) {
  using namespace jem;

  std::string preset_name = "E. coli";
  std::string prefix = "dataset";
  std::uint64_t cap_bp = 1'000'000;
  std::uint64_t seed = 22;
  util::Options options;
  options.add_string("preset", preset_name,
                     "Table I preset name (e.g. \"E. coli\", \"Human chr 7\")");
  options.add_string("prefix", prefix, "output file prefix");
  options.add_uint("cap-bp", cap_bp, "max simulated genome bases");
  options.add_uint("seed", seed, "experiment seed");
  // --help prints the usage (exit 0); a malformed line is exit 2.
  if (const auto exit_code = options.parse_command(
          {argv + 1, static_cast<std::size_t>(argc - 1)}, "make_dataset")) {
    return *exit_code;
  }

  sim::Dataset dataset;
  try {
    const sim::DatasetPreset& preset = sim::preset_by_name(preset_name);
    const double scale =
        std::min(1.0, static_cast<double>(cap_bp) /
                          static_cast<double>(preset.genome_length));
    dataset = sim::generate_dataset(preset, scale, seed);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\navailable presets:\n";
    for (const auto& preset : sim::table1_presets()) {
      std::cerr << "  \"" << preset.name << "\"\n";
    }
    return 1;
  }

  // Contigs as FASTA.
  const std::string contigs_path = prefix + "_contigs.fa";
  {
    std::ofstream out(contigs_path);
    io::write_fasta(out, dataset.contigs.contigs);
  }

  // Reads as gzip FASTQ.
  const std::string reads_path = prefix + "_reads.fq.gz";
  {
    std::ostringstream fastq;
    std::vector<io::SequenceRecord> records;
    records.reserve(dataset.reads.reads.size());
    for (io::SeqId id = 0; id < dataset.reads.reads.size(); ++id) {
      io::SequenceRecord rec;
      rec.name = std::string(dataset.reads.reads.name(id));
      rec.bases = std::string(dataset.reads.reads.bases(id));
      records.push_back(std::move(rec));
    }
    io::write_fastq(fastq, records);
    std::ofstream out(reads_path, std::ios::binary);
    const std::string compressed = io::gzip_compress(fastq.str());
    out.write(compressed.data(),
              static_cast<std::streamsize>(compressed.size()));
  }

  // Ground truth for both sets.
  const std::string truth_path = prefix + "_truth.tsv";
  {
    std::ofstream out(truth_path);
    out << "# type\tname\tgenome_begin\tgenome_end\treverse\n";
    for (io::SeqId id = 0; id < dataset.contigs.contigs.size(); ++id) {
      const sim::Interval& truth = dataset.contigs.truth[id];
      out << "contig\t" << dataset.contigs.contigs.name(id) << '\t'
          << truth.begin << '\t' << truth.end << '\t'
          << (dataset.contigs.reversed[id] ? 1 : 0) << '\n';
    }
    for (io::SeqId id = 0; id < dataset.reads.reads.size(); ++id) {
      const sim::ReadTruth& truth = dataset.reads.truth[id];
      out << "read\t" << dataset.reads.reads.name(id) << '\t'
          << truth.interval.begin << '\t' << truth.interval.end << '\t'
          << (truth.reverse ? 1 : 0) << '\n';
    }
  }

  std::cout << "wrote " << contigs_path << " ("
            << dataset.contigs.contigs.size() << " contigs, "
            << util::human_bp(dataset.contigs.contigs.total_bases())
            << "), " << reads_path << " (" << dataset.reads.reads.size()
            << " reads, "
            << util::human_bp(dataset.reads.reads.total_bases()) << "), "
            << truth_path << '\n';
  std::cout << "map them with:\n  jem_map --subjects " << contigs_path
            << " --queries " << reads_path << " --output mappings.tsv\n";
  return 0;
}
