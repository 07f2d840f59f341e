#include "cli/cli.hpp"

#include <iostream>
#include <sstream>

#include "io/fasta.hpp"
#include "sim/contigs.hpp"
#include "sim/genome.hpp"
#include "sim/hifi_reads.hpp"

namespace jem::cli {

namespace {

constexpr Command kCommands[] = {
    {"map", "map long reads to contigs and write a mapping TSV", run_map},
    {"build-index", "sketch subjects and write the frozen index artifact",
     run_build_index},
    {"serve", "always-on mapping service over local HTTP", run_serve},
    {"probe", "exercise a running `jem serve` (health, metrics, mapping)",
     run_probe},
};

}  // namespace

std::span<const Command> commands() noexcept { return kCommands; }

std::string main_usage() {
  std::ostringstream out;
  out << "usage: jem <command> [options]\n\ncommands:\n";
  for (const Command& command : kCommands) {
    out << "  " << command.name;
    for (std::size_t pad = command.name.size(); pad < 14; ++pad) out << ' ';
    out << command.summary << '\n';
  }
  out << "\nRun `jem <command> --help` for the command's options.\n";
  return out.str();
}

int dispatch(int argc, const char* const* argv) {
  if (argc < 2) {
    std::cerr << main_usage();
    return kExitUsage;
  }
  const std::string_view name = argv[1];
  if (name == "help" || name == "--help" || name == "-h") {
    std::cout << main_usage();
    return kExitOk;
  }
  const std::span<const char* const> rest(argv + 2,
                                          static_cast<std::size_t>(argc - 2));
  for (const Command& command : kCommands) {
    if (name == command.name) {
      return command.run(rest, std::string("jem ") + std::string(name));
    }
  }
  std::cerr << "error: unknown command '" << name << "'\n" << main_usage();
  return kExitUsage;
}

void make_demo_dataset(std::uint64_t seed, io::SequenceSet& subjects,
                       io::SequenceSet& reads) {
  sim::GenomeParams genome_params;
  genome_params.length = 400'000;
  genome_params.seed = seed;
  const std::string genome = sim::simulate_genome(genome_params);
  sim::ContigSimParams contig_params;
  contig_params.seed = seed + 1;
  const auto contigs = sim::simulate_contigs(genome, contig_params);
  sim::HiFiParams read_params;
  read_params.coverage = 4.0;
  read_params.seed = seed + 2;
  const auto simulated = sim::simulate_hifi_reads(genome, read_params);
  for (io::SeqId id = 0; id < contigs.contigs.size(); ++id) {
    subjects.add(contigs.contigs.name(id), contigs.contigs.bases(id));
  }
  for (io::SeqId id = 0; id < simulated.reads.size(); ++id) {
    reads.add(simulated.reads.name(id), simulated.reads.bases(id));
  }
}

void SketchFlags::add_to(util::Options& options) {
  options.add_string("scheme", scheme, "sketch scheme: jem | minhash");
  options.add_string("ordering", ordering, "minimizer ordering: lex | hash");
  options.add_uint("k", k, "k-mer size (default 16)");
  options.add_uint("w", w, "minimizer window in k-mers (default 100)");
  options.add_uint("trials", trials, "number of MinHash trials T (default 30)");
  options.add_uint("segment", segment, "end-segment length l (default 1000)");
  options.add_uint("seed", seed, "experiment seed");
}

std::optional<core::ServiceConfig> SketchFlags::build() const {
  try {
    return core::ServiceConfig::make()
        .k(k)
        .window(w)
        .trials(trials)
        .segment_length(segment)
        .seed(seed)
        .ordering(ordering)
        .scheme(scheme)
        .build();
  } catch (const core::ServiceError& error) {
    std::cerr << "error: " << error.what() << '\n';
    return std::nullopt;
  }
}

int load_subjects(bool demo, const std::string& path, std::uint64_t seed,
                  const util::Options& options, std::string_view program,
                  io::SequenceSet& subjects) {
  try {
    if (demo) {
      io::SequenceSet unused_reads;
      make_demo_dataset(seed, subjects, unused_reads);
    } else {
      if (path.empty()) {
        std::cerr << "error: --subjects is required (or use --demo)\n"
                  << options.usage(program);
        return kExitUsage;
      }
      io::load_into(path, subjects);
    }
  } catch (const std::exception& error) {
    std::cerr << "input error: " << error.what() << '\n';
    return kExitRuntime;
  }
  return kExitOk;
}

}  // namespace jem::cli
