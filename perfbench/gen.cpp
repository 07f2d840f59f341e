// `jembench gen`: simulates the seeded inputs of one dataset and writes them
// as the files the workloads read (bench.hpp DataDir). Simulation and
// compression use four threads; no workload times any of this.
#include <algorithm>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "io/fasta.hpp"
#include "io/gzip.hpp"
#include "sim/genome.hpp"
#include "util/prng.hpp"

namespace jembench {
namespace {

namespace io = jem::io;
namespace sim = jem::sim;

constexpr std::size_t kParts = 4;

/// Runs fn(0 .. kParts-1) on kParts threads; rethrows the first failure.
void parallel_parts(const std::function<void(std::size_t)>& fn) {
  std::vector<std::exception_ptr> errors(kParts);
  {
    std::vector<std::jthread> threads;
    for (std::size_t part = 0; part < kParts; ++part) {
      threads.emplace_back([&, part] {
        try {
          fn(part);
        } catch (...) {
          errors[part] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

/// A dataset: Table I densities at a fixed genome size.
struct Shape {
  std::uint64_t genome_bp;
  double gc;
  double repeat_fraction;
  double contig_mean;
  double contig_sd;
  double subject_coverage;
  std::size_t reads;
  double read_mean;
  double read_sd;
  std::uint64_t read_min;
  std::uint64_t read_max;
};

// "Human chr 8" densities (repeat-rich), ~4 Mbp of contigs and ~80 Mbp of
// ~10 kbp HiFi reads.
constexpr Shape kShape{5'200'000, 0.40, 0.28, 2053, 1876, 0.762,
                       8000,      10200, 3402, 1000, 30000};

/// `shape.reads` HiFi reads, simulated in kParts independently seeded
/// chunks and renumbered read_0, read_1, ...
sim::SimulatedReads simulate_reads(const std::string& genome,
                                   const Shape& shape, std::uint64_t seed) {
  std::vector<sim::SimulatedReads> parts(kParts);
  parallel_parts([&](std::size_t part) {
    const std::size_t count =
        shape.reads / kParts + (part < shape.reads % kParts ? 1 : 0);
    sim::HiFiParams params;
    params.mean_length = shape.read_mean;
    params.sd_length = shape.read_sd;
    params.min_length = shape.read_min;
    params.max_length = shape.read_max;
    // simulate_hifi_reads draws coverage * |genome| / mean_length reads.
    params.coverage = (static_cast<double>(count) + 0.5) * shape.read_mean /
                      static_cast<double>(genome.size());
    params.seed = jem::util::mix64(seed ^ (0x30 + part));
    parts[part] = sim::simulate_hifi_reads(genome, params);
  });

  sim::SimulatedReads out;
  std::uint64_t bases = 0;
  for (const sim::SimulatedReads& part : parts) {
    bases += part.reads.total_bases();
  }
  out.reads.reserve(shape.reads, bases);
  for (const sim::SimulatedReads& part : parts) {
    for (io::SeqId id = 0; id < part.reads.size(); ++id) {
      out.reads.add("read_" + std::to_string(out.reads.size()),
                    part.reads.bases(id));
      out.truth.push_back(part.truth[id]);
    }
  }
  return out;
}

/// FASTQ text of `reads` (constant quality), gzip-compressed as one member
/// per thread: a multi-member file, as bgzip-style tools write.
std::string fastq_gz(const io::SequenceSet& reads) {
  std::string text;
  text.reserve(2 * reads.total_bases() + 32 * reads.size());
  for (io::SeqId id = 0; id < reads.size(); ++id) {
    text += '@';
    text += reads.name(id);
    text += '\n';
    text += reads.bases(id);
    text += "\n+\n";
    text.append(reads.length(id), 'I');
    text += '\n';
  }
  std::vector<std::size_t> cuts{0};
  for (std::size_t part = 1; part < kParts; ++part) {
    const std::size_t at =
        text.find("\n@", std::max(cuts.back(), part * text.size() / kParts));
    cuts.push_back(at == std::string::npos ? text.size() : at + 1);
  }
  cuts.push_back(text.size());
  std::vector<std::string> members(kParts);
  parallel_parts([&](std::size_t part) {
    members[part] = io::gzip_compress(std::string_view(text).substr(
        cuts[part], cuts[part + 1] - cuts[part]));
  });
  std::string out;
  for (const std::string& member : members) out += member;
  return out;
}

void write_bytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace

int cmd_gen(const Args& args) {
  const std::uint64_t seed = args.num("seed");
  const DataDir out{args.str("dir")};

  sim::GenomeParams genome_params;
  genome_params.length = kShape.genome_bp;
  genome_params.gc = kShape.gc;
  genome_params.repeat_fraction = kShape.repeat_fraction;
  genome_params.seed = jem::util::mix64(seed ^ 0x01);
  const std::string genome = sim::simulate_genome(genome_params);

  sim::ContigSimParams contig_params;
  contig_params.mean_length = kShape.contig_mean;
  contig_params.sd_length = kShape.contig_sd;
  contig_params.coverage_fraction = kShape.subject_coverage;
  contig_params.seed = jem::util::mix64(seed ^ 0x02);
  const sim::SimulatedContigs contigs =
      sim::simulate_contigs(genome, contig_params);
  const sim::SimulatedReads reads = simulate_reads(genome, kShape, seed);

  {
    std::ofstream fasta(out.contigs());
    io::write_fasta(fasta, contigs.contigs);
    if (!fasta) throw std::runtime_error("cannot write " + out.contigs());
  }
  write_bytes(out.reads(), fastq_gz(reads.reads));
  write_truth(out.truth(), Truth{contigs.truth, reads.truth});

  std::cout << "dataset, seed " << seed << ": " << contigs.contigs.size()
            << " contigs (" << contigs.contigs.total_bases() << " bp), "
            << reads.reads.size() << " reads ("
            << reads.reads.total_bases() << " bp)\n";
  return 0;
}

}  // namespace jembench
