// The parallel index build (sketch_subjects + SketchTable::from_entries)
// must produce the same JEMIDX1 bytes at every thread count: pinned to a
// golden digest of the serial build, checked on edge-case subject sets, and
// checked against an oracle table built from the allocating make_sketch.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/index_serde.hpp"
#include "core/mapper.hpp"
#include "io/artifact.hpp"
#include "sim/contigs.hpp"
#include "sim/genome.hpp"
#include "util/prng.hpp"

namespace jem::core {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 3, 4, 8};

/// A seeded simulated contig set: 90 contigs, ~139 kbp.
io::SequenceSet golden_subjects() {
  sim::GenomeParams genome;
  genome.length = 150'000;
  genome.repeat_fraction = 0.05;
  genome.seed = 16;
  sim::ContigSimParams contigs;
  contigs.seed = 17;
  contigs.mean_length = 1500.0;
  contigs.sd_length = 1500.0;
  return sim::simulate_contigs(sim::simulate_genome(genome), contigs).contigs;
}

SketchTable build(const io::SequenceSet& subjects, const MapParams& params,
                  SketchScheme scheme, std::size_t threads) {
  const HashFamily hashes(params.trials, params.seed);
  return SketchTable::from_entries(
      params.trials,
      sketch_subjects(subjects, 0, static_cast<io::SeqId>(subjects.size()),
                      params, scheme, hashes, threads),
      threads);
}

std::string artifact(const io::SequenceSet& subjects, const MapParams& params,
                     SketchScheme scheme, std::size_t threads) {
  return serialize_index(build(subjects, params, scheme, threads), params,
                         scheme, subjects);
}

/// The reference S: every subject's allocating make_sketch, inserted into
/// an ordered map from (trial, kmer) to the subject set.
using Oracle = std::map<std::pair<int, KmerCode>, std::set<io::SeqId>>;

Oracle oracle_table(const io::SequenceSet& subjects, const MapParams& params,
                    SketchScheme scheme) {
  const HashFamily hashes(params.trials, params.seed);
  Oracle oracle;
  for (io::SeqId id = 0; id < subjects.size(); ++id) {
    const Sketch sketch =
        make_sketch(subjects.bases(id), params, scheme, hashes);
    for (int t = 0; t < sketch.trials(); ++t) {
      for (const KmerCode kmer : sketch.per_trial[static_cast<std::size_t>(t)]) {
        oracle[{t, kmer}].insert(id);
      }
    }
  }
  return oracle;
}

Oracle contents(const SketchTable& table) {
  Oracle out;
  for (const SketchEntry& entry : table.to_entries()) {
    out[{static_cast<int>(entry.trial), entry.kmer}].insert(entry.subject);
  }
  return out;
}

/// Every thread count builds the oracle's contents and the serial build's
/// exact artifact bytes.
void expect_identical_at_every_thread_count(const io::SequenceSet& subjects,
                                            const MapParams& params) {
  for (const SketchScheme scheme :
       {SketchScheme::kJem, SketchScheme::kClassicMinhash}) {
    const Oracle oracle = oracle_table(subjects, params, scheme);
    const std::string serial = artifact(subjects, params, scheme, 1);
    for (const std::size_t threads : kThreadCounts) {
      const SketchTable table = build(subjects, params, scheme, threads);
      EXPECT_EQ(contents(table), oracle) << "threads " << threads;
      EXPECT_EQ(serialize_index(table, params, scheme, subjects), serial)
          << "threads " << threads;
    }
  }
}

MapParams small_params() {
  const MapParams params{
      .k = 15, .w = 10, .trials = 6, .segment_length = 400};
  params.validate();
  return params;
}

std::string random_dna(util::Xoshiro256ss& rng, std::size_t length) {
  std::string seq(length, 'A');
  for (char& c : seq) c = "ACGT"[rng.bounded(4)];
  return seq;
}

TEST(IndexBuild, GoldenArtifactAtEveryThreadCount) {
  // Digests of the artifact bytes (format version 3) the serial build
  // writes for this subject set under the default (paper) parameters.
  const io::SequenceSet subjects = golden_subjects();
  ASSERT_EQ(subjects.size(), 90u);
  const MapParams params;
  for (const std::size_t threads : kThreadCounts) {
    EXPECT_EQ(io::xxh64(artifact(subjects, params, SketchScheme::kJem,
                                 threads)),
              0xb9258da624b42310ull)
        << "threads " << threads;
  }
}

TEST(IndexBuild, GoldenArtifactAtEveryThreadCountClassicMinhash) {
  const io::SequenceSet subjects = golden_subjects();
  const MapParams params;
  for (const std::size_t threads : kThreadCounts) {
    EXPECT_EQ(io::xxh64(artifact(subjects, params,
                                 SketchScheme::kClassicMinhash, threads)),
              0xa85f070bd7e75c57ull)
        << "threads " << threads;
  }
}

/// xxh64 of the FLATGEO, FLATSLOT, FLATTRI and FLATSUB payloads of an
/// artifact.
std::array<std::uint64_t, 4> flat_digests(std::string bytes) {
  const io::ArtifactReader reader(std::move(bytes), kIndexArtifactMagic,
                                  kIndexArtifactVersion);
  return {io::xxh64(reader.section("FLATGEO")),
          io::xxh64(reader.section("FLATSLOT")),
          io::xxh64(reader.section("FLATTRI")),
          io::xxh64(reader.section("FLATSUB"))};
}

TEST(IndexBuild, GoldenFlatSectionsAtEveryThreadCount) {
  // The flat index's own bytes, apart from the container around them: the
  // capacity, the slot array of the one k-mer-keyed table and its two
  // postings arrays, the same at every thread count.
  const io::SequenceSet subjects = golden_subjects();
  const MapParams params;
  struct Golden {
    SketchScheme scheme;
    std::array<std::uint64_t, 4> digests;
  };
  for (const Golden& golden :
       {Golden{SketchScheme::kJem,
               {0x92c09d4dde0cbb4aull, 0xc863004f1813c8d2ull,
                0x5c7bd00c25ce9bc6ull, 0x67a85c51866531faull}},
        Golden{SketchScheme::kClassicMinhash,
               {0x92c09d4dde0cbb4aull, 0x8f9b2cb3fa838fc5ull,
                0x2e7198ad618cee07ull, 0xd2bd65e8546c3ae7ull}}}) {
    for (const std::size_t threads : kThreadCounts) {
      EXPECT_EQ(flat_digests(artifact(subjects, params, golden.scheme,
                                      threads)),
                golden.digests)
          << "scheme " << static_cast<int>(golden.scheme) << " threads "
          << threads;
    }
  }
}

TEST(IndexBuild, ConstructorBuildMatchesSerialBuild) {
  // JemMapper builds on every hardware thread; the artifact is the serial
  // build's.
  const io::SequenceSet subjects = golden_subjects();
  const MapParams params = small_params();
  const JemMapper mapper(subjects, params);
  EXPECT_EQ(serialize_index(mapper.table(), params, SketchScheme::kJem,
                            subjects),
            artifact(subjects, params, SketchScheme::kJem, 1));
}

TEST(IndexBuild, EmptySubjectSet) {
  const io::SequenceSet subjects;
  const MapParams params = small_params();
  for (const std::size_t threads : kThreadCounts) {
    const SketchTable table =
        build(subjects, params, SketchScheme::kJem, threads);
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.trials(), params.trials);
  }
  expect_identical_at_every_thread_count(subjects, params);
}

TEST(IndexBuild, FewerSubjectsThanThreads) {
  util::Xoshiro256ss rng(21);
  io::SequenceSet subjects;
  subjects.add("a", random_dna(rng, 2500));
  subjects.add("b", random_dna(rng, 1800));
  subjects.add("c", random_dna(rng, 3100));
  expect_identical_at_every_thread_count(subjects, small_params());
}

TEST(IndexBuild, SubjectsShorterThanK) {
  util::Xoshiro256ss rng(22);
  io::SequenceSet subjects;
  subjects.add("short0", "ACGTACG");
  subjects.add("long", random_dna(rng, 2000));
  subjects.add("short1", "");
  subjects.add("short2", random_dna(rng, 14));  // k - 1 bases
  subjects.add("tail", random_dna(rng, 900));
  const MapParams params = small_params();
  const SketchTable table = build(subjects, params, SketchScheme::kJem, 4);
  for (const SketchEntry& entry : table.to_entries()) {
    EXPECT_TRUE(entry.subject == 1 || entry.subject == 4);
  }
  expect_identical_at_every_thread_count(subjects, params);
}

TEST(IndexBuild, AllNSubject) {
  util::Xoshiro256ss rng(23);
  io::SequenceSet subjects;
  subjects.add("x", random_dna(rng, 1500));
  subjects.add("gap", std::string(5000, 'N'));
  subjects.add("y", random_dna(rng, 1500));
  const MapParams params = small_params();
  const SketchTable table = build(subjects, params, SketchScheme::kJem, 3);
  for (const SketchEntry& entry : table.to_entries()) {
    EXPECT_NE(entry.subject, 1u);
  }
  expect_identical_at_every_thread_count(subjects, params);
}

TEST(IndexBuild, OneSubjectHoldsMostBases) {
  // The base-balanced split puts the giant in a part of its own and leaves
  // the other parts small or empty.
  util::Xoshiro256ss rng(24);
  io::SequenceSet subjects;
  subjects.add("tiny0", random_dna(rng, 600));
  subjects.add("giant", random_dna(rng, 40'000));
  for (int i = 0; i < 6; ++i) {
    subjects.add("tiny" + std::to_string(i + 1), random_dna(rng, 500));
  }
  expect_identical_at_every_thread_count(subjects, small_params());
}

TEST(IndexBuild, SketchSubjectsCoversOnlyTheRange) {
  const io::SequenceSet subjects = golden_subjects();
  const MapParams params = small_params();
  const HashFamily hashes(params.trials, params.seed);
  const std::vector<SketchEntry> all = sketch_subjects(
      subjects, 0, static_cast<io::SeqId>(subjects.size()), params,
      SketchScheme::kJem, hashes, 4);
  const std::vector<SketchEntry> part = sketch_subjects(
      subjects, 10, 40, params, SketchScheme::kJem, hashes, 3);
  std::vector<SketchEntry> expected;
  for (const SketchEntry& entry : all) {
    if (entry.subject >= 10 && entry.subject < 40) expected.push_back(entry);
  }
  EXPECT_EQ(part, expected);  // subject-id order at any thread count
}

TEST(IndexBuild, PartitionByBasesSplitsASubrange) {
  const io::SequenceSet subjects = golden_subjects();
  for (const int parts : {1, 3, 8, 50}) {
    const auto ranges = partition_by_bases(subjects, parts, 20, 70);
    ASSERT_EQ(ranges.size(), static_cast<std::size_t>(parts));
    EXPECT_EQ(ranges.front().first, 20u);
    EXPECT_EQ(ranges.back().second, 70u);
    for (std::size_t r = 1; r < ranges.size(); ++r) {
      EXPECT_EQ(ranges[r].first, ranges[r - 1].second);
    }
  }
  EXPECT_EQ(partition_by_bases(subjects, 4),
            partition_by_bases(subjects, 4, 0,
                               static_cast<io::SeqId>(subjects.size())));
}

}  // namespace
}  // namespace jem::core
