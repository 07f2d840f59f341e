#include "core/mapper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "core/dna.hpp"
#include "core/sketch_lanes.hpp"
#include "oracle/kernels.hpp"
#include "oracle/sequential_mapper.hpp"
#include "sim/contigs.hpp"
#include "sim/genome.hpp"
#include "sim/hifi_reads.hpp"
#include "util/prng.hpp"

namespace jem::core {
namespace {

std::string random_dna(util::Xoshiro256ss& rng, std::size_t length) {
  std::string seq(length, 'A');
  for (char& c : seq) {
    c = code_base(static_cast<std::uint8_t>(rng.bounded(4)));
  }
  return seq;
}

/// Fixture: a genome cut into known contigs; queries taken from known spots.
class MapperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Xoshiro256ss rng(777);
    genome_ = random_dna(rng, 60'000);
    // Ten 6 Kbp contigs tiling the genome exactly.
    for (int i = 0; i < 10; ++i) {
      subjects_.add("contig_" + std::to_string(i),
                    genome_.substr(static_cast<std::size_t>(i) * 6000, 6000));
    }
    params_.k = 16;
    params_.w = 20;  // denser minimizers than default for small test inputs
    params_.trials = 16;
    params_.segment_length = 1000;
    params_.seed = 99;
  }

  std::string genome_;
  io::SequenceSet subjects_;
  MapParams params_;
};

TEST_F(MapperTest, MapsExactSegmentToItsContig) {
  const JemMapper mapper(subjects_, params_);
  for (int contig = 0; contig < 10; ++contig) {
    // A segment from the middle of each contig.
    const std::string segment =
        genome_.substr(static_cast<std::size_t>(contig) * 6000 + 2500, 1000);
    const MapResult result = mapper.map_segment(segment);
    ASSERT_TRUE(result.mapped()) << "contig " << contig;
    EXPECT_EQ(result.subject, static_cast<io::SeqId>(contig));
    EXPECT_GT(result.votes, params_.trials / 2u);
  }
}

TEST_F(MapperTest, MapsReverseComplementSegment) {
  const JemMapper mapper(subjects_, params_);
  const std::string segment = reverse_complement(genome_.substr(14'200, 1000));
  const MapResult result = mapper.map_segment(segment);
  ASSERT_TRUE(result.mapped());
  EXPECT_EQ(result.subject, 2u);  // 14200 / 6000
}

TEST_F(MapperTest, RandomSegmentDoesNotMapConfidently) {
  const JemMapper mapper(subjects_, params_);
  util::Xoshiro256ss rng(12345);
  const std::string unrelated = random_dna(rng, 1000);
  const MapResult result = mapper.map_segment(unrelated);
  // A random segment shares no 16-mers with the genome (w.h.p.): either
  // unmapped or a tiny accidental vote count.
  if (result.mapped()) {
    EXPECT_LE(result.votes, 2u);
  }
}

TEST_F(MapperTest, VotesNeverExceedTrials) {
  const JemMapper mapper(subjects_, params_);
  const MapResult result = mapper.map_segment(genome_.substr(30'500, 1000));
  ASSERT_TRUE(result.mapped());
  EXPECT_LE(result.votes, static_cast<std::uint32_t>(params_.trials));
}

TEST_F(MapperTest, MinVotesThresholdFiltersWeakHits) {
  MapParams strict = params_;
  strict.min_votes = static_cast<std::uint32_t>(params_.trials) + 1;
  const JemMapper mapper(subjects_, strict);
  // Even a perfect segment cannot reach trials+1 votes.
  const MapResult result = mapper.map_segment(genome_.substr(2500, 1000));
  EXPECT_FALSE(result.mapped());
  EXPECT_EQ(result.votes, 0u);
}

TEST_F(MapperTest, MapSegmentIsDeterministic) {
  const JemMapper mapper(subjects_, params_);
  const std::string segment = genome_.substr(25'000, 1000);
  const MapResult a = mapper.map_segment(segment);
  const MapResult b = mapper.map_segment(segment);
  EXPECT_EQ(a.subject, b.subject);
  EXPECT_EQ(a.votes, b.votes);
}

TEST_F(MapperTest, MapReadsEmitsPrefixAndSuffixSegments) {
  const JemMapper mapper(subjects_, params_);
  io::SequenceSet reads;
  // Read spanning contigs 1..2: prefix in contig 1, suffix in contig 2.
  reads.add("read_0", genome_.substr(7'000, 9'000));
  const auto mappings = oracle::map_reads(mapper, reads);
  ASSERT_EQ(mappings.size(), 2u);
  EXPECT_EQ(mappings[0].end, ReadEnd::kPrefix);
  EXPECT_EQ(mappings[1].end, ReadEnd::kSuffix);
  ASSERT_TRUE(mappings[0].result.mapped());
  ASSERT_TRUE(mappings[1].result.mapped());
  EXPECT_EQ(mappings[0].result.subject, 1u);  // 7000 / 6000
  EXPECT_EQ(mappings[1].result.subject, 2u);  // 15000 / 6000
}

TEST_F(MapperTest, ClassicMinhashSchemeAlsoMapsExactSegments) {
  const JemMapper mapper(subjects_, params_, SketchScheme::kClassicMinhash);
  // Classic MinHash compares whole-contig sketches against segment sketches;
  // an exact mid-contig segment may or may not share the global minimum, so
  // just verify the machinery runs and anything reported is plausible.
  const MapResult result = mapper.map_segment(genome_.substr(8'200, 1000));
  if (result.mapped()) {
    EXPECT_LT(result.subject, subjects_.size());
    EXPECT_LE(result.votes, static_cast<std::uint32_t>(params_.trials));
  }
}

TEST_F(MapperTest, ToMappingLinesResolvesNames) {
  const JemMapper mapper(subjects_, params_);
  io::SequenceSet reads;
  reads.add("my_read", genome_.substr(2'000, 3'000));
  const auto mappings = oracle::map_reads(mapper, reads);
  const auto lines = mapper.to_mapping_lines(reads, mappings);
  ASSERT_EQ(lines.size(), mappings.size());
  EXPECT_EQ(lines[0].query, "my_read");
  EXPECT_EQ(lines[0].trials, static_cast<std::uint32_t>(params_.trials));
  if (mappings[0].result.mapped()) {
    EXPECT_EQ(lines[0].subject,
              subjects_.name(mappings[0].result.subject));
  } else {
    EXPECT_FALSE(lines[0].mapped());
  }
}

TEST_F(MapperTest, AdoptedTableMatchesBuiltTable) {
  const HashFamily hashes(params_.trials, params_.seed);
  SketchTable table = SketchTable::from_entries(
      params_.trials,
      sketch_subjects(subjects_, 0, static_cast<io::SeqId>(subjects_.size()),
                      params_, SketchScheme::kJem, hashes));
  const JemMapper adopted(subjects_, params_, SketchScheme::kJem,
                          std::move(table));
  const JemMapper built(subjects_, params_);

  const std::string segment = genome_.substr(40'100, 1000);
  const MapResult a = adopted.map_segment(segment);
  const MapResult b = built.map_segment(segment);
  EXPECT_EQ(a.subject, b.subject);
  EXPECT_EQ(a.votes, b.votes);
}

TEST_F(MapperTest, AdoptedTableRejectsTrialMismatch) {
  SketchTable table(params_.trials + 1);
  EXPECT_THROW(
      JemMapper(subjects_, params_, SketchScheme::kJem, std::move(table)),
      std::invalid_argument);
}

TEST_F(MapperTest, TieBreakPrefersSmallestSubjectId) {
  // Two identical contigs: every trial hits both, votes tie, id 0 wins.
  io::SequenceSet twins;
  util::Xoshiro256ss rng(888);
  const std::string shared = random_dna(rng, 4000);
  twins.add("twin_a", shared);
  twins.add("twin_b", shared);
  const JemMapper mapper(twins, params_);
  const MapResult result = mapper.map_segment(shared.substr(1500, 1000));
  ASSERT_TRUE(result.mapped());
  EXPECT_EQ(result.subject, 0u);
}

TEST_F(MapperTest, TopXFrontEqualsBestHit) {
  const JemMapper mapper(subjects_, params_);
  MapScratch scratch(subjects_.size());
  const std::string segment = genome_.substr(20'300, 1000);
  const MapResult best = mapper.map_segment(segment, scratch);
  const auto topx = mapper.map_segment_topx(segment, 3, scratch);
  ASSERT_TRUE(best.mapped());
  ASSERT_FALSE(topx.empty());
  EXPECT_EQ(topx.front().subject, best.subject);
  EXPECT_EQ(topx.front().votes, best.votes);
}

TEST_F(MapperTest, TopXIsSortedByVotesThenId) {
  const JemMapper mapper(subjects_, params_);
  MapScratch scratch(subjects_.size());
  // A segment straddling two contigs produces at least two candidates.
  const std::string segment = genome_.substr(6000 - 500, 1000);
  const auto topx = mapper.map_segment_topx(segment, 5, scratch);
  ASSERT_GE(topx.size(), 2u);
  for (std::size_t i = 1; i < topx.size(); ++i) {
    const bool ordered =
        topx[i - 1].votes > topx[i].votes ||
        (topx[i - 1].votes == topx[i].votes &&
         topx[i - 1].subject < topx[i].subject);
    EXPECT_TRUE(ordered) << "index " << i;
  }
}

TEST_F(MapperTest, TopXRespectsLimit) {
  const JemMapper mapper(subjects_, params_);
  MapScratch scratch(subjects_.size());
  const std::string segment = genome_.substr(6000 - 500, 1000);
  EXPECT_LE(mapper.map_segment_topx(segment, 1, scratch).size(), 1u);
  EXPECT_LE(mapper.map_segment_topx(segment, 2, scratch).size(), 2u);
  EXPECT_TRUE(mapper.map_segment_topx(segment, 0, scratch).empty());
}

TEST_F(MapperTest, TopXOnUnrelatedSegmentIsEmptyOrWeak) {
  const JemMapper mapper(subjects_, params_);
  MapScratch scratch(subjects_.size());
  util::Xoshiro256ss rng(999);
  const std::string unrelated = random_dna(rng, 1000);
  const auto topx = mapper.map_segment_topx(unrelated, 5, scratch);
  for (const MapResult& hit : topx) {
    EXPECT_LE(hit.votes, 2u);
  }
}

TEST_F(MapperTest, MapReadsTopXCoversAllSegments) {
  const JemMapper mapper(subjects_, params_);
  io::SequenceSet reads;
  reads.add("r0", genome_.substr(3'000, 8'000));
  reads.add("r1", genome_.substr(30'000, 900));
  const auto topx = oracle::map_reads_topx(mapper, reads, 3, 0, 2);
  ASSERT_EQ(topx.size(), 3u);  // two ends + one short-read prefix
  EXPECT_EQ(topx[0].end, ReadEnd::kPrefix);
  EXPECT_EQ(topx[1].end, ReadEnd::kSuffix);
  EXPECT_FALSE(topx[0].hits.empty());
}

TEST_F(MapperTest, TopXTwinsBothReported) {
  io::SequenceSet twins;
  util::Xoshiro256ss rng(888);
  const std::string shared = random_dna(rng, 4000);
  twins.add("twin_a", shared);
  twins.add("twin_b", shared);
  const JemMapper mapper(twins, params_);
  MapScratch scratch(twins.size());
  const auto topx = mapper.map_segment_topx(shared.substr(1500, 1000), 2,
                                            scratch);
  ASSERT_EQ(topx.size(), 2u);
  EXPECT_EQ(topx[0].subject, 0u);
  EXPECT_EQ(topx[1].subject, 1u);
  EXPECT_EQ(topx[0].votes, topx[1].votes);
}

TEST_F(MapperTest, TiledMappingCoversInteriorSegments) {
  const JemMapper mapper(subjects_, params_);
  io::SequenceSet reads;
  reads.add("long_read", genome_.substr(2'000, 10'000));  // 10 tiles
  const auto tiled = oracle::map_reads_tiled(mapper, reads, 0, 1);
  ASSERT_EQ(tiled.size(), 10u);
  EXPECT_EQ(tiled.front().end, ReadEnd::kPrefix);
  EXPECT_EQ(tiled.back().end, ReadEnd::kSuffix);
  int interior = 0;
  for (const SegmentMapping& m : tiled) {
    if (m.end == ReadEnd::kInterior) ++interior;
    // Each tile should map to the contig its genome offset falls into.
    if (m.result.mapped()) {
      const std::size_t genome_pos = 2'000 + m.offset + 500;  // tile middle
      EXPECT_EQ(m.result.subject,
                static_cast<io::SeqId>(genome_pos / 6000));
    }
  }
  EXPECT_EQ(interior, 8);
}

TEST_F(MapperTest, HotPathMatchesReferencePathExactly) {
  // Golden equivalence of the query overhaul: the flat-index + scratch hot
  // path must return bit-identical results to the pre-overhaul allocating
  // CSR path on every kind of segment, with one scratch reused throughout.
  const JemMapper mapper(subjects_, params_);
  MapScratch scratch(subjects_.size());
  oracle::ReferenceCounters counters(subjects_.size());
  util::Xoshiro256ss rng(31337);
  for (int round = 0; round < 60; ++round) {
    std::string segment;
    switch (round % 4) {
      case 0:  // in-genome segment
        segment = genome_.substr(rng.bounded(genome_.size() - 1200),
                                 200 + rng.bounded(1000));
        break;
      case 1:  // reverse strand
        segment = reverse_complement(
            genome_.substr(rng.bounded(genome_.size() - 1000), 1000));
        break;
      case 2:  // unrelated sequence
        segment = random_dna(rng, 100 + rng.bounded(900));
        break;
      case 3:  // N-rich in-genome segment
        segment = genome_.substr(rng.bounded(genome_.size() - 1000), 1000);
        for (std::size_t i = 0; i < segment.size(); ++i) {
          if (rng.bounded(15) == 0) segment[i] = 'N';
        }
        break;
    }
    const MapResult fast = mapper.map_segment(segment, scratch);
    const MapResult reference =
        oracle::map_segment_reference(mapper, segment, counters);
    ASSERT_EQ(fast, reference) << "round " << round;
  }
}

TEST_F(MapperTest, PaperParametersHotPathMatchesReferenceOnSimReads) {
  // The fixture's w = 20 and T = 16 never reach the paper's window or trial
  // count, and map_segment_reference shares minimizer_scan with the hot
  // path. At k = 16, w = 100, T = 30, l = 1000, over every tile and end
  // segment of simulated HiFi reads against simulated contigs: the scratch
  // sketch equals the frozen deque kernel run on the naive scan, and
  // map_segment and map_segment_topx agree with the reference path.
  sim::GenomeParams genome_params;
  genome_params.length = 120'000;
  genome_params.repeat_fraction = 0.28;
  genome_params.seed = 21;
  const std::string genome = sim::simulate_genome(genome_params);
  sim::ContigSimParams contig_params;
  contig_params.seed = 22;
  const sim::SimulatedContigs contigs =
      sim::simulate_contigs(genome, contig_params);
  sim::HiFiParams read_params;
  read_params.coverage = 1.5;
  read_params.seed = 23;
  const io::SequenceSet reads =
      sim::simulate_hifi_reads(genome, read_params).reads;

  const MapParams params{.seed = 24};
  params.validate();
  ASSERT_EQ(params.w, 100);
  ASSERT_EQ(params.trials, 30);
  const JemMapper mapper(contigs.contigs, params);
  MapScratch scratch(contigs.contigs.size());
  oracle::ReferenceCounters counters(contigs.contigs.size());
  SketchScratch sketch_scratch;
  FlatSketch sketch;

  std::vector<std::string> segments;
  for (io::SeqId read = 0; read < reads.size(); ++read) {
    for (const EndSegment& segment : extract_tiled_segments(
             read, reads.bases(read), params.segment_length)) {
      segments.emplace_back(segment.bases);
    }
    for (const EndSegment& segment : extract_end_segments(
             read, reads.bases(read), params.segment_length)) {
      segments.emplace_back(segment.bases);
    }
  }
  ASSERT_GT(segments.size(), 100u);
  // No k-mer at all; one k-mer; one (truncated) window; k-mers only
  // between Ns.
  segments.emplace_back(std::string(1000, 'N'));
  segments.push_back(genome.substr(5000, 16));
  segments.push_back(genome.substr(9000, 80));
  segments.push_back(std::string(400, 'N') + genome.substr(12'000, 60) +
                     std::string(400, 'N'));

  const MinimizerParams scan{params.k, params.w, params.ordering};
  std::size_t mapped = 0;
  std::size_t tiny = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::string& segment = segments[i];
    const std::vector<Minimizer> minimizers =
        oracle::minimizer_scan_naive(segment, scan);
    if (minimizers.size() <= 1) ++tiny;
    const Sketch reference = oracle::sketch_by_jem_reference(
        minimizers, params.segment_length, mapper.hashes());
    make_sketch(segment, params, SketchScheme::kJem, mapper.hashes(),
                sketch_scratch, sketch);
    ASSERT_EQ(sketch.trials(), params.trials);
    for (int t = 0; t < params.trials; ++t) {
      // The flat list is the reference's set in no promised order: compare a
      // sorted copy, and check that no k-mer repeats.
      const std::span<const KmerCode> trial = sketch.trial(t);
      std::vector<KmerCode> sorted(trial.begin(), trial.end());
      std::sort(sorted.begin(), sorted.end());
      ASSERT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                sorted.end())
          << "segment " << i << " trial " << t;
      ASSERT_EQ(sorted, reference.per_trial[static_cast<std::size_t>(t)])
          << "segment " << i << " trial " << t;
    }

    const MapResult fast = mapper.map_segment(segment, scratch);
    ASSERT_EQ(fast, oracle::map_segment_reference(mapper, segment, counters))
        << "segment " << i;
    const std::vector<MapResult> top = mapper.map_segment_topx(segment, 3,
                                                               scratch);
    ASSERT_EQ(top, oracle::map_segment_topx_reference(mapper, segment, 3))
        << "segment " << i;
    if (fast.mapped()) {
      ++mapped;
      ASSERT_FALSE(top.empty()) << "segment " << i;
      ASSERT_EQ(top.front(), fast) << "segment " << i;
    } else {
      ASSERT_TRUE(top.empty()) << "segment " << i;
    }
  }
  EXPECT_GE(tiny, 4u);
  EXPECT_GT(mapped, segments.size() / 2);
}

/// map_segment and map_segment_topx against both oracles over in-genome
/// segments (one straddling each contig seam, the rest random), and
/// unrelated ones, through one scratch.
void expect_hot_path_matches_reference(const JemMapper& mapper,
                                       const std::string& genome,
                                       std::uint64_t seed) {
  const std::size_t subjects = mapper.subjects().size();
  MapScratch scratch(subjects);
  oracle::ReferenceCounters counters(subjects);
  util::Xoshiro256ss rng(seed);
  for (int round = 0; round < 40; ++round) {
    std::string segment;
    if (round < 9) {
      segment = genome.substr(static_cast<std::size_t>(round) * 6000 + 5500,
                              1000);
    } else if (round % 4 == 0) {
      segment = random_dna(rng, 1000);
    } else {
      segment = genome.substr(rng.bounded(genome.size() - 1000), 1000);
    }
    ASSERT_EQ(mapper.map_segment(segment, scratch),
              oracle::map_segment_reference(mapper, segment, counters))
        << "round " << round;
    ASSERT_EQ(mapper.map_segment_topx(segment, 4, scratch),
              oracle::map_segment_topx_reference(mapper, segment, 4))
        << "round " << round;
  }
}

TEST_F(MapperTest, HotPathMatchesReferenceUnderClassicMinhash) {
  const JemMapper mapper(subjects_, params_, SketchScheme::kClassicMinhash);
  expect_hot_path_matches_reference(mapper, genome_, 4242);
}

TEST_F(MapperTest, HotPathMatchesReferenceWithRaisedMinVotes) {
  // Seam segments split their votes between two contigs, so a raised
  // threshold drops some winners and trims some top-x lists.
  MapParams params = params_;
  params.min_votes = params.trials / 2;
  const JemMapper jem(subjects_, params);
  expect_hot_path_matches_reference(jem, genome_, 5151);
  const JemMapper minhash(subjects_, params, SketchScheme::kClassicMinhash);
  expect_hot_path_matches_reference(minhash, genome_, 6262);
}

TEST_F(MapperTest, HotPathMatchesReferenceAtAnyTrialCount) {
  // The vote pass keeps each k-mer's query trials in a bit set of T bits
  // and sorts the kept postings by trial: T = 1, 64 and 65 sit on the word
  // edges, 150 is the classic-MinHash trial count of Fig 6. Over simulated
  // read tiles, unrelated segments that hit nothing, and segments that
  // repeat one k-mer at several positions, map_segment and
  // map_segment_topx must equal the oracles, which read the table only
  // through per-trial lookup().
  sim::GenomeParams genome_params;
  genome_params.length = 40'000;
  genome_params.repeat_fraction = 0.2;
  genome_params.seed = 31;
  const std::string genome = sim::simulate_genome(genome_params);
  sim::ContigSimParams contig_params;
  contig_params.seed = 32;
  const sim::SimulatedContigs contigs =
      sim::simulate_contigs(genome, contig_params);
  sim::HiFiParams read_params;
  read_params.coverage = 1.0;
  read_params.seed = 33;
  const io::SequenceSet reads =
      sim::simulate_hifi_reads(genome, read_params).reads;

  util::Xoshiro256ss rng(34);
  std::vector<std::string> segments;
  for (io::SeqId read = 0; read < reads.size(); ++read) {
    for (const EndSegment& segment :
         extract_tiled_segments(read, reads.bases(read), 1000)) {
      segments.emplace_back(segment.bases);
    }
  }
  ASSERT_GT(segments.size(), 20u);
  for (int i = 0; i < 4; ++i) segments.push_back(random_dna(rng, 1000));
  // One genome k-mer (and its neighbourhood) repeated between random
  // spacers, and a tandem repeat of one short genome stretch.
  const std::string kmer = genome.substr(7000, 24);
  std::string repeated;
  for (int i = 0; i < 8; ++i) repeated += kmer + random_dna(rng, 90);
  segments.push_back(repeated);
  std::string tandem;
  while (tandem.size() < 1000) tandem += genome.substr(15'000, 40);
  segments.push_back(tandem);

  for (const int trials : {1, 30, 64, 65, 150}) {
    for (const SketchScheme scheme :
         {SketchScheme::kJem, SketchScheme::kClassicMinhash}) {
      const MapParams params{.trials = trials, .seed = 35};
      params.validate();
      const JemMapper mapper(contigs.contigs, params, scheme);
      MapScratch scratch(contigs.contigs.size());
      oracle::ReferenceCounters counters(contigs.contigs.size());
      std::size_t mapped = 0;
      for (std::size_t i = 0; i < segments.size(); ++i) {
        const MapResult fast = mapper.map_segment(segments[i], scratch);
        ASSERT_EQ(fast,
                  oracle::map_segment_reference(mapper, segments[i], counters))
            << "T " << trials << " scheme " << static_cast<int>(scheme)
            << " segment " << i;
        ASSERT_EQ(mapper.map_segment_topx(segments[i], 5, scratch),
                  oracle::map_segment_topx_reference(mapper, segments[i], 5))
            << "T " << trials << " scheme " << static_cast<int>(scheme)
            << " segment " << i;
        mapped += fast.mapped() ? 1 : 0;
      }
      EXPECT_GT(mapped, 0u) << "T " << trials;
    }
  }
}

TEST_F(MapperTest, SubjectUnderTwoKmersOfOneTrialEarnsOneVote) {
  // A hand-built table over the sketch of one segment: subject 0 sits under
  // two k-mers of one trial and one k-mer of another, subject 1 under one
  // k-mer of the first trial. Hits_r[t] is a set, so subject 0 earns two
  // votes (not three) and subject 1 one.
  const std::string segment = genome_.substr(12'000, 1000);
  const HashFamily hashes(params_.trials, params_.seed);
  SketchScratch sketch_scratch;
  FlatSketch sketch;
  make_sketch(segment, params_, SketchScheme::kJem, hashes, sketch_scratch,
              sketch);
  int doubled = -1;
  for (int t = 0; t < sketch.trials() && doubled < 0; ++t) {
    if (sketch.trial(t).size() >= 2) doubled = t;
  }
  ASSERT_GE(doubled, 0) << "no trial with two sketch k-mers";
  const int other = (doubled + 1) % params_.trials;
  ASSERT_FALSE(sketch.trial(other).empty());

  const auto trial = [](int t) { return static_cast<std::uint32_t>(t); };
  const std::vector<SketchEntry> entries{
      {sketch.trial(doubled)[0], trial(doubled), 0},
      {sketch.trial(doubled)[1], trial(doubled), 0},
      {sketch.trial(doubled)[1], trial(doubled), 1},
      {sketch.trial(other)[0], trial(other), 0},
  };
  io::SequenceSet subjects;
  subjects.add("two_kmers", genome_.substr(0, 1000));
  subjects.add("one_kmer", genome_.substr(1000, 1000));
  const JemMapper mapper(subjects, params_, SketchScheme::kJem,
                         SketchTable::from_entries(params_.trials, entries));

  MapScratch scratch(subjects.size());
  EXPECT_EQ(mapper.map_segment(segment, scratch), (MapResult{0, 2}));
  EXPECT_EQ(mapper.map_segment_topx(segment, 5, scratch),
            (std::vector<MapResult>{{0, 2}, {1, 1}}));
  oracle::ReferenceCounters counters(subjects.size());
  EXPECT_EQ(oracle::map_segment_reference(mapper, segment, counters),
            (MapResult{0, 2}));
  EXPECT_EQ(oracle::map_segment_topx_reference(mapper, segment, 5),
            (std::vector<MapResult>{{0, 2}, {1, 1}}));
}

TEST_F(MapperTest, SampledHotpathCountersMatchPerTrialLookupMany) {
  // Every segment sampled: each one's counter deltas must equal what
  // per-trial lookup_many calls over the same sketch report.
  const JemMapper mapper(subjects_, params_);
  const FlatSketchIndex& index = mapper.table().flat();
  MapScratch scratch(subjects_.size());
  scratch.hotpath().sample_every = 1;
  SketchScratch sketch_scratch;
  FlatSketch sketch;
  util::Xoshiro256ss rng(909);
  for (int round = 0; round < 24; ++round) {
    const std::string segment =
        round % 3 == 2
            ? random_dna(rng, 1000)
            : genome_.substr(rng.bounded(genome_.size() - 1000), 1000);
    make_sketch(segment, params_, SketchScheme::kJem, mapper.hashes(),
                sketch_scratch, sketch);
    HotpathCounters expected = scratch.hotpath();
    std::set<io::SeqId> candidates;
    // One probe per distinct k-mer of the sketch, in any trial: the table
    // is keyed by k-mer alone.
    const std::set<KmerCode> distinct(sketch.kmers.begin(),
                                      sketch.kmers.end());
    const std::vector<KmerCode> probes(distinct.begin(), distinct.end());
    std::vector<std::span<const io::SeqId>> unused(probes.size());
    expected.probe_slots += index.lookup_many(0, probes, unused);
    expected.kmer_probes += probes.size();
    for (int t = 0; t < sketch.trials(); ++t) {
      const std::span<const KmerCode> kmers = sketch.trial(t);
      std::vector<std::span<const io::SeqId>> postings(kmers.size());
      (void)index.lookup_many(t, kmers, postings);
      expected.kmer_lookups += kmers.size();
      for (const std::span<const io::SeqId> subjects : postings) {
        subjects.empty() ? ++expected.sketch_misses : ++expected.sketch_hits;
        candidates.insert(subjects.begin(), subjects.end());
      }
    }
    expected.candidates += candidates.size();
    ++expected.segments_seen;
    ++expected.segments_sampled;

    (void)mapper.map_segment(segment, scratch);
    const HotpathCounters& got = scratch.hotpath();
    EXPECT_EQ(got.segments_seen, expected.segments_seen);
    EXPECT_EQ(got.segments_sampled, expected.segments_sampled);
    EXPECT_EQ(got.kmer_lookups, expected.kmer_lookups) << "round " << round;
    EXPECT_EQ(got.sketch_hits, expected.sketch_hits) << "round " << round;
    EXPECT_EQ(got.sketch_misses, expected.sketch_misses) << "round " << round;
    EXPECT_EQ(got.kmer_probes, expected.kmer_probes) << "round " << round;
    EXPECT_EQ(got.probe_slots, expected.probe_slots) << "round " << round;
    EXPECT_EQ(got.candidates, expected.candidates) << "round " << round;
  }
  EXPECT_GT(scratch.hotpath().sketch_hits, 0u);
  EXPECT_GT(scratch.hotpath().sketch_misses, 0u);
}

TEST_F(MapperTest, TopXReusesScratchAcrossCalls) {
  // map_segment_topx now keeps its touched list in the scratch; repeated
  // calls must not leak state between segments, and the front hit must
  // stay equal to map_segment's winner.
  const JemMapper mapper(subjects_, params_);
  MapScratch scratch(subjects_.size());
  for (int contig = 0; contig < 10; ++contig) {
    const std::string segment =
        genome_.substr(static_cast<std::size_t>(contig) * 6000 + 3000, 1000);
    const auto hits = mapper.map_segment_topx(segment, 5, scratch);
    const MapResult best = mapper.map_segment(segment, scratch);
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(hits.front(), best);
    for (std::size_t i = 1; i < hits.size(); ++i) {
      const bool ordered =
          hits[i - 1].votes > hits[i].votes ||
          (hits[i - 1].votes == hits[i].votes &&
           hits[i - 1].subject < hits[i].subject);
      EXPECT_TRUE(ordered) << "hits must stay sorted by (votes desc, id)";
    }
  }
}

TEST_F(MapperTest, MapSegmentsMatchMapSegment) {
  // The batched entry scans up to minimizer_scan_lanes() segments at a time,
  // one per lane where their lengths match. Over every tile and end segment
  // of simulated reads, plus segments it must scan alone (an N run, shorter
  // than a window, empty), in batches of many sizes: each result and top-x
  // list equals map_segment's, the sampled counters are the same, and
  // every JEM segment is counted once as grouped or single.
  sim::GenomeParams genome_params;
  genome_params.length = 100'000;
  genome_params.repeat_fraction = 0.2;
  genome_params.seed = 41;
  const std::string genome = sim::simulate_genome(genome_params);
  sim::ContigSimParams contig_params;
  contig_params.seed = 42;
  const sim::SimulatedContigs contigs =
      sim::simulate_contigs(genome, contig_params);
  sim::HiFiParams read_params;
  read_params.coverage = 2.0;
  read_params.seed = 43;
  const io::SequenceSet reads =
      sim::simulate_hifi_reads(genome, read_params).reads;

  std::vector<std::string> segments;
  for (io::SeqId read = 0; read < reads.size(); ++read) {
    for (const EndSegment& segment :
         extract_tiled_segments(read, reads.bases(read), 1000)) {
      segments.emplace_back(segment.bases);
    }
    for (const EndSegment& segment :
         extract_end_segments(read, reads.bases(read), 1000)) {
      segments.emplace_back(segment.bases);
    }
    if (read % 7 == 3) {
      std::string with_n = segments.back();
      with_n.replace(300, 40, std::string(40, 'N'));
      segments.push_back(with_n);
      segments.push_back(segments.back().substr(0, 90));
      segments.emplace_back();
    }
  }
  ASSERT_GT(segments.size(), 100u);
  const std::vector<std::string_view> views(segments.begin(), segments.end());

  for (const int trials : {1, 30, 65}) {
    for (const SketchScheme scheme :
         {SketchScheme::kJem, SketchScheme::kClassicMinhash}) {
      SCOPED_TRACE("T " + std::to_string(trials) + " scheme " +
                   std::to_string(static_cast<int>(scheme)));
      const MapParams params{.trials = trials, .seed = 44};
      const JemMapper mapper(contigs.contigs, params, scheme);
      // One scratch for map_segment and one for map_segment_topx, on each
      // side: the sampling clock ticks per segment in batch order.
      MapScratch single[2] = {MapScratch(contigs.contigs.size()),
                              MapScratch(contigs.contigs.size())};
      for (MapScratch& scratch : single) scratch.hotpath().sample_every = 3;
      std::vector<MapResult> expected;
      std::vector<std::vector<MapResult>> expected_topx;
      for (const std::string_view segment : views) {
        expected.push_back(mapper.map_segment(segment, single[0]));
        expected_topx.push_back(
            mapper.map_segment_topx(segment, 4, single[1]));
      }
      std::size_t mapped = 0;
      for (const MapResult& result : expected) mapped += result.mapped();
      EXPECT_GT(mapped, views.size() / 10);

      for (const std::size_t chunk : {std::size_t{0}, std::size_t{1},
                                      std::size_t{7}, std::size_t{9}}) {
        SCOPED_TRACE("chunk " + std::to_string(chunk));
        MapScratch batched[2] = {MapScratch(contigs.contigs.size()),
                                 MapScratch(contigs.contigs.size())};
        for (MapScratch& scratch : batched) scratch.hotpath().sample_every = 3;
        std::vector<MapResult> results(views.size(), MapResult{7, 7});
        std::vector<std::vector<MapResult>> topx(views.size());
        // Chunk 0 is the whole set in one call and chunk 1 one segment a
        // call; 7 and 9 grow by up to 10 from call to call, so the calls
        // cut the lane groups at every offset.
        const std::span<const std::string_view> all(views);
        for (std::size_t first = 0, step = 0; first < views.size(); ++step) {
          const std::size_t size =
              chunk == 0 ? views.size()
              : chunk == 1
                  ? 1
                  : std::min(views.size() - first, chunk + step % 11);
          mapper.map_segments(all.subspan(first, size), batched[0],
                              std::span(results).subspan(first, size));
          mapper.map_segments_topx(all.subspan(first, size), 4, batched[1],
                                   std::span(topx).subspan(first, size));
          first += size;
        }
        EXPECT_EQ(results, expected);
        EXPECT_EQ(topx, expected_topx);
        for (int side = 0; side < 2; ++side) {
          const HotpathCounters& got = batched[side].hotpath();
          const HotpathCounters& want = single[side].hotpath();
          EXPECT_EQ(got.segments_seen, want.segments_seen);
          EXPECT_EQ(got.segments_sampled, want.segments_sampled);
          EXPECT_EQ(got.kmer_lookups, want.kmer_lookups);
          EXPECT_EQ(got.sketch_hits, want.sketch_hits);
          EXPECT_EQ(got.kmer_probes, want.kmer_probes);
          EXPECT_EQ(got.probe_slots, want.probe_slots);
          EXPECT_EQ(got.candidates, want.candidates);
          if (scheme == SketchScheme::kClassicMinhash) {
            EXPECT_EQ(got.segments_grouped + got.segments_single, 0u);
            continue;
          }
          EXPECT_EQ(got.segments_grouped + got.segments_single, views.size());
          EXPECT_EQ(want.segments_grouped, 0u);
          EXPECT_EQ(want.segments_single, views.size());
          if (minimizer_scan_lanes() > 1 && chunk != 1) {
            EXPECT_GT(got.segments_grouped, views.size() / 2);
          }
          if (chunk == 1) {
            EXPECT_EQ(got.segments_grouped, 0u);
          }
        }
      }
    }
  }
}

TEST_F(MapperTest, MapSegmentsRejectsTooFewResults) {
  const JemMapper mapper(subjects_, params_);
  MapScratch scratch(subjects_.size());
  const std::string segment = genome_.substr(1000, 1000);
  const std::vector<std::string_view> segments{segment, segment};
  std::vector<MapResult> results(1);
  std::vector<std::vector<MapResult>> hits(1);
  EXPECT_THROW(mapper.map_segments(segments, scratch, results),
               std::invalid_argument);
  EXPECT_THROW(mapper.map_segments_topx(segments, 3, scratch, hits),
               std::invalid_argument);
}

TEST_F(MapperTest, AdoptedTableIsFrozenForTheHotPath) {
  // A table built on several threads is adopted as is: its flat index is
  // already there, and results agree with the self-sketching constructor.
  const HashFamily hashes(params_.trials, params_.seed);
  SketchTable table = SketchTable::from_entries(
      params_.trials,
      sketch_subjects(subjects_, 0, static_cast<io::SeqId>(subjects_.size()),
                      params_, SketchScheme::kJem, hashes, 3),
      3);
  const JemMapper adopted(subjects_, params_, SketchScheme::kJem,
                          std::move(table));
  EXPECT_GT(adopted.table().flat().key_count(), 0u);
  EXPECT_EQ(adopted.table().flat().key_count(), adopted.table().key_count());
  const JemMapper fresh(subjects_, params_);
  const std::string segment = genome_.substr(20'500, 1000);
  EXPECT_EQ(adopted.map_segment(segment), fresh.map_segment(segment));
}

// sketch_keys writes a segment's distinct sketch k-mers and their T-bit
// trial sets straight from the sketch walk. Its keys must equal the oracle
// sketch (sketch_by_jem_naive, classic_minhash_naive) regrouped by k-mer,
// for every scheme, trial count and list shape, on every lane kernel the
// host runs (others skip).

/// A sketch as a (k-mer -> trial set) map.
using KeyMap = std::map<KmerCode, std::vector<std::uint64_t>>;

KeyMap regrouped(const Sketch& sketch) {
  const std::size_t words =
      trial_set_words(static_cast<std::size_t>(sketch.trials()));
  KeyMap map;
  for (int t = 0; t < sketch.trials(); ++t) {
    for (const KmerCode kmer : sketch.per_trial[static_cast<std::size_t>(t)]) {
      auto& set = map.try_emplace(kmer, words, 0).first->second;
      set[static_cast<std::size_t>(t) / 64] |= std::uint64_t{1} << (t % 64);
    }
  }
  return map;
}

/// The keys as a map; a k-mer listed twice is a failure.
KeyMap as_key_map(const std::vector<KmerCode>& kmers,
                  const std::vector<std::uint64_t>& sets, std::size_t words) {
  EXPECT_EQ(sets.size(), kmers.size() * words);
  KeyMap map;
  for (std::size_t d = 0; d < kmers.size() && sets.size() >= (d + 1) * words;
       ++d) {
    const auto first = sets.begin() + static_cast<std::ptrdiff_t>(d * words);
    EXPECT_TRUE(map.try_emplace(kmers[d], first, first + words).second)
        << "k-mer " << kmers[d] << " listed twice";
  }
  return map;
}

class SketchKeysTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (!detail::sketch_lanes_supported(GetParam())) {
      GTEST_SKIP() << GetParam() << "-lane kernel not supported here";
    }
  }

  /// sketch_keys and the row kernel of the lanes under test against the
  /// oracle sketch regrouped, for lists of one block or many.
  void expect_keys(const std::string& seq, const MapParams& params,
                   SketchScheme scheme, const HashFamily& hashes,
                   const std::string& what) {
    const std::size_t words =
        trial_set_words(static_cast<std::size_t>(hashes.trials()));
    const std::vector<Minimizer> minimizers =
        minimizer_scan(seq, {params.k, params.w, params.ordering});
    const KeyMap expected = regrouped(
        scheme == SketchScheme::kJem
            ? oracle::sketch_by_jem_naive(minimizers, params.segment_length,
                                          hashes)
            : oracle::classic_minhash_naive(seq, params.k, hashes));
    const std::size_t distinct =
        sketch_keys(seq, params, scheme, hashes, scratch_, keys_);
    EXPECT_EQ(distinct, keys_.kmers.size()) << what;
    EXPECT_EQ(as_key_map(keys_.kmers, keys_.trials, words), expected) << what;

    if (scheme == SketchScheme::kJem) {
      detail::sketch_by_jem_sets_with(GetParam(), minimizers,
                                      params.segment_length, hashes,
                                      lane_scratch_, kmers_, sets_);
    } else {
      detail::classic_minhash_sets_with(GetParam(), seq, params.k, hashes,
                                        lane_scratch_, kmers_, sets_);
    }
    EXPECT_EQ(as_key_map(kmers_, sets_, words), expected) << what;
  }

  // One of each is reused by every call of a test, so a one-block segment
  // after a many-block or MinHash one reads no stale state.
  SketchScratch scratch_;
  SketchKeys keys_;
  SketchScratch lane_scratch_;
  std::vector<KmerCode> kmers_;
  std::vector<std::uint64_t> sets_;
};

TEST_P(SketchKeysTest, EveryTrialCountSchemeAndSegmentLength) {
  // T around the lane widths and the 64-bit word edges (partial groups
  // leave padding lanes that must never mark a trial), both schemes, and
  // segments of ℓ - 1 and ℓ (one block), 2ℓ and 5ℓ (several blocks).
  util::Xoshiro256ss rng(4242);
  const std::uint32_t interval = 1000;
  for (const int trials : {1, 7, 8, 30, 64, 65, 150}) {
    const HashFamily hashes(trials, rng());
    for (const SketchScheme scheme :
         {SketchScheme::kJem, SketchScheme::kClassicMinhash}) {
      for (const std::uint32_t length :
           {interval - 1, interval, 2 * interval, 5 * interval}) {
        const MapParams params{.k = 16,
                               .w = 20,
                               .trials = trials,
                               .segment_length = interval};
        expect_keys(random_dna(rng, length), params, scheme, hashes,
                    "T=" + std::to_string(trials) + " scheme " +
                        std::to_string(static_cast<int>(scheme)) +
                        " length " + std::to_string(length));
      }
    }
  }
}

TEST_P(SketchKeysTest, NRunsTandemRepeatsAndSegmentsWithoutKmers) {
  // Repeats put one k-mer at several minimizer positions, where only the
  // rightmost occurrence may carry its trials; N runs break the k-mers up,
  // and an all-N or too-short segment has no k-mer at all.
  util::Xoshiro256ss rng(4343);
  const std::string unit = random_dna(rng, 37);
  std::string tandem;
  while (tandem.size() < 990) tandem += unit;
  std::string short_tandem;
  while (short_tandem.size() < 990) short_tandem += "ACGTTGA";
  std::string spaced;
  const std::string kmer = random_dna(rng, 20);
  for (int i = 0; i < 9; ++i) spaced += kmer + random_dna(rng, 80);
  std::string n_runs = random_dna(rng, 999);
  for (std::size_t at = 50; at + 40 < n_runs.size(); at += 170) {
    n_runs.replace(at, 10 + at % 30, 10 + at % 30, 'N');
  }
  const std::vector<std::string> segments = {
      tandem,        short_tandem, spaced,
      n_runs,        std::string(1000, 'N'),
      std::string(1000, 'A'),     "ACGTAC",
      "",            tandem + tandem + tandem,
      n_runs + spaced + tandem};
  for (const int trials : {1, 8, 30, 65, 150}) {
    const HashFamily hashes(trials, rng());
    const MapParams params{.k = 16, .w = 10, .trials = trials};
    for (std::size_t i = 0; i < segments.size(); ++i) {
      for (const SketchScheme scheme :
           {SketchScheme::kJem, SketchScheme::kClassicMinhash}) {
        expect_keys(segments[i], params, scheme, hashes,
                    "T=" + std::to_string(trials) + " segment " +
                        std::to_string(i) + " scheme " +
                        std::to_string(static_cast<int>(scheme)));
      }
    }
  }
}

TEST_P(SketchKeysTest, HashTiesAndWideKmers) {
  // Tiny moduli make distinct k-mers tie on the hash in nearly every trial,
  // so the k-mer tie-break decides every record; k = 21 k-mers are wider
  // than the lane modulo's range and take the scalar loop.
  util::Xoshiro256ss rng(4444);
  std::vector<LcgHash> members;
  for (const std::uint64_t p : {2, 3, 5, 7, 11, 13, 2, 3, 5, 7, 11}) {
    members.push_back({rng.bounded(p), rng.bounded(p), p});
  }
  const HashFamily tiny(members);
  const MapParams tiny_params{.k = 16, .w = 10, .trials = tiny.trials()};
  const HashFamily wide_hashes(30, 77);
  const MapParams wide_params{.k = 21, .w = 20, .trials = 30};
  for (int round = 0; round < 12; ++round) {
    const std::string seq =
        random_dna(rng, round % 3 == 2 ? 3000 : 1 + rng.bounded(1000));
    expect_keys(seq, tiny_params, SketchScheme::kJem, tiny,
                "tiny moduli round " + std::to_string(round));
    expect_keys(seq, wide_params, SketchScheme::kJem, wide_hashes,
                "k = 21 round " + std::to_string(round));
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, SketchKeysTest, ::testing::Values(1, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "Lanes";
                         });

TEST(MapperValidation, RejectsBadParams) {
  io::SequenceSet subjects;
  subjects.add("c", "ACGTACGTACGTACGTACGT");
  MapParams params;
  params.k = 0;
  EXPECT_THROW(JemMapper(subjects, params), std::invalid_argument);
  params = {};
  params.trials = 0;
  EXPECT_THROW(JemMapper(subjects, params), std::invalid_argument);
  params = {};
  params.segment_length = 0;
  EXPECT_THROW(JemMapper(subjects, params), std::invalid_argument);
  params = {};
  params.min_votes = 0;
  EXPECT_THROW(JemMapper(subjects, params), std::invalid_argument);
}

}  // namespace
}  // namespace jem::core
