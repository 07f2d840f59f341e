// End-to-end integration tests: simulate a dataset, run JEM-mapper and the
// Mashmap-like baseline through the full pipeline, and check the headline
// quality claims of the paper hold at test scale (both tools well above 90 %
// precision/recall on a simulated bacterial-like genome; JEM beats classic
// MinHash at equal trial budget).
#include <gtest/gtest.h>

#include <memory>

#include "align/identity.hpp"
#include "baseline/mashmap_like.hpp"
#include "core/jem.hpp"
#include "eval/metrics.hpp"
#include "eval/truth.hpp"
#include "oracle/sequential_mapper.hpp"
#include "sim/presets.hpp"

namespace jem {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::GenomeParams genome_params;
    genome_params.length = 400'000;
    genome_params.repeat_fraction = 0.05;
    genome_params.seed = 2023;
    genome_ = new std::string(sim::simulate_genome(genome_params));

    sim::ContigSimParams contig_params;
    contig_params.mean_length = 6000;
    contig_params.sd_length = 5000;
    contig_params.coverage_fraction = 0.95;
    contig_params.seed = 2024;
    contigs_ = new sim::SimulatedContigs(
        sim::simulate_contigs(*genome_, contig_params));

    sim::HiFiParams read_params;
    read_params.coverage = 3.0;
    read_params.seed = 2025;
    reads_ = new sim::SimulatedReads(
        sim::simulate_hifi_reads(*genome_, read_params));

    params_.k = 16;
    params_.w = 40;
    params_.trials = 30;
    params_.segment_length = 1000;
    params_.seed = 2026;

    truth_ = new eval::TruthSet(contigs_->truth, reads_->truth,
                                params_.segment_length,
                                static_cast<std::uint32_t>(params_.k));
  }

  static void TearDownTestSuite() {
    delete truth_;
    delete reads_;
    delete contigs_;
    delete genome_;
    truth_ = nullptr;
    reads_ = nullptr;
    contigs_ = nullptr;
    genome_ = nullptr;
  }

  static std::string* genome_;
  static sim::SimulatedContigs* contigs_;
  static sim::SimulatedReads* reads_;
  static core::MapParams params_;
  static eval::TruthSet* truth_;
};

std::string* PipelineTest::genome_ = nullptr;
sim::SimulatedContigs* PipelineTest::contigs_ = nullptr;
sim::SimulatedReads* PipelineTest::reads_ = nullptr;
core::MapParams PipelineTest::params_;
eval::TruthSet* PipelineTest::truth_ = nullptr;

TEST_F(PipelineTest, JemMapperAchievesHighPrecisionAndRecall) {
  const core::JemMapper mapper(contigs_->contigs, params_);
  const auto mappings = oracle::map_reads(mapper, reads_->reads);
  const eval::QualityCounts counts = eval::evaluate(mappings, *truth_);
  EXPECT_GT(counts.precision(), 0.93) << "tp=" << counts.tp
                                      << " fp=" << counts.fp;
  EXPECT_GT(counts.recall(), 0.90) << "fn=" << counts.fn;
}

TEST_F(PipelineTest, MashmapLikeAchievesHighQualityToo) {
  baseline::MashmapParams mm_params;
  mm_params.k = params_.k;
  mm_params.segment_length = params_.segment_length;
  const baseline::MashmapLikeMapper mapper(contigs_->contigs, mm_params);
  const auto mappings = mapper.map_reads(reads_->reads);
  const eval::QualityCounts counts = eval::evaluate(mappings, *truth_);
  EXPECT_GT(counts.precision(), 0.93);
  EXPECT_GT(counts.recall(), 0.90);
}

TEST_F(PipelineTest, JemBeatsClassicMinhashAtEqualTrials) {
  const core::JemMapper jem(contigs_->contigs, params_);
  const core::JemMapper classic(contigs_->contigs, params_,
                                core::SketchScheme::kClassicMinhash);
  const auto jem_counts =
      eval::evaluate(oracle::map_reads(jem, reads_->reads), *truth_);
  const auto classic_counts =
      eval::evaluate(oracle::map_reads(classic, reads_->reads), *truth_);
  // Fig 6 of the paper: at T=30, JEM is far ahead of classical MinHash.
  EXPECT_GT(jem_counts.recall(), classic_counts.recall() + 0.05);
}

TEST_F(PipelineTest, DistributedRunMatchesSequentialQuality) {
  const core::JemMapper mapper(contigs_->contigs, params_);
  const auto sequential = oracle::map_reads(mapper, reads_->reads);
  const core::DistributedResult distributed =
      core::run_distributed(contigs_->contigs, reads_->reads, params_, 4);
  ASSERT_EQ(sequential.size(), distributed.mappings.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].result.subject,
              distributed.mappings[i].result.subject);
  }
}

TEST_F(PipelineTest, MappedPairsHaveHighPercentIdentity) {
  // The Fig 9 property: BLAST-style identity of mapped <segment, contig>
  // pairs concentrates in [0.95, 1.0].
  const core::JemMapper mapper(contigs_->contigs, params_);
  io::SequenceSet sample_reads;
  for (io::SeqId id = 0; id < 15 && id < reads_->reads.size(); ++id) {
    sample_reads.add(reads_->reads.name(id), reads_->reads.bases(id));
  }
  const auto mappings = oracle::map_reads(mapper, sample_reads);

  int verified = 0;
  int high_identity = 0;
  for (const core::SegmentMapping& mapping : mappings) {
    if (!mapping.result.mapped()) continue;
    const auto segments = core::extract_end_segments(
        mapping.read, sample_reads.bases(mapping.read),
        params_.segment_length);
    for (const core::EndSegment& segment : segments) {
      if (segment.end != mapping.end) continue;
      align::IdentityParams id_params;
      id_params.minimizer = {params_.k, params_.w};
      const auto identity = align::segment_identity(
          segment.bases, contigs_->contigs.bases(mapping.result.subject),
          id_params);
      if (!identity.has_value()) continue;
      ++verified;
      if (identity->identity >= 0.95) ++high_identity;
    }
  }
  // Fig 9 of the paper: the identity distribution concentrates in
  // [95, 100] with a small tail below (segments straddling contig
  // boundaries or planted repeats align partially).
  ASSERT_GT(verified, 10);
  EXPECT_GE(static_cast<double>(high_identity),
            0.7 * static_cast<double>(verified));
}

TEST_F(PipelineTest, MappingLinesRoundTripThroughWriter) {
  const core::JemMapper mapper(contigs_->contigs, params_);
  io::SequenceSet sample_reads;
  for (io::SeqId id = 0; id < 5; ++id) {
    sample_reads.add(reads_->reads.name(id), reads_->reads.bases(id));
  }
  const auto mappings = oracle::map_reads(mapper, sample_reads);
  const auto lines = mapper.to_mapping_lines(sample_reads, mappings);

  std::ostringstream out;
  io::write_mappings(out, lines);
  std::istringstream in(out.str());
  EXPECT_EQ(io::read_mappings(in), lines);
}

}  // namespace
}  // namespace jem
