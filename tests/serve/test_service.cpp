#include "core/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/dna.hpp"
#include "core/index_serde.hpp"
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

/// Expects `fn` to throw ServiceError(kInvalidArgument) naming `field`.
template <typename Fn>
void expect_invalid(Fn&& fn, std::string_view field) {
  try {
    (void)fn();
    FAIL() << "expected ServiceError naming field '" << field << "'";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code(), ServiceErrorCode::kInvalidArgument);
    EXPECT_EQ(error.field(), field);
  }
}

TEST(ServiceConfigBuilder, DefaultsMatchThePaper) {
  const ServiceConfig config = ServiceConfig::make().build();
  EXPECT_EQ(config.params.k, 16);
  EXPECT_EQ(config.params.w, 100);
  EXPECT_EQ(config.params.trials, 30);
  EXPECT_EQ(config.params.segment_length, 1000u);
  EXPECT_EQ(config.scheme, SketchScheme::kJem);
  EXPECT_EQ(config.params.ordering, MinimizerOrdering::kLexicographic);
}

TEST(ServiceConfigBuilder, EveryInvalidFieldIsNamed) {
  expect_invalid([] { return ServiceConfig::make().k(0).build(); }, "k");
  expect_invalid([] { return ServiceConfig::make().k(33).build(); }, "k");
  expect_invalid([] { return ServiceConfig::make().window(0).build(); }, "w");
  expect_invalid([] { return ServiceConfig::make().trials(0).build(); },
                 "trials");
  expect_invalid([] { return ServiceConfig::make().trials(5000).build(); },
                 "trials");
  expect_invalid(
      [] { return ServiceConfig::make().segment_length(0).build(); },
      "segment");
  expect_invalid([] { return ServiceConfig::make().min_votes(0).build(); },
                 "min-votes");
  expect_invalid(
      [] { return ServiceConfig::make().trials(8).min_votes(9).build(); },
      "min-votes");
  expect_invalid(
      [] { return ServiceConfig::make().ordering("zigzag").build(); },
      "ordering");
  expect_invalid([] { return ServiceConfig::make().scheme("sha256").build(); },
                 "scheme");
}

TEST(ServiceConfigBuilder, StringKnobsMatchTheCli) {
  const ServiceConfig hashed =
      ServiceConfig::make().ordering("hash").scheme("minhash").build();
  EXPECT_EQ(hashed.params.ordering, MinimizerOrdering::kRandomHash);
  EXPECT_EQ(hashed.scheme, SketchScheme::kClassicMinhash);
}

TEST(MapServiceRequest, ValidateNamesEachBadField) {
  const MapParams params = ServiceConfig::make().build().params;
  expect_invalid([&] { MapServiceRequest{}.validate(params); }, "sequence");
  expect_invalid(
      [&] {
        MapServiceRequest{.sequence = "ACGT", .top_x = 0}.validate(params);
      },
      "top_x");
  expect_invalid(
      [&] {
        MapServiceRequest{.sequence = "ACGT", .min_votes = 0}.validate(params);
      },
      "min_votes");
  expect_invalid(
      [&] {
        MapServiceRequest{.sequence = "ACGT",
                          .deadline = std::chrono::milliseconds(-1)}
            .validate(params);
      },
      "deadline_ms");
  const MapServiceRequest request{.sequence = "ACGT", .top_x = 3,
                                  .min_votes = 2};
  EXPECT_NO_THROW(request.validate(params));
}

/// Small deterministic genome/contigs/queries shared by the service tests.
class MappingServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Xoshiro256ss rng(4242);
    genome_ = random_dna(rng, 40'000);
    io::SequenceSet subjects;
    for (int i = 0; i < 8; ++i) {
      subjects.add("contig_" + std::to_string(i),
                   genome_.substr(static_cast<std::size_t>(i) * 5000, 5000));
    }
    subjects_copy_ = subjects;
    config_ = ServiceConfig::make()
                  .k(16)
                  .window(20)
                  .trials(16)
                  .segment_length(800)
                  .seed(7)
                  .build();
    service_.emplace(std::move(subjects), config_);

    util::Xoshiro256ss query_rng(9);
    for (int i = 0; i < 12; ++i) {
      const std::size_t pos = query_rng.bounded(35'000);
      queries_.push_back(genome_.substr(pos, 800));
    }
  }

  std::string genome_;
  io::SequenceSet subjects_copy_;
  ServiceConfig config_;
  std::optional<MappingService> service_;
  std::vector<std::string> queries_;
};

TEST_F(MappingServiceTest, MapMatchesMapSegmentBitIdentically) {
  const JemMapper& mapper = service_->engine().mapper();
  MapScratch scratch = service_->make_scratch();
  for (const std::string& query : queries_) {
    const MapResult expected = mapper.map_segment(query, scratch);
    const MapServiceResponse response =
        service_->map(MapServiceRequest{.sequence = query});
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.trials, 16u);
    if (expected.mapped()) {
      ASSERT_EQ(response.hits.size(), 1u);
      EXPECT_EQ(response.hits[0].subject, expected.subject);
      EXPECT_EQ(response.hits[0].votes, expected.votes);
      EXPECT_EQ(response.hits[0].subject_name,
                service_->subjects().name(expected.subject));
    } else {
      EXPECT_TRUE(response.hits.empty());
    }
  }
}

TEST_F(MappingServiceTest, TopXRespectsMinVotesOverride) {
  const JemMapper& mapper = service_->engine().mapper();
  MapScratch scratch = service_->make_scratch();
  for (const std::string& query : queries_) {
    const std::vector<MapResult> expected =
        mapper.map_segment_topx(query, 4, scratch);
    const MapServiceResponse response = service_->map(
        {.sequence = query, .top_x = 4});
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response.hits.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(response.hits[i].subject, expected[i].subject);
      EXPECT_EQ(response.hits[i].votes, expected[i].votes);
    }

    // A min_votes override must trim exactly the below-threshold suffix.
    if (!expected.empty()) {
      const std::uint32_t floor = expected.front().votes;
      const MapServiceResponse trimmed =
          service_->map({.sequence = query, .top_x = 4, .min_votes = floor});
      ASSERT_TRUE(trimmed.ok());
      for (const MapServiceHit& hit : trimmed.hits) {
        EXPECT_GE(hit.votes, floor);
      }
    }
  }
}

TEST_F(MappingServiceTest, MinVotesBelowConfiguredFloorIsRejected) {
  ServiceConfig strict = ServiceConfig::make()
                             .k(16)
                             .window(20)
                             .trials(16)
                             .segment_length(800)
                             .seed(7)
                             .min_votes(3)
                             .build();
  const MappingService strict_service(subjects_copy_, strict);
  MapServiceRequest request{.sequence = queries_[0]};
  request.min_votes = 2;  // below the configured floor of 3
  expect_invalid([&] { return strict_service.map(request); }, "min_votes");
}

TEST_F(MappingServiceTest, ExpiredDeadlineIsAContainedFailure) {
  MapScratch scratch = service_->make_scratch();
  const MapServiceRequest request{.sequence = queries_[0]};
  const MapServiceResponse response = service_->map(
      request, scratch,
      MappingService::Clock::now() - std::chrono::milliseconds(1));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.failure->code, ServiceErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(response.hits.empty());

  // The failure is contained: the same scratch, with a live deadline,
  // answers exactly like a fresh single-shot map.
  const MapServiceResponse later = service_->map(
      request, scratch, MappingService::Clock::time_point::max());
  ASSERT_TRUE(later.ok());
  EXPECT_EQ(later, service_->map(request));
}

TEST_F(MappingServiceTest, FromIndexLoadsAndFallsBackGracefully) {
  const std::string dir = ::testing::TempDir();
  const std::string index_path = dir + "/service_test.jemidx";
  save_index(index_path, service_->engine().mapper().table(), config_.params,
             config_.scheme, service_->subjects());

  MappingService loaded =
      MappingService::from_index(index_path, subjects_copy_, config_);
  EXPECT_TRUE(loaded.load_report().loaded_from_artifact);
  EXPECT_TRUE(loaded.load_report().rejection.empty());

  const std::string bogus_path = dir + "/service_test_bogus.jemidx";
  {
    std::ofstream out(bogus_path);
    out << "this is not an index artifact";
  }
  MappingService rebuilt =
      MappingService::from_index(bogus_path, subjects_copy_, config_);
  EXPECT_FALSE(rebuilt.load_report().loaded_from_artifact);
  EXPECT_FALSE(rebuilt.load_report().rejection.empty());

  // Loaded, rebuilt, and fresh services answer bit-identically.
  for (const std::string& query : queries_) {
    const MapServiceRequest request{.sequence = query};
    const MapServiceResponse fresh = service_->map(request);
    EXPECT_EQ(loaded.map(request), fresh);
    EXPECT_EQ(rebuilt.map(request), fresh);
  }
}

}  // namespace
}  // namespace jem::core
