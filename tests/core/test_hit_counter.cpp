#include "core/hit_counter.hpp"

#include <gtest/gtest.h>

#include "oracle/hit_counters.hpp"

namespace jem::core {
namespace {

using oracle::LazyHitCounter;
using oracle::ResettingHitCounter;

TEST(LazyHitCounter, CountsFromZeroEachRound) {
  LazyHitCounter counter(4);
  EXPECT_EQ(counter.increment(2), 1u);
  EXPECT_EQ(counter.increment(2), 2u);
  EXPECT_EQ(counter.increment(3), 1u);
  counter.new_round();
  EXPECT_EQ(counter.count(2), 0u);
  EXPECT_EQ(counter.increment(2), 1u);
}

TEST(LazyHitCounter, CountReturnsZeroForUntouched) {
  LazyHitCounter counter(4);
  EXPECT_EQ(counter.count(0), 0u);
  counter.increment(0);
  EXPECT_EQ(counter.count(0), 1u);
  EXPECT_EQ(counter.count(1), 0u);
}

TEST(LazyHitCounter, StaleSlotsInvisibleAcrossManyRounds) {
  LazyHitCounter counter(3);
  for (int round = 0; round < 100; ++round) {
    counter.new_round();
    const io::SeqId subject = static_cast<io::SeqId>(round % 3);
    EXPECT_EQ(counter.increment(subject), 1u);
    for (io::SeqId other = 0; other < 3; ++other) {
      if (other != subject) {
        EXPECT_EQ(counter.count(other), 0u);
      }
    }
  }
}

TEST(LazyHitCounter, FirstTimeTrueOncePerRound) {
  LazyHitCounter counter(2);
  EXPECT_TRUE(counter.first_time(0));
  EXPECT_FALSE(counter.first_time(0));
  EXPECT_TRUE(counter.first_time(1));
  counter.new_round();
  EXPECT_TRUE(counter.first_time(0));
  EXPECT_FALSE(counter.first_time(0));
}

TEST(LazyHitCounter, MatchesResettingCounterBehaviour) {
  // Property: for any sequence of (new_round | increment) operations, the
  // lazy counter and the O(n)-reset counter agree on every count.
  LazyHitCounter lazy(8);
  ResettingHitCounter resetting(8);
  std::uint64_t state = 12345;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int op = 0; op < 2000; ++op) {
    if (next() % 10 == 0) {
      lazy.new_round();
      resetting.new_round();
    } else {
      const io::SeqId subject = static_cast<io::SeqId>(next() % 8);
      EXPECT_EQ(lazy.increment(subject), resetting.increment(subject));
    }
    const io::SeqId probe = static_cast<io::SeqId>(next() % 8);
    EXPECT_EQ(lazy.count(probe), resetting.count(probe));
  }
}

TEST(ResettingHitCounter, BasicCounting) {
  ResettingHitCounter counter(3);
  EXPECT_EQ(counter.increment(1), 1u);
  EXPECT_EQ(counter.increment(1), 2u);
  counter.new_round();
  EXPECT_EQ(counter.count(1), 0u);
}

TEST(LazyHitCounter, SizeReflectsSubjects) {
  LazyHitCounter counter(42);
  EXPECT_EQ(counter.size(), 42u);
}

TEST(VoteCounter, OneVotePerSubjectPerTrial) {
  VoteCounter counter(4);
  counter.new_segment();
  EXPECT_EQ(counter.vote(2, 0), 1u);
  EXPECT_EQ(counter.vote(2, 0), 0u);  // second posting in trial 0
  EXPECT_EQ(counter.vote(3, 0), 1u);
  EXPECT_EQ(counter.vote(2, 1), 2u);
  EXPECT_EQ(counter.vote(2, 1), 0u);
  EXPECT_EQ(counter.vote(2, 4), 3u);  // trials may be skipped
  EXPECT_EQ(counter.count(2), 3u);
  EXPECT_EQ(counter.count(3), 1u);
  EXPECT_EQ(counter.count(0), 0u);
  counter.new_segment();
  EXPECT_EQ(counter.count(2), 0u);
  EXPECT_EQ(counter.vote(2, 4), 1u);  // same trial as the stale record
}

TEST(VoteCounter, MatchesTwoLazyCountersAcrossManySegments) {
  // Property: over many segments of ascending trials with random postings,
  // vote() equals the votes/seen LazyHitCounter pair — increment() on the
  // first posting of a trial, 0 on a repeat — and count() agrees for every
  // subject, including those last touched many segments ago.
  constexpr std::size_t kSubjects = 16;
  VoteCounter counter(kSubjects);
  LazyHitCounter votes(kSubjects);
  LazyHitCounter seen(kSubjects);
  std::uint64_t state = 777;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int segment = 0; segment < 3000; ++segment) {
    counter.new_segment();
    votes.new_round();
    // Most segments touch few subjects, so stale records pile up.
    const std::uint64_t spread = segment % 7 == 0 ? kSubjects : 3;
    const std::uint32_t trials = static_cast<std::uint32_t>(next() % 5);
    for (std::uint32_t t = 0; t < trials; ++t) {
      seen.new_round();
      const std::uint64_t postings = next() % 6;
      for (std::uint64_t p = 0; p < postings; ++p) {
        const auto subject = static_cast<io::SeqId>(next() % spread);
        const std::uint32_t expected =
            seen.first_time(subject) ? votes.increment(subject) : 0;
        ASSERT_EQ(counter.vote(subject, t), expected)
            << "segment " << segment << " trial " << t;
      }
    }
    for (io::SeqId subject = 0; subject < kSubjects; ++subject) {
      ASSERT_EQ(counter.count(subject), votes.count(subject))
          << "segment " << segment << " subject " << subject;
    }
  }
}

}  // namespace
}  // namespace jem::core
