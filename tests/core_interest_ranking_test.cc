// Copyright (c) 2026 madnet authors. All rights reserved.

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/interest.h"
#include "core/ranking.h"

namespace madnet::core {
namespace {

Advertisement MakeAd() {
  Advertisement ad;
  ad.id = AdId{1, 1};
  ad.initial_radius_m = 1000.0;
  ad.initial_duration_s = 800.0;
  ad.radius_m = 1000.0;
  ad.duration_s = 800.0;
  ad.content = {"petrol", {"discount"}, "cheap fuel"};
  return ad;
}

TEST(InterestProfileTest, MatchesCategoryOrKeyword) {
  InterestProfile by_category({"petrol"});
  InterestProfile by_keyword({"discount"});
  InterestProfile unrelated({"books"});
  InterestProfile empty;
  AdContent content{"petrol", {"discount", "fuel"}, "x"};
  EXPECT_TRUE(by_category.Matches(content));
  EXPECT_TRUE(by_keyword.Matches(content));
  EXPECT_FALSE(unrelated.Matches(content));
  EXPECT_FALSE(empty.Matches(content));
}

TEST(InterestProfileTest, AddAndContains) {
  InterestProfile profile;
  EXPECT_EQ(profile.Size(), 0u);
  profile.Add("traffic");
  profile.Add("traffic");  // Duplicate is a no-op.
  EXPECT_EQ(profile.Size(), 1u);
  EXPECT_TRUE(profile.Contains("traffic"));
  EXPECT_FALSE(profile.Contains("petrol"));
}

TEST(InterestProfileTest, DuplicatesAreDroppedOnConstructionAndAdd) {
  InterestProfile profile({"petrol", "books", "petrol"});
  EXPECT_EQ(profile.Size(), 2u);
  profile.Add("books");
  profile.Add("petrol");
  EXPECT_EQ(profile.Size(), 2u);
  profile.Add("fuel");
  EXPECT_EQ(profile.Size(), 3u);
}

TEST(InterestProfileTest, MatchesByCategoryAndByKeywordAfterAdd) {
  InterestProfile profile;
  profile.Add("books");
  profile.Add("fuel");
  EXPECT_TRUE(profile.Matches({"books", {}, "x"}));             // Category.
  EXPECT_TRUE(profile.Matches({"petrol", {"cheap", "fuel"}, "x"}));  // Keyword.
  EXPECT_FALSE(profile.Matches({"petrol", {"cheap"}, "x"}));
  EXPECT_FALSE(profile.Matches({"", {"cheap"}, "books"}));  // Text ignored.
}

TEST(InterestGeneratorTest, SampleWithinBounds) {
  InterestGenerator::Options options;
  options.universe = InterestGenerator::DefaultUniverse();
  options.min_interests = 1;
  options.max_interests = 3;
  InterestGenerator generator(options);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    InterestProfile profile = generator.Sample(&rng);
    EXPECT_GE(profile.Size(), 1u);
    EXPECT_LE(profile.Size(), 3u);
  }
}

TEST(InterestGeneratorTest, ZipfSkewsTowardsPopular) {
  InterestGenerator::Options options;
  options.universe = InterestGenerator::DefaultUniverse();
  options.zipf_exponent = 1.2;
  options.min_interests = 1;
  options.max_interests = 1;
  InterestGenerator generator(options);
  Rng rng(6);
  int first = 0;
  int last = 0;
  for (int i = 0; i < 5000; ++i) {
    InterestProfile profile = generator.Sample(&rng);
    if (profile.Contains(options.universe.front())) ++first;
    if (profile.Contains(options.universe.back())) ++last;
  }
  EXPECT_GT(first, 4 * last);
}

TEST(InterestGeneratorTest, DeterministicInRng) {
  InterestGenerator::Options options;
  options.universe = InterestGenerator::DefaultUniverse();
  InterestGenerator generator(options);
  Rng rng1(9);
  Rng rng2(9);
  for (int i = 0; i < 50; ++i) {
    InterestProfile a = generator.Sample(&rng1);
    InterestProfile b = generator.Sample(&rng2);
    EXPECT_EQ(a.Size(), b.Size());
    for (const auto& kw : options.universe) {
      EXPECT_EQ(a.Contains(kw), b.Contains(kw));
    }
  }
}

TEST(InterestGeneratorTest, SamplesArePinned) {
  // The keyword sets four draws make per seed, listed in universe order
  // (default options: 1-3 keywords, Zipf exponent 1). Scenario peers draw
  // their profiles here, so a change to these sets changes every run with
  // assign_interests on.
  const std::vector<std::pair<uint64_t, std::vector<std::vector<std::string>>>>
      pinned = {
          {1,
           {{"petrol", "electronics", "restaurant"},
            {"petrol", "electronics", "garage-sale"},
            {"petrol"},
            {"petrol"}}},
          {7,
           {{"petrol", "grocery", "restaurant"},
            {"grocery", "restaurant"},
            {"books"},
            {"petrol"}}},
          {42,
           {{"petrol", "books"},
            {"electronics", "parking"},
            {"petrol", "electronics", "furniture"},
            {"petrol", "clothing", "traffic"}}},
          {2026,
           {{"electronics"},
            {"petrol", "traffic"},
            {"parking", "garage-sale"},
            {"grocery", "electronics", "garage-sale"}}},
      };
  InterestGenerator::Options options;
  options.universe = InterestGenerator::DefaultUniverse();
  InterestGenerator generator(options);
  for (const auto& [seed, draws] : pinned) {
    Rng rng(seed);
    for (const std::vector<std::string>& expected : draws) {
      const InterestProfile profile = generator.Sample(&rng);
      std::vector<std::string> keywords;
      for (const std::string& keyword : options.universe) {
        if (profile.Contains(keyword)) keywords.push_back(keyword);
      }
      EXPECT_EQ(keywords, expected) << "seed " << seed;
      EXPECT_EQ(profile.Size(), expected.size()) << "seed " << seed;
    }
  }
}

TEST(RankingTest, EmptyAdHasZeroRank) {
  EXPECT_DOUBLE_EQ(EstimatedRank(MakeAd()), 0.0);
}

TEST(RankingTest, NoMatchNoChange) {
  Advertisement ad = MakeAd();
  InterestProfile profile({"books"});
  EXPECT_FALSE(RankAndEnlarge(&ad, profile, 42, {}));
  EXPECT_DOUBLE_EQ(ad.radius_m, 1000.0);
  EXPECT_DOUBLE_EQ(ad.duration_s, 800.0);
  EXPECT_TRUE(ad.sketches.Empty());
}

TEST(RankingTest, MatchEnlargesOnFirstUser) {
  Advertisement ad = MakeAd();
  InterestProfile profile({"petrol"});
  EXPECT_TRUE(RankAndEnlarge(&ad, profile, 42, {}));
  EXPECT_GT(ad.radius_m, 1000.0);
  EXPECT_GT(ad.duration_s, 800.0);
  // Initial parameters never change.
  EXPECT_DOUBLE_EQ(ad.initial_radius_m, 1000.0);
  EXPECT_DOUBLE_EQ(ad.initial_duration_s, 800.0);
}

TEST(RankingTest, SameUserTwiceEnlargesOnce) {
  Advertisement ad = MakeAd();
  InterestProfile profile({"petrol"});
  EXPECT_TRUE(RankAndEnlarge(&ad, profile, 42, {}));
  const double radius_after_first = ad.radius_m;
  // "If the ranks are the same, the peer can skip the rank increasing
  // step" — hashing the same user changes nothing.
  EXPECT_FALSE(RankAndEnlarge(&ad, profile, 42, {}));
  EXPECT_DOUBLE_EQ(ad.radius_m, radius_after_first);
}

TEST(RankingTest, RankTracksDistinctInterestedUsers) {
  Advertisement ad = MakeAd();
  InterestProfile profile({"petrol"});
  for (uint64_t user = 1; user <= 500; ++user) {
    RankAndEnlarge(&ad, profile, user, {});
  }
  const double rank = EstimatedRank(ad);
  EXPECT_GT(rank, 200.0);
  EXPECT_LT(rank, 1500.0);
}

TEST(RankingTest, EnlargementIncrementShrinksWithRank) {
  const double base = 100.0;
  EXPECT_DOUBLE_EQ(EnlargementIncrement(base, 1.0), 100.0);  // log2(2) = 1.
  EXPECT_GT(EnlargementIncrement(base, 3.0), EnlargementIncrement(base, 7.0));
  EXPECT_GT(EnlargementIncrement(base, 100.0), 0.0);
  // Sub-1 ranks clamp to 1.
  EXPECT_DOUBLE_EQ(EnlargementIncrement(base, 0.1),
                   EnlargementIncrement(base, 1.0));
}

TEST(RankingTest, GrowthIsBoundedManyUsers) {
  // Even with very many interested users, total enlargement stays modest
  // because increments decay like 1/log2(rank).
  Advertisement ad = MakeAd();
  InterestProfile profile({"petrol"});
  RankingOptions options;
  for (uint64_t user = 1; user <= 20000; ++user) {
    RankAndEnlarge(&ad, profile, user * 7919, options);
  }
  EXPECT_LT(ad.radius_m, 3.0 * ad.initial_radius_m);
  EXPECT_LT(ad.duration_s, 3.0 * ad.initial_duration_s);
}

TEST(ExpiryBoundTest, FiniteAndBeyondD) {
  // With dD = 0.1*D added every 5 s round the bound is large (~1e6 s: the
  // per-round increment only loses to the clock once log2(k) > dD/round)
  // but finite — the paper's guarantee.
  const double bound = ExpiryBound(800.0, 5.0, 80.0);
  EXPECT_GT(bound, 800.0);
  EXPECT_LT(bound, 5e6);
  // Rounds up to a multiple of the round time.
  EXPECT_NEAR(std::fmod(bound, 5.0), 0.0, 1e-9);
}

TEST(ExpiryBoundTest, GrowsWithIncrement) {
  EXPECT_LT(ExpiryBound(800.0, 5.0, 8.0), ExpiryBound(800.0, 5.0, 160.0));
}

TEST(ExpiryBoundTest, ZeroIncrementGivesFirstRoundPastD) {
  const double bound = ExpiryBound(800.0, 5.0, 0.0);
  EXPECT_NEAR(bound, 805.0, 1e-9);
}

}  // namespace
}  // namespace madnet::core
