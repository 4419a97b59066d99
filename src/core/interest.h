// Copyright (c) 2026 madnet authors. All rights reserved.
//
// User interest model (paper, Section III-E). "How to define interest is
// out of the scope of this paper, and we simply use keywords to represent a
// user's interests (a user may have more than one interest)." An
// advertisement matches an interest profile when its category or any of its
// keywords appears in the profile.

#ifndef MADNET_CORE_INTEREST_H_
#define MADNET_CORE_INTEREST_H_

#include <string>
#include <vector>

#include "core/advertisement.h"
#include "util/random.h"

namespace madnet::core {

/// A user's interests: a set of keywords, held as a small vector (a profile
/// has 1-3 keywords, so a linear scan is enough, and an empty profile owns
/// no heap block).
class InterestProfile {
 public:
  InterestProfile() = default;

  /// Builds a profile from explicit keywords; duplicates are dropped.
  explicit InterestProfile(std::vector<std::string> keywords);

  /// Adds one keyword; a keyword already in the profile is ignored.
  void Add(const std::string& keyword);

  /// The paper's Match(ad, I) predicate: true iff the ad's category or any
  /// ad keyword is among this user's interest keywords.
  bool Matches(const AdContent& content) const;

  /// Number of interest keywords.
  size_t Size() const { return keywords_.size(); }

  bool Contains(const std::string& keyword) const;

 private:
  std::vector<std::string> keywords_;  // Distinct, in insertion order.
};

/// Synthesizes interest profiles over a closed keyword universe with a
/// Zipf-like popularity skew: keyword i has selection weight 1/(i+1)^s.
/// This models a population where a few ad categories ("petrol",
/// "grocery") interest many users and most interest few — the workload the
/// ranking experiments need.
class InterestGenerator {
 public:
  struct Options {
    std::vector<std::string> universe;  ///< All keywords, most popular first.
    double zipf_exponent = 1.0;         ///< Popularity skew s >= 0.
    int min_interests = 1;              ///< Keywords per user, lower bound.
    int max_interests = 3;              ///< Keywords per user, upper bound.
  };

  explicit InterestGenerator(const Options& options);

  /// Draws one user's profile; deterministic in the rng state.
  InterestProfile Sample(Rng* rng) const;

  /// The default ad-category universe used by examples and benches.
  static std::vector<std::string> DefaultUniverse();

 private:
  Options options_;
  std::vector<double> cumulative_;  // Normalized cumulative Zipf weights.
};

}  // namespace madnet::core

#endif  // MADNET_CORE_INTEREST_H_
