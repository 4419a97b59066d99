// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/interest.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace madnet::core {

InterestProfile::InterestProfile(std::vector<std::string> keywords) {
  for (const std::string& keyword : keywords) Add(keyword);
}

void InterestProfile::Add(const std::string& keyword) {
  if (!Contains(keyword)) keywords_.push_back(keyword);
}

bool InterestProfile::Contains(const std::string& keyword) const {
  return std::find(keywords_.begin(), keywords_.end(), keyword) !=
         keywords_.end();
}

bool InterestProfile::Matches(const AdContent& content) const {
  if (keywords_.empty()) return false;
  if (!content.category.empty() && Contains(content.category)) return true;
  for (const auto& keyword : content.keywords) {
    if (Contains(keyword)) return true;
  }
  return false;
}

InterestGenerator::InterestGenerator(const Options& options)
    : options_(options) {
  MADNET_DCHECK(!options.universe.empty());
  MADNET_DCHECK(options.min_interests >= 0 &&
                options.max_interests >= options.min_interests);
  MADNET_DCHECK(options.max_interests <=
                static_cast<int>(options.universe.size()));
  double total = 0.0;
  cumulative_.reserve(options.universe.size());
  for (size_t i = 0; i < options.universe.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), options.zipf_exponent);
    cumulative_.push_back(total);
  }
  for (double& c : cumulative_) c /= total;
}

InterestProfile InterestGenerator::Sample(Rng* rng) const {
  const int count =
      options_.min_interests +
      static_cast<int>(rng->NextUint64(
          static_cast<uint64_t>(options_.max_interests -
                                options_.min_interests + 1)));
  InterestProfile profile;
  int guard = 0;
  while (static_cast<int>(profile.Size()) < count &&
         guard++ < 64 * (count + 1)) {
    const double roll = rng->NextDouble();
    const size_t index = static_cast<size_t>(
        std::lower_bound(cumulative_.begin(), cumulative_.end(), roll) -
        cumulative_.begin());
    profile.Add(options_.universe[std::min(index, cumulative_.size() - 1)]);
  }
  return profile;
}

std::vector<std::string> InterestGenerator::DefaultUniverse() {
  return {"petrol",  "grocery", "electronics", "clothing", "restaurant",
          "parking", "traffic", "garage-sale", "furniture", "books"};
}

}  // namespace madnet::core
