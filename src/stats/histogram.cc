// Copyright (c) 2026 madnet authors. All rights reserved.

#include "stats/histogram.h"

#include <algorithm>
#include <cstdio>

#include "util/logging.h"

namespace madnet::stats {

Histogram::Histogram(double lo, double hi, int num_bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / num_bins), bins_(num_bins, 0) {
  MADNET_DCHECK(hi > lo && num_bins >= 1);
}

void Histogram::Add(double value) {
  ++total_;
  if (value < lo_) {
    ++underflow_;
  } else if (value >= hi_) {
    ++overflow_;
  } else {
    int bin = static_cast<int>((value - lo_) / width_);
    bin = std::min(bin, num_bins() - 1);  // Rounding guard at the top edge.
    ++bins_[bin];
  }
}

uint64_t Histogram::BinCount(int i) const {
  MADNET_DCHECK(i >= 0 && i < num_bins());
  return bins_[i];
}

double Histogram::BinLow(int i) const { return lo_ + width_ * i; }

std::string Histogram::ToString() const {
  uint64_t peak = 1;
  for (uint64_t c : bins_) peak = std::max(peak, c);
  std::string out;
  char line[160];
  for (int i = 0; i < num_bins(); ++i) {
    const int bar = static_cast<int>(bins_[i] * 50 / peak);
    std::snprintf(line, sizeof(line), "[%10.2f, %10.2f) %8llu |%.*s\n",
                  BinLow(i), BinLow(i) + width_,
                  static_cast<unsigned long long>(bins_[i]), bar,
                  "##################################################");
    out += line;
  }
  if (underflow_ != 0 || overflow_ != 0) {
    std::snprintf(line, sizeof(line), "underflow=%llu overflow=%llu\n",
                  static_cast<unsigned long long>(underflow_),
                  static_cast<unsigned long long>(overflow_));
    out += line;
  }
  return out;
}

}  // namespace madnet::stats
