#include "stats/ecdf.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/check.h"

namespace coldstart::stats {

Ecdf::Ecdf(std::vector<double> samples) : samples_(std::move(samples)), sealed_(false) {
  Seal();
}

void Ecdf::Add(double sample) {
  samples_.push_back(sample);
  sealed_ = false;
}

namespace {

// Order-preserving image of a double: flipping every bit of a negative and only the
// sign bit of a non-negative makes unsigned integer order match numeric order, with
// -0.0 just below +0.0. NaN has no place in it.
uint64_t SortKey(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

// Below this many samples the radix sort's fixed cost (clearing and prefix-summing
// six 2048-bin histograms, and a scratch buffer) loses to a comparison sort.
constexpr size_t kRadixCutoff = 4096;

}  // namespace

void SortSamples(std::vector<double>& samples) {
  const size_t n = samples.size();
  if (n < kRadixCutoff) {
    for (const double x : samples) {
      COLDSTART_CHECK(!std::isnan(x) && "NaN sample");
    }
    std::sort(samples.begin(), samples.end(),
              [](double a, double b) { return SortKey(a) < SortKey(b); });
    return;
  }
  // LSD radix sort, six 11-bit digits, all histograms from one pass. A digit
  // that every key shares moves nothing and is skipped.
  constexpr int kDigitBits = 11;
  constexpr int kDigits = (64 + kDigitBits - 1) / kDigitBits;
  constexpr uint64_t kMask = (uint64_t{1} << kDigitBits) - 1;
  std::vector<std::array<size_t, kMask + 1>> counts(kDigits);
  for (const double x : samples) {
    COLDSTART_CHECK(!std::isnan(x) && "NaN sample");
    const uint64_t key = SortKey(x);
    for (int d = 0; d < kDigits; ++d) {
      ++counts[d][(key >> (kDigitBits * d)) & kMask];
    }
  }
  std::vector<double> scratch(n);
  std::vector<double>* from = &samples;
  std::vector<double>* to = &scratch;
  for (int d = 0; d < kDigits; ++d) {
    std::array<size_t, kMask + 1>& offsets = counts[d];
    const int shift = kDigitBits * d;
    if (offsets[(SortKey(from->front()) >> shift) & kMask] == n) {
      continue;
    }
    size_t sum = 0;
    for (size_t& c : offsets) {
      const size_t count = c;
      c = sum;
      sum += count;
    }
    const double* src = from->data();
    double* dst = to->data();
    for (size_t i = 0; i < n; ++i) {
      dst[offsets[(SortKey(src[i]) >> shift) & kMask]++] = src[i];
    }
    std::swap(from, to);
  }
  if (from != &samples) {
    samples.swap(scratch);
  }
}

void Ecdf::Seal() {
  if (!sealed_) {
    SortSamples(samples_);
    sealed_ = true;
  }
}

const std::vector<double>& Ecdf::sorted_samples() const {
  COLDSTART_CHECK(sealed_);
  return samples_;
}

namespace {
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
}  // namespace

double Ecdf::Quantile(double q) const {
  COLDSTART_CHECK(sealed_);
  if (samples_.empty()) {
    return kNan;  // An empty sample set has no quantiles; renderers show "n/a".
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double Ecdf::CdfAt(double x) const {
  COLDSTART_CHECK(sealed_);
  if (samples_.empty()) {
    return 0.0;
  }
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
}

double Ecdf::Mean() const {
  COLDSTART_CHECK(sealed_);
  if (samples_.empty()) {
    return kNan;
  }
  double s = 0;
  for (const double v : samples_) {
    s += v;
  }
  return s / static_cast<double>(samples_.size());
}

double Ecdf::StdDev() const {
  COLDSTART_CHECK(sealed_);
  if (samples_.empty()) {
    return kNan;
  }
  if (samples_.size() < 2) {
    return 0.0;
  }
  const double m = Mean();
  double s = 0;
  for (const double v : samples_) {
    s += (v - m) * (v - m);
  }
  return std::sqrt(s / static_cast<double>(samples_.size() - 1));
}

SummaryStats Ecdf::Summary() const {
  COLDSTART_CHECK(sealed_);
  SummaryStats s;
  s.count = samples_.size();
  if (samples_.empty()) {
    // No fabricated zeros: every statistic of an empty set is NaN ("n/a" in
    // tables), so an empty group can never masquerade as an all-zero one.
    s.mean = s.stddev = s.min = s.p25 = s.median = s.p75 = s.p99 = s.max = kNan;
    return s;
  }
  s.mean = Mean();
  s.stddev = StdDev();
  s.min = samples_.front();
  s.p25 = Quantile(0.25);
  s.median = Quantile(0.5);
  s.p75 = Quantile(0.75);
  s.p99 = Quantile(0.99);
  s.max = samples_.back();
  return s;
}

std::vector<std::pair<double, double>> Ecdf::CurveLogX(int n) const {
  COLDSTART_CHECK(sealed_);
  std::vector<std::pair<double, double>> curve;
  if (samples_.empty() || n <= 0) {
    return curve;
  }
  // Log spacing needs positive endpoints; clamp the low end to a tiny positive value.
  const double lo = std::max(samples_.front(), 1e-9);
  const double hi = std::max(samples_.back(), lo * (1.0 + 1e-12));
  const double llo = std::log10(lo);
  const double lhi = std::log10(hi);
  curve.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double x =
        std::pow(10.0, llo + (lhi - llo) * static_cast<double>(i) / std::max(1, n - 1));
    curve.emplace_back(x, CdfAt(x));
  }
  return curve;
}

}  // namespace coldstart::stats
