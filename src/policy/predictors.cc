#include "policy/predictors.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace coldstart::policy {

namespace {

void SaveRing(const std::vector<double>& ring, ByteWriter& w) {
  w.Count(ring.size());
  for (const double v : ring) {
    w.F64(v);
  }
}

// The ring's size is configuration, not state: a saved ring of another size
// was written under another configuration.
void RestoreRing(std::vector<double>& ring, ByteReader& r) {
  COLDSTART_CHECK_EQ(r.Count(sizeof(double)), ring.size());
  for (double& v : ring) {
    v = r.F64();
  }
}

}  // namespace

MovingAveragePredictor::MovingAveragePredictor(int window) {
  COLDSTART_CHECK_GT(window, 0);
  ring_.assign(static_cast<size_t>(window), 0.0);
}

void MovingAveragePredictor::Observe(double value) {
  sum_ += value - ring_[next_];
  ring_[next_] = value;
  next_ = (next_ + 1) % ring_.size();
  filled_ = std::min(filled_ + 1, ring_.size());
  if (next_ == 0) {
    // Re-derive the running sum once per wraparound: the incremental update
    // accumulates floating-point drift over unbounded streams, and a fresh
    // sum every `window` observations keeps the error bounded by one pass.
    double sum = 0;
    for (const double v : ring_) {
      sum += v;
    }
    sum_ = sum;
  }
}

double MovingAveragePredictor::Predict() const {
  return filled_ == 0 ? 0.0 : sum_ / static_cast<double>(filled_);
}

void MovingAveragePredictor::SaveState(ByteWriter& w) const {
  SaveRing(ring_, w);
  w.U64(next_);
  w.U64(filled_);
  w.F64(sum_);
}

void MovingAveragePredictor::RestoreState(ByteReader& r) {
  RestoreRing(ring_, r);
  next_ = r.U64();
  filled_ = r.U64();
  sum_ = r.F64();
  // The cursor trails the fill until the ring is full.
  COLDSTART_CHECK(next_ < ring_.size() && filled_ <= ring_.size() &&
                  (filled_ == ring_.size() || next_ == filled_));
}

SeasonalNaivePredictor::SeasonalNaivePredictor(int season) {
  COLDSTART_CHECK_GT(season, 0);
  season_.assign(static_cast<size_t>(season), 0.0);
}

void SeasonalNaivePredictor::Observe(double value) {
  season_[pos_] = value;
  pos_ = (pos_ + 1) % season_.size();
  ++observed_;
  last_ = value;
}

double SeasonalNaivePredictor::Predict() const {
  if (observed_ < season_.size()) {
    return last_;
  }
  // pos_ currently points at the slot holding the value from exactly one season ago.
  return season_[pos_];
}

void SeasonalNaivePredictor::SaveState(ByteWriter& w) const {
  SaveRing(season_, w);
  w.U64(pos_);
  w.U64(observed_);
  w.F64(last_);
}

void SeasonalNaivePredictor::RestoreState(ByteReader& r) {
  RestoreRing(season_, r);
  pos_ = r.U64();
  observed_ = r.U64();
  last_ = r.F64();
  COLDSTART_CHECK(pos_ < season_.size() && pos_ == observed_ % season_.size());
}

HoltWintersPredictor::HoltWintersPredictor(int season, double alpha, double beta,
                                           double gamma)
    : alpha_(alpha), beta_(beta), gamma_(gamma) {
  COLDSTART_CHECK_GT(season, 0);
  seasonal_.assign(static_cast<size_t>(season), 0.0);
}

void HoltWintersPredictor::Observe(double value) {
  if (observed_ == 0) {
    level_ = value;
  }
  const double s = seasonal_[pos_];
  const double prev_level = level_;
  level_ = alpha_ * (value - s) + (1 - alpha_) * (level_ + trend_);
  trend_ = beta_ * (level_ - prev_level) + (1 - beta_) * trend_;
  seasonal_[pos_] = gamma_ * (value - level_) + (1 - gamma_) * s;
  pos_ = (pos_ + 1) % seasonal_.size();
  ++observed_;
}

double HoltWintersPredictor::Predict() const {
  return std::max(0.0, level_ + trend_ + seasonal_[pos_]);
}

void HoltWintersPredictor::SaveState(ByteWriter& w) const {
  SaveRing(seasonal_, w);
  w.U64(pos_);
  w.U64(observed_);
  w.F64(level_);
  w.F64(trend_);
}

void HoltWintersPredictor::RestoreState(ByteReader& r) {
  RestoreRing(seasonal_, r);
  pos_ = r.U64();
  observed_ = r.U64();
  level_ = r.F64();
  trend_ = r.F64();
  COLDSTART_CHECK(pos_ < seasonal_.size() && pos_ == observed_ % seasonal_.size());
}

std::unique_ptr<SeriesPredictor> MakePredictor(const std::string& kind, int season) {
  if (kind == "moving-average") {
    return std::make_unique<MovingAveragePredictor>(30);
  }
  if (kind == "seasonal-naive") {
    return std::make_unique<SeasonalNaivePredictor>(season);
  }
  if (kind == "holt-winters") {
    return std::make_unique<HoltWintersPredictor>(season, 0.3, 0.05, 0.15);
  }
  COLDSTART_CHECK(false);
  return nullptr;
}

}  // namespace coldstart::policy
