// Time-series predictors for resource-pool sizing (§5 "Resource pool prediction").
//
// Small online forecasters over per-minute demand series. All of them observe one
// value per bucket and answer "how much will the next bucket need"; the pool policy
// translates that into pool targets. Each one checkpoints its whole state
// (SaveState/RestoreState) so the pool policy can.
#ifndef COLDSTART_POLICY_PREDICTORS_H_
#define COLDSTART_POLICY_PREDICTORS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/byte_serde.h"

namespace coldstart::policy {

class SeriesPredictor {
 public:
  virtual ~SeriesPredictor() = default;
  virtual void Observe(double value) = 0;
  virtual double Predict() const = 0;
  virtual const char* name() const = 0;
  // Serializes the whole state (doubles by bit pattern) so a predictor
  // restored onto an identically configured instance continues bit for bit.
  // Restore CHECKs the ring size against the configuration and each cursor
  // and fill count against the ring.
  virtual void SaveState(ByteWriter& w) const = 0;
  virtual void RestoreState(ByteReader& r) = 0;
};

// Flat moving average over the last `window` observations.
class MovingAveragePredictor : public SeriesPredictor {
 public:
  explicit MovingAveragePredictor(int window);
  void Observe(double value) override;
  double Predict() const override;
  const char* name() const override { return "moving-average"; }
  void SaveState(ByteWriter& w) const override;
  void RestoreState(ByteReader& r) override;

 private:
  std::vector<double> ring_;
  size_t next_ = 0;
  size_t filled_ = 0;
  double sum_ = 0;
};

// Same bucket one season ago (e.g. the same minute yesterday); falls back to the last
// observation until a full season has been seen.
class SeasonalNaivePredictor : public SeriesPredictor {
 public:
  explicit SeasonalNaivePredictor(int season);
  void Observe(double value) override;
  double Predict() const override;
  const char* name() const override { return "seasonal-naive"; }
  void SaveState(ByteWriter& w) const override;
  void RestoreState(ByteReader& r) override;

 private:
  std::vector<double> season_;
  size_t pos_ = 0;
  uint64_t observed_ = 0;
  double last_ = 0;
};

// Additive Holt-Winters with a daily season: level + trend + seasonal index.
class HoltWintersPredictor : public SeriesPredictor {
 public:
  HoltWintersPredictor(int season, double alpha, double beta, double gamma);
  void Observe(double value) override;
  double Predict() const override;
  const char* name() const override { return "holt-winters"; }
  void SaveState(ByteWriter& w) const override;
  void RestoreState(ByteReader& r) override;

 private:
  std::vector<double> seasonal_;
  size_t pos_ = 0;
  uint64_t observed_ = 0;
  double level_ = 0;
  double trend_ = 0;
  double alpha_, beta_, gamma_;
};

std::unique_ptr<SeriesPredictor> MakePredictor(const std::string& kind, int season);

}  // namespace coldstart::policy

#endif  // COLDSTART_POLICY_PREDICTORS_H_
