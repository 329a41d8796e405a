// Dedicated forecaster test suite: direct unit coverage for the
// SeriesPredictor family (moving average, seasonal naive, Holt-Winters) and
// the inter-arrival forecaster's histogram/confidence math that
// ForecastPrewarmPolicy acts on. Complements the scenario-level checks in
// policy_test.cc with exact, input-controlled expectations: ring wraparound,
// partially-filled windows, sum drift over long streams, season boundaries,
// warm-up and fixed-point behavior, bucket geometry, confidence gating,
// bit-exact serde round trips (every predictor and the forecaster), and a randomized check of the forecaster's
// incrementally maintained answers against a brute-force rescan of its ring.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/byte_serde.h"
#include "common/rng.h"
#include "policy/forecast.h"
#include "policy/predictors.h"

namespace coldstart::policy {
namespace {

// --- MovingAveragePredictor. ------------------------------------------------

TEST(MovingAveragePredictorTest, RingWraparoundEvictsOldest) {
  MovingAveragePredictor p(3);
  for (const double v : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) {
    p.Observe(v);
  }
  // Two full wraps: only {4, 5, 6} remain in the window.
  EXPECT_DOUBLE_EQ(p.Predict(), 5.0);
  p.Observe(9.0);  // Evicts the 4.
  EXPECT_DOUBLE_EQ(p.Predict(), (5.0 + 6.0 + 9.0) / 3.0);
}

TEST(MovingAveragePredictorTest, PartiallyFilledWindowAveragesOnlySeen) {
  MovingAveragePredictor p(8);
  double sum = 0;
  for (int i = 1; i <= 5; ++i) {
    p.Observe(static_cast<double>(i));
    sum += i;
    // The divisor is the number of observations, never the window size.
    EXPECT_DOUBLE_EQ(p.Predict(), sum / i);
  }
}

TEST(MovingAveragePredictorTest, SumDriftBoundedOverLongStreams) {
  // A long stream of awkward decimals: the incremental add/subtract update
  // would accumulate floating-point drift without the periodic re-derivation.
  // After a million observations the prediction must still match the exact
  // mean of the last `window` values to near machine precision.
  constexpr int kWindow = 32;
  constexpr int kStream = 1'000'000;
  MovingAveragePredictor p(kWindow);
  std::vector<double> tail(kWindow);
  for (int i = 0; i < kStream; ++i) {
    const double v = 0.1 * static_cast<double>(i % 7) + 0.0003;
    p.Observe(v);
    tail[static_cast<size_t>(i % kWindow)] = v;
  }
  double exact = 0;
  for (const double v : tail) {
    exact += v;
  }
  exact /= kWindow;
  EXPECT_NEAR(p.Predict(), exact, 1e-9);
}

TEST(MovingAveragePredictorTest, WindowOneTracksLastValue) {
  MovingAveragePredictor p(1);
  for (const double v : {3.5, -2.0, 100.0}) {
    p.Observe(v);
    EXPECT_DOUBLE_EQ(p.Predict(), v);
  }
}

// --- SeasonalNaivePredictor. ------------------------------------------------

TEST(SeasonalNaivePredictorTest, PreSeasonFallbackUsesLastObservation) {
  SeasonalNaivePredictor p(4);
  p.Observe(1.0);
  p.Observe(2.0);
  p.Observe(3.0);
  // Three of four season slots seen: still the last-value fallback.
  EXPECT_DOUBLE_EQ(p.Predict(), 3.0);
}

TEST(SeasonalNaivePredictorTest, ExactSeasonBoundarySwitchesToSeasonal) {
  SeasonalNaivePredictor p(4);
  for (const double v : {1.0, 2.0, 3.0, 4.0}) {
    p.Observe(v);
  }
  // The fourth observation completes the season: the very next prediction is
  // the same-phase value from one season ago, not the last observation.
  EXPECT_DOUBLE_EQ(p.Predict(), 1.0);
}

TEST(SeasonalNaivePredictorTest, TracksSeasonAcrossCycles) {
  SeasonalNaivePredictor p(3);
  const double cycle[] = {10.0, 20.0, 30.0};
  for (int i = 0; i < 9; ++i) {
    p.Observe(cycle[i % 3]);
  }
  // After three full cycles every prediction repeats the periodic pattern.
  for (int i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(p.Predict(), cycle[i % 3]);
    p.Observe(cycle[i % 3]);
  }
}

// --- HoltWintersPredictor. --------------------------------------------------

TEST(HoltWintersPredictorTest, WarmUpMatchesFirstObservation) {
  HoltWintersPredictor p(4, 0.3, 0.05, 0.15);
  p.Observe(42.0);
  // Warm-up seeds level to the first value with zero trend and seasonality:
  // the one-observation prediction is exactly that value.
  EXPECT_DOUBLE_EQ(p.Predict(), 42.0);
}

TEST(HoltWintersPredictorTest, ConstantSeriesFixedPoint) {
  HoltWintersPredictor p(6, 0.3, 0.05, 0.15);
  for (int i = 0; i < 500; ++i) {
    p.Observe(5.0);
  }
  // A constant series is a fixed point: level converges to the constant,
  // trend and seasonal components decay to zero.
  EXPECT_NEAR(p.Predict(), 5.0, 1e-6);
  p.Observe(5.0);
  EXPECT_NEAR(p.Predict(), 5.0, 1e-6);
}

TEST(HoltWintersPredictorTest, TrendTrackingWithinTolerance) {
  HoltWintersPredictor p(4, 0.5, 0.3, 0.1);
  constexpr double kSlope = 3.0;
  int i = 0;
  for (; i < 300; ++i) {
    p.Observe(kSlope * i);
  }
  // The one-step-ahead forecast follows the ramp within a few slopes' error.
  EXPECT_NEAR(p.Predict(), kSlope * i, 5.0 * kSlope);
}

TEST(MakePredictorTest, NamesMatchKinds) {
  for (const char* kind : {"moving-average", "seasonal-naive", "holt-winters"}) {
    const auto p = MakePredictor(kind, 12);
    ASSERT_NE(p, nullptr);
    EXPECT_STREQ(p->name(), kind);
  }
}

// --- SeriesPredictor checkpoints. ---------------------------------------------

// A demand-like series: a daily-ish wave plus deterministic jitter.
double SeriesValue(int i) {
  return 6.0 + 4.0 * std::sin(0.37 * i) + static_cast<double>((i * 7919) % 13) / 4.0;
}

// Feeds `observed` values into `original`, saves it, restores the bytes into
// `restored` (fresh, same configuration), then continues both: the restored
// copy re-saves the same bytes and predicts bit for bit what the original does.
void ExpectRoundTripContinues(SeriesPredictor& original, SeriesPredictor& restored,
                              int observed) {
  int i = 0;
  for (; i < observed; ++i) {
    original.Observe(SeriesValue(i));
  }
  ByteWriter w;
  original.SaveState(w);
  ByteReader r(w.data());
  restored.RestoreState(r);
  EXPECT_TRUE(r.AtEnd());
  ByteWriter again;
  restored.SaveState(again);
  EXPECT_EQ(again.data(), w.data());
  for (const int end = i + 100; i < end; ++i) {
    ASSERT_EQ(restored.Predict(), original.Predict()) << "after " << i;
    original.Observe(SeriesValue(i));
    restored.Observe(SeriesValue(i));
  }
  EXPECT_EQ(restored.Predict(), original.Predict());
}

TEST(SeriesPredictorSerdeTest, MovingAverageRoundTrips) {
  for (const int observed : {0, 5, 13}) {  // Empty, partly filled, wrapped mid-ring.
    MovingAveragePredictor original(8);
    MovingAveragePredictor restored(8);
    ExpectRoundTripContinues(original, restored, observed);
  }
}

TEST(SeriesPredictorSerdeTest, SeasonalNaiveRoundTrips) {
  for (const int observed : {10, 37}) {  // Pre-season fill, mid-ring past a season.
    SeasonalNaivePredictor original(24);
    SeasonalNaivePredictor restored(24);
    ExpectRoundTripContinues(original, restored, observed);
  }
}

TEST(SeriesPredictorSerdeTest, HoltWintersRoundTrips) {
  for (const int observed : {10, 37}) {  // Pre-season fill, mid-ring past a season.
    HoltWintersPredictor original(24, 0.3, 0.05, 0.15);
    HoltWintersPredictor restored(24, 0.3, 0.05, 0.15);
    ExpectRoundTripContinues(original, restored, observed);
  }
}

TEST(SeriesPredictorSerdeTest, RestoreChecksRingSizeAndCursors) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  MovingAveragePredictor eight(8);
  ByteWriter w;
  eight.SaveState(w);
  MovingAveragePredictor nine(9);
  ByteReader r(w.data());
  EXPECT_DEATH(nine.RestoreState(r), "ring.size\\(\\)");

  // A partly filled ring whose cursor is not at the fill.
  ByteWriter bad;
  bad.Count(8);
  for (int i = 0; i < 8; ++i) {
    bad.F64(1.0);
  }
  bad.U64(2);  // next_
  bad.U64(3);  // filled_
  bad.F64(3.0);
  ByteReader br(bad.data());
  EXPECT_DEATH(eight.RestoreState(br), "next_ == filled_");
}

// --- InterArrivalForecaster: histogram and confidence math. ------------------

TEST(InterArrivalForecasterTest, BucketOfIsFloorLog2OfMicroseconds) {
  EXPECT_EQ(InterArrivalForecaster::BucketOf(1), 0);
  EXPECT_EQ(InterArrivalForecaster::BucketOf(2), 1);
  EXPECT_EQ(InterArrivalForecaster::BucketOf(3), 1);
  EXPECT_EQ(InterArrivalForecaster::BucketOf(4), 2);
  EXPECT_EQ(InterArrivalForecaster::BucketOf(1023), 9);
  EXPECT_EQ(InterArrivalForecaster::BucketOf(1024), 10);
  // One second = 1e6 us: floor(log2) = 19.
  EXPECT_EQ(InterArrivalForecaster::BucketOf(kSecond), 19);
  // Non-positive IATs clamp into the lowest bucket instead of misindexing.
  EXPECT_EQ(InterArrivalForecaster::BucketOf(0), 0);
  // The largest representable IAT stays in range.
  EXPECT_LT(InterArrivalForecaster::BucketOf(INT64_MAX),
            InterArrivalForecaster::kNumBuckets);
}

TEST(InterArrivalForecasterTest, NoPredictionBelowMinSamples) {
  InterArrivalForecaster f;
  EXPECT_EQ(f.ModalBucket(), -1);
  EXPECT_DOUBLE_EQ(f.Confidence(), 0.0);
  EXPECT_FALSE(f.Confident());
  EXPECT_EQ(f.PredictedIat(), 0);
  EXPECT_EQ(f.PredictNextArrival(), -1);
  // Five IATs is one short of the default min_samples = 6 gate.
  SimTime t = 0;
  for (int i = 0; i < 6; ++i) {
    f.ObserveArrival(t);
    t += 5 * kMinute;
  }
  EXPECT_EQ(f.sample_count(), 5);
  EXPECT_DOUBLE_EQ(f.Confidence(), 0.0);
  EXPECT_EQ(f.PredictNextArrival(), -1);
}

TEST(InterArrivalForecasterTest, PeriodicSeriesFullConfidenceExactIat) {
  InterArrivalForecaster f;
  SimTime t = 0;
  for (int i = 0; i < 20; ++i) {
    f.ObserveArrival(t);
    t += 5 * kMinute;
  }
  // A strict timer concentrates all mass in one bucket; the trimmed mean over
  // identical integer samples is exact, not approximate.
  EXPECT_DOUBLE_EQ(f.Confidence(), 1.0);
  EXPECT_TRUE(f.Confident());
  EXPECT_EQ(f.PredictedIat(), 5 * kMinute);
  EXPECT_EQ(f.PredictNextArrival(), f.last_arrival() + 5 * kMinute);
}

TEST(InterArrivalForecasterTest, ZeroIatArrivalsAddNoSamples) {
  InterArrivalForecaster f;
  f.ObserveArrival(kMinute);
  f.ObserveArrival(kMinute);  // Concurrent duplicate: no inter-arrival gap.
  f.ObserveArrival(kMinute);
  EXPECT_EQ(f.sample_count(), 0);
  EXPECT_EQ(f.last_arrival(), kMinute);
}

TEST(InterArrivalForecasterTest, WindowEvictionKeepsHistogramConsistent) {
  InterArrivalForecaster::Options options;
  options.window = 8;
  InterArrivalForecaster f(options);
  SimTime t = 0;
  // Fill the window with 1-second IATs, then overwrite it entirely with
  // 100-second IATs: eviction must fully drain the old bucket's counts.
  for (int i = 0; i < 9; ++i) {
    f.ObserveArrival(t);
    t += kSecond;
  }
  for (int i = 0; i < 20; ++i) {
    f.ObserveArrival(t);
    t += 100 * kSecond;
  }
  EXPECT_EQ(f.sample_count(), 8);
  EXPECT_EQ(f.ModalBucket(), InterArrivalForecaster::BucketOf(100 * kSecond));
  EXPECT_DOUBLE_EQ(f.Confidence(), 1.0);
  EXPECT_EQ(f.PredictedIat(), 100 * kSecond);
}

TEST(InterArrivalForecasterTest, DispersedIatsFailConfidenceGate) {
  InterArrivalForecaster f;
  // IATs spread across octaves at least three log2 buckets apart: no modal
  // neighborhood can ever hold a majority, so the gate must stay closed.
  const SimDuration iats[] = {kSecond,        8 * kSecond,     64 * kSecond,
                              512 * kSecond,  4096 * kSecond,  32768 * kSecond};
  SimTime t = 0;
  f.ObserveArrival(t);
  for (int round = 0; round < 2; ++round) {
    for (const SimDuration iat : iats) {
      t += iat;
      f.ObserveArrival(t);
    }
  }
  EXPECT_EQ(f.sample_count(), 12);
  EXPECT_NEAR(f.Confidence(), 2.0 / 12.0, 1e-12);
  EXPECT_FALSE(f.Confident());
  EXPECT_EQ(f.PredictNextArrival(), -1);
}

TEST(InterArrivalForecasterTest, JitterTolerantPrediction) {
  InterArrivalForecaster f;
  // ~300 s period with +-10% deterministic jitter: every IAT lands in the
  // same log2 bucket, so confidence is full and the trimmed mean is the
  // exact integer mean of the jittered samples.
  const SimDuration jitter[] = {0, 17 * kSecond, -23 * kSecond, 9 * kSecond,
                                -12 * kSecond, 28 * kSecond, -5 * kSecond};
  SimTime t = 0;
  int64_t sum = 0;
  int64_t count = 0;
  f.ObserveArrival(t);
  for (int i = 0; i < 21; ++i) {
    const SimDuration iat = 300 * kSecond + jitter[i % 7];
    t += iat;
    f.ObserveArrival(t);
    sum += iat;
    ++count;
  }
  EXPECT_DOUBLE_EQ(f.Confidence(), 1.0);
  EXPECT_EQ(f.PredictedIat(), sum / count);
  EXPECT_NEAR(ToSeconds(f.PredictedIat()), 300.0, 30.0);
}

TEST(InterArrivalForecasterTest, DiurnalPredictsNextActiveHour) {
  InterArrivalForecaster f;
  // Four arrivals inside hour 9 of day 0, one stray at hour 13: hour 9 is the
  // peak; hour 13's count is under half the peak and must be skipped.
  for (int k = 0; k < 4; ++k) {
    f.ObserveArrival(9 * kHour + k * 10 * kMinute);
  }
  f.ObserveArrival(13 * kHour);
  // From 06:30 next day, the next active hour is 09:00 that day.
  EXPECT_EQ(f.PredictDiurnalNext(kDay + 6 * kHour + 30 * kMinute),
            kDay + 9 * kHour);
  // From 12:30, hour 13 (count 1 < peak/2) is skipped: the answer wraps all
  // the way to 09:00 the following day.
  EXPECT_EQ(f.PredictDiurnalNext(kDay + 12 * kHour + 30 * kMinute),
            2 * kDay + 9 * kHour);
}

TEST(InterArrivalForecasterTest, DiurnalRequiresMinPeakCount) {
  InterArrivalForecaster f;
  f.ObserveArrival(9 * kHour);
  f.ObserveArrival(9 * kHour + 10 * kMinute);
  // Peak hour holds two arrivals, below diurnal_min_count = 3: too thin.
  EXPECT_EQ(f.PredictDiurnalNext(kDay), -1);
}

TEST(InterArrivalForecasterTest, SerdeRoundTripBitExact) {
  InterArrivalForecaster::Options options;
  options.window = 16;
  InterArrivalForecaster f(options);
  // Mixed stream that wraps the ring: serde must carry eviction state too.
  SimTime t = 0;
  for (int i = 0; i < 40; ++i) {
    t += (i % 5 + 1) * kMinute + i * kSecond;
    f.ObserveArrival(t);
  }
  ByteWriter w1;
  f.SaveState(w1);

  InterArrivalForecaster restored(options);
  ByteReader r(w1.data());
  restored.RestoreState(r);
  EXPECT_TRUE(r.AtEnd());

  // Bit-exact: the same bytes come back out, and the derived histogram
  // answers agree exactly.
  ByteWriter w2;
  restored.SaveState(w2);
  EXPECT_EQ(w1.data(), w2.data());
  EXPECT_EQ(restored.sample_count(), f.sample_count());
  EXPECT_EQ(restored.ModalBucket(), f.ModalBucket());
  EXPECT_DOUBLE_EQ(restored.Confidence(), f.Confidence());
  EXPECT_EQ(restored.PredictedIat(), f.PredictedIat());

  // And the two instances evolve identically after the round trip.
  for (int i = 0; i < 10; ++i) {
    t += 3 * kMinute;
    f.ObserveArrival(t);
    restored.ObserveArrival(t);
  }
  ByteWriter w3, w4;
  f.SaveState(w3);
  restored.SaveState(w4);
  EXPECT_EQ(w3.data(), w4.data());
}

// --- InterArrivalForecaster: incremental state == brute force. --------------

// The live window as SaveState writes it: slots [0, filled) of the ring.
std::vector<int64_t> LiveSamples(const InterArrivalForecaster& f, int window) {
  ByteWriter w;
  f.SaveState(w);
  ByteReader r(w.data());
  r.I64();  // last_arrival
  r.U64();  // next
  const uint64_t filled = r.U64();
  std::vector<int64_t> ring(static_cast<size_t>(window));
  for (int64_t& iat : ring) {
    iat = r.I64();
  }
  ring.resize(filled);
  return ring;
}

// The forecaster's answers recomputed from scratch over the live samples.
struct BruteForceAnswers {
  int modal = -1;
  double confidence = 0;
  int64_t predicted_iat = 0;
  int64_t mean_iat = 0;
};

BruteForceAnswers BruteForce(const std::vector<int64_t>& samples, int min_samples) {
  BruteForceAnswers a;
  if (samples.empty()) {
    return a;
  }
  std::array<uint32_t, InterArrivalForecaster::kNumBuckets> hist{};
  int64_t total = 0;
  for (const int64_t iat : samples) {
    hist[static_cast<size_t>(InterArrivalForecaster::BucketOf(iat))] += 1;
    total += iat;
  }
  a.modal = 0;
  for (int b = 1; b < InterArrivalForecaster::kNumBuckets; ++b) {
    if (hist[static_cast<size_t>(b)] > hist[static_cast<size_t>(a.modal)]) {
      a.modal = b;
    }
  }
  const auto n = static_cast<int64_t>(samples.size());
  a.mean_iat = total / n;
  if (n < min_samples) {
    return a;
  }
  int64_t count = 0;
  int64_t sum = 0;
  for (const int64_t iat : samples) {
    const int b = InterArrivalForecaster::BucketOf(iat);
    if (b >= a.modal - 1 && b <= a.modal + 1) {
      ++count;
      sum += iat;
    }
  }
  a.confidence = static_cast<double>(count) / static_cast<double>(n);
  a.predicted_iat = sum / count;
  return a;
}

// Draws the next IAT from one of five regimes: a jittered timer, exponential
// gaps, tiny IATs (0 included, which adds no sample), powers of two +-1 that
// straddle bucket edges, and multi-day gaps.
SimDuration NextIat(Rng& rng, int regime) {
  switch (regime) {
    case 0:
      return 5 * kMinute + static_cast<SimDuration>(rng.NextBounded(2 * kSecond));
    case 1:
      return 1 + static_cast<SimDuration>(rng.NextExponential(1.0 / (10.0 * kMinute)));
    case 2:
      return static_cast<SimDuration>(rng.NextBounded(4));
    case 3:
      return (SimDuration{1} << rng.NextBounded(40)) +
             static_cast<SimDuration>(rng.NextBounded(3)) - 1;
    default:
      return 1 + static_cast<SimDuration>(rng.NextBounded(30 * kDay));
  }
}

TEST(InterArrivalForecasterTest, IncrementalStateMatchesBruteForce) {
  struct Case {
    int window;
    int min_samples;
  };
  // 6 x 20,000 observations, each window wrapped hundreds of times.
  const Case cases[] = {{1, 1}, {2, 1}, {5, 3}, {16, 6}, {48, 6}, {64, 10}};
  constexpr int kObservations = 20000;
  Rng rng(2403);
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "window " << c.window);
    InterArrivalForecaster::Options options;
    options.window = c.window;
    options.min_samples = c.min_samples;
    InterArrivalForecaster f(options);
    SimTime t = 0;
    int regime = 0;
    int regime_left = 0;
    for (int i = 0; i < kObservations; ++i) {
      if (regime_left-- == 0) {
        regime = static_cast<int>(rng.NextBounded(5));
        regime_left = 1 + static_cast<int>(rng.NextBounded(200));
      }
      t += NextIat(rng, regime);
      f.ObserveArrival(t);
      if (i % 4999 == 4998) {
        // Mid-stream checkpoint: carry on with the restored instance, whose
        // derived state was rebuilt from the ring rather than maintained.
        ByteWriter saved;
        f.SaveState(saved);
        InterArrivalForecaster restored(options);
        ByteReader r(saved.data());
        restored.RestoreState(r);
        ASSERT_TRUE(r.AtEnd());
        f = restored;
      }
      const BruteForceAnswers want = BruteForce(LiveSamples(f, c.window), c.min_samples);
      ASSERT_EQ(f.ModalBucket(), want.modal) << "observation " << i;
      ASSERT_EQ(f.Confidence(), want.confidence) << "observation " << i;
      ASSERT_EQ(f.PredictedIat(), want.predicted_iat) << "observation " << i;
      ASSERT_EQ(f.MeanIat(), want.mean_iat) << "observation " << i;
    }
    EXPECT_EQ(f.sample_count(), c.window);
  }
}

}  // namespace
}  // namespace coldstart::policy
