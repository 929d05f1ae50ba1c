// Unit tests for the Network Weather Service clone: forecasters, dynamic
// selection, sensors, and a differential test of every forecaster's
// one-pass postcast against naive per-prefix references.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <vector>

#include "cluster/platform.hpp"
#include "machine/load_trace.hpp"
#include "nws/forecasters.hpp"
#include "nws/sensor.hpp"
#include "nws/service.hpp"
#include "stats/descriptive.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sspred::nws {
namespace {

TEST(Forecasters, LastValue) {
  const std::vector<double> h{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(LastValue().predict(h), 3.0);
}

TEST(Forecasters, RunningMean) {
  const std::vector<double> h{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(RunningMean().predict(h), 2.5);
}

TEST(Forecasters, SlidingMeanUsesWindowOnly) {
  const std::vector<double> h{100.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(SlidingMean(3).predict(h), 2.0);
  EXPECT_DOUBLE_EQ(SlidingMean(10).predict(h), 26.5);  // whole history
}

TEST(Forecasters, SlidingMedianRobustToSpike) {
  const std::vector<double> h{1.0, 1.0, 50.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(SlidingMedian(5).predict(h), 1.0);
}

TEST(Forecasters, ExpSmoothingConvergesToConstant) {
  std::vector<double> h(50, 4.2);
  EXPECT_NEAR(ExpSmoothing(0.3).predict(h), 4.2, 1e-9);
}

TEST(Forecasters, ExpSmoothingTracksTrend) {
  std::vector<double> h;
  for (int i = 0; i < 20; ++i) h.push_back(static_cast<double>(i));
  // High-gain smoothing should be close to the latest values.
  EXPECT_GT(ExpSmoothing(0.8).predict(h), 15.0);
}

TEST(Forecasters, InvalidConstruction) {
  EXPECT_THROW(SlidingMean(0), support::Error);
  EXPECT_THROW(ExpSmoothing(0.0), support::Error);
  EXPECT_THROW(ExpSmoothing(1.5), support::Error);
}

TEST(Forecasters, DefaultBankHasVariety) {
  const auto bank = default_bank();
  EXPECT_GE(bank.size(), 8u);
  std::vector<std::string> names;
  for (const auto& f : bank) names.push_back(f->name());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(Service, HistoryCapEnforced) {
  ServiceOptions opts;
  opts.history_capacity = 16;
  Service svc(opts);
  for (int i = 0; i < 100; ++i) {
    svc.observe("cpu/x", static_cast<double>(i));
  }
  EXPECT_EQ(svc.history_size("cpu/x"), 16u);
  EXPECT_DOUBLE_EQ(svc.history("cpu/x").front(), 84.0);  // oldest kept
}

TEST(Service, UnknownResourceThrows) {
  Service svc;
  EXPECT_THROW((void)svc.history("cpu/nope"), support::Error);
  EXPECT_THROW((void)svc.forecast("cpu/nope"), support::Error);
  EXPECT_EQ(svc.history_size("cpu/nope"), 0u);
}

TEST(Service, ForecastOfConstantSeriesIsExact) {
  Service svc;
  for (int i = 0; i < 60; ++i) svc.observe("cpu/c", 0.48);
  const Forecast f = svc.forecast("cpu/c");
  EXPECT_DOUBLE_EQ(f.value, 0.48);
  EXPECT_DOUBLE_EQ(f.error_sd, 0.0);
  EXPECT_TRUE(f.sv().is_point());
}

TEST(Service, ForecastTracksNoisyStationarySeries) {
  Service svc;
  support::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    svc.observe("cpu/n", rng.normal(0.48, 0.025));
  }
  const Forecast f = svc.forecast("cpu/n");
  EXPECT_NEAR(f.value, 0.48, 0.02);
  EXPECT_GT(f.error_sd, 0.0);
  EXPECT_LT(f.error_sd, 0.08);
  // The ±2sd stochastic value should cover the process mean comfortably.
  EXPECT_TRUE(f.sv().contains(0.48));
}

TEST(Service, MeanBeatsLastValueOnWhiteNoise) {
  Service svc;
  support::Rng rng(7);
  for (int i = 0; i < 300; ++i) svc.observe("cpu/w", rng.normal(0.5, 0.1));
  const auto errors = svc.postcast_errors("cpu/w");
  double last_mse = -1.0;
  double best_mean_mse = 1e9;
  for (const auto& [name, mse] : errors) {
    if (name == "last") last_mse = mse;
    if (name.find("mean") != std::string::npos) {
      best_mean_mse = std::min(best_mean_mse, mse);
    }
  }
  ASSERT_GE(last_mse, 0.0);
  EXPECT_LT(best_mean_mse, last_mse);
}

TEST(Service, LastValueWinsOnRandomWalk) {
  Service svc;
  support::Rng rng(9);
  double x = 0.0;
  for (int i = 0; i < 300; ++i) {
    x += rng.normal(0.0, 1.0);
    svc.observe("cpu/rw", x);
  }
  const Forecast f = svc.forecast("cpu/rw");
  // On a random walk, trackers (last value / high-gain smoothing) dominate
  // long averages.
  EXPECT_TRUE(f.forecaster == "last" || f.forecaster.find("expsm") == 0 ||
              f.forecaster == "mean5" || f.forecaster == "median5")
      << "winner was " << f.forecaster;
}

TEST(Service, ForecastRequiresWarmup) {
  Service svc;
  for (int i = 0; i < 5; ++i) svc.observe("cpu/short", 1.0);
  EXPECT_THROW((void)svc.forecast("cpu/short"), support::Error);
}

TEST(Service, ObserveRejectsNonFiniteAndKeepsHistory) {
  Service svc;
  for (int i = 0; i < 20; ++i) svc.observe("cpu/f", 0.25 * i);
  const std::vector<double> before = svc.history("cpu/f");
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(svc.observe("cpu/f", bad), support::Error);
    EXPECT_THROW(svc.observe("cpu/new", bad), support::Error);
  }
  EXPECT_EQ(svc.history("cpu/f"), before);
  EXPECT_EQ(svc.history_size("cpu/new"), 0u);
  EXPECT_EQ(svc.resources(), std::vector<std::string>{"cpu/f"});
  EXPECT_TRUE(std::isfinite(svc.forecast("cpu/f").error_sd));
}

TEST(Service, LoadCsvRejectsNonFiniteValue) {
  const auto path = std::filesystem::temp_directory_path() /
                    "sspred_nws_nonfinite_history.csv";
  {
    std::ofstream out(path);
    out << "resource,index,value\ncpu/x,0,0.5\ncpu/x,1,nan\n";
  }
  Service svc;
  EXPECT_THROW(svc.load_csv(path.string()), support::Error);
  EXPECT_EQ(svc.history("cpu/x"), std::vector<double>{0.5});
  std::filesystem::remove(path);
}

TEST(Forecasters, PostcastChecksItsArguments) {
  const std::vector<double> h{1.0, 2.0, 3.0};
  std::vector<double> out(3);
  for (const auto& f : default_bank()) {
    EXPECT_THROW(f->postcast(h, 0, std::span<double>(out.data(), 4)),
                 support::Error)
        << f->name();
    EXPECT_THROW(f->postcast(h, 1, std::span<double>(out.data(), 2)),
                 support::Error)
        << f->name();
    EXPECT_THROW((void)f->predict({}), support::Error) << f->name();
  }
  const std::vector<double> with_nan{1.0, std::nan(""), 3.0};
  EXPECT_THROW((void)SlidingMedian(5).predict(with_nan), support::Error);
}

// --- Differential test: one-pass postcast vs per-prefix references ------

using Reference = std::function<double(std::span<const double>)>;

std::span<const double> tail_of(std::span<const double> xs, std::size_t w) {
  return xs.size() > w ? xs.subspan(xs.size() - w) : xs;
}

/// NWS's adaptive-window mean, rescored from scratch for one prefix.
double adaptive_reference(std::span<const double> h) {
  const std::vector<std::size_t> windows{5, 10, 20, 50};
  const std::size_t eval_points = std::max<std::size_t>(4, h.size() / 4);
  const std::size_t eval_begin =
      h.size() > eval_points ? h.size() - eval_points : 1;
  std::size_t best_window = windows.front();
  double best_mse = std::numeric_limits<double>::infinity();
  for (std::size_t w : windows) {
    double se = 0.0;
    std::size_t count = 0;
    for (std::size_t i = eval_begin; i < h.size(); ++i) {
      const double err = stats::mean(tail_of(h.first(i), w)) - h[i];
      se += err * err;
      ++count;
    }
    if (count == 0) continue;
    const double mse = se / static_cast<double>(count);
    if (mse < best_mse) {
      best_mse = mse;
      best_window = w;
    }
  }
  return stats::mean(tail_of(h, best_window));
}

/// A naive per-prefix reference for every default_bank() forecaster.
std::map<std::string, Reference> references() {
  std::map<std::string, Reference> refs;
  refs["last"] = [](std::span<const double> h) { return h.back(); };
  refs["mean"] = [](std::span<const double> h) { return stats::mean(h); };
  for (std::size_t w : {5, 10, 20, 50}) {
    refs[SlidingMean(w).name()] = [w](std::span<const double> h) {
      return stats::mean(tail_of(h, w));
    };
  }
  for (std::size_t w : {5, 15, 31}) {
    refs[SlidingMedian(w).name()] = [w](std::span<const double> h) {
      return stats::median(tail_of(h, w));
    };
  }
  for (double a : {0.2, 0.5, 0.8}) {
    refs[ExpSmoothing(a).name()] = [a](std::span<const double> h) {
      double s = h.front();
      for (double x : h.subspan(1)) s = a * x + (1.0 - a) * s;
      return s;
    };
  }
  refs["adaptive"] = adaptive_reference;
  return refs;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

/// Seeded histories: heavy ties (values on a 1/16 grid), constant runs,
/// random walks, and smooth noise; lengths from warmup+2 to 600, several
/// below the largest window (50). No value is -0.0: the references sort
/// with std::sort, which leaves the order of -0.0 and +0.0 unspecified.
std::vector<std::vector<double>> differential_histories() {
  const std::size_t warmup = ServiceOptions{}.warmup;
  const std::vector<std::size_t> lengths{
      warmup + 2, 11, 17, 31, 49, 50, 51, 64, 130, 192, 313, 600};
  std::vector<std::vector<double>> out;
  support::Rng rng(20240517);
  for (std::size_t n : lengths) {
    std::vector<double> ties;
    std::vector<double> runs;
    std::vector<double> walk;
    std::vector<double> noise;
    double level = 0.5;
    double x = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      ties.push_back(std::floor(rng.uniform(0.0, 3.0) * 16.0) / 16.0);
      if (rng.uniform() < 0.1) level = std::floor(rng.uniform() * 8.0) / 8.0;
      runs.push_back(level);
      x += rng.normal(0.0, 1.0);
      walk.push_back(x);
      noise.push_back(rng.normal(0.48, 0.05));
    }
    out.push_back(std::move(ties));
    out.push_back(std::move(runs));
    out.push_back(std::move(walk));
    out.push_back(std::move(noise));
  }
  return out;
}

TEST(ForecasterDifferential, PostcastMatchesPerPrefixReferenceBitForBit) {
  const auto refs = references();
  const auto bank = default_bank();
  std::size_t compared = 0;
  for (const auto& h : differential_histories()) {
    const std::size_t n = h.size();
    for (const auto& f : bank) {
      const auto ref = refs.find(f->name());
      ASSERT_NE(ref, refs.end()) << "no reference for " << f->name();
      std::vector<double> expected(n + 1);
      for (std::size_t k = 1; k <= n; ++k) {
        expected[k] = ref->second(std::span<const double>(h).first(k));
      }
      for (std::size_t first : {std::size_t{1}, std::size_t{8}, n / 2, n}) {
        std::vector<double> out(n - first + 1);
        f->postcast(h, first, out);
        for (std::size_t k = first; k <= n; ++k) {
          ASSERT_EQ(bits(out[k - first]), bits(expected[k]))
              << f->name() << " n=" << n << " first=" << first << " k=" << k
              << ": " << hex(out[k - first]) << " vs " << hex(expected[k]);
          ++compared;
        }
      }
      ASSERT_EQ(bits(f->predict(h)), bits(expected[n])) << f->name();
    }
  }
  EXPECT_GT(compared, 100'000u);
}

TEST(ForecasterDifferential, ServiceMatchesPerPrefixSelection) {
  const auto refs = references();
  const auto bank = default_bank();
  const std::size_t warmup = ServiceOptions{}.warmup;
  for (const auto& series : differential_histories()) {
    Service svc;
    for (double v : series) svc.observe("r", v);
    const std::vector<double> h = svc.history("r");  // capped at 512
    // Reference selection: score each forecaster on every prefix from the
    // warm-up on, keep the first with the lowest MSE.
    std::vector<std::pair<std::string, double>> expected_errors;
    std::size_t best = 0;
    double best_mse = std::numeric_limits<double>::infinity();
    for (std::size_t f = 0; f < bank.size(); ++f) {
      const Reference& ref = refs.at(bank[f]->name());
      double se = 0.0;
      std::size_t count = 0;
      for (std::size_t i = warmup; i < h.size(); ++i) {
        const double err = ref(std::span<const double>(h).first(i)) - h[i];
        se += err * err;
        ++count;
      }
      const double mse = se / static_cast<double>(count);
      expected_errors.emplace_back(bank[f]->name(), mse);
      if (mse < best_mse) {
        best_mse = mse;
        best = f;
      }
    }
    const auto errors = svc.postcast_errors("r");
    ASSERT_EQ(errors.size(), expected_errors.size());
    for (std::size_t f = 0; f < errors.size(); ++f) {
      EXPECT_EQ(errors[f].first, expected_errors[f].first);
      EXPECT_EQ(bits(errors[f].second), bits(expected_errors[f].second))
          << errors[f].first << " n=" << h.size();
    }
    const Forecast fc = svc.forecast("r");
    EXPECT_EQ(fc.forecaster, bank[best]->name()) << "n=" << h.size();
    EXPECT_EQ(bits(fc.value), bits(refs.at(bank[best]->name())(h)))
        << "n=" << h.size();
    EXPECT_EQ(bits(fc.error_sd), bits(std::sqrt(best_mse)))
        << "n=" << h.size();
  }
}

// Forecasts pinned as hex-floats on three seeded series: white noise, a
// random walk, and a Platform-1 load trace longer than the history cap.
TEST(ForecasterDifferential, GoldenForecasts) {
  auto expect = [](const Forecast& fc, const char* value, const char* sd,
                   const char* winner) {
    EXPECT_EQ(hex(fc.value), value);
    EXPECT_EQ(hex(fc.error_sd), sd);
    EXPECT_EQ(fc.forecaster, winner);
  };
  {
    Service svc;
    support::Rng rng(5);
    for (int i = 0; i < 200; ++i) svc.observe("a", rng.normal(0.48, 0.025));
    expect(svc.forecast("a"), "0x1.e94e3541133cp-2", "0x1.ad73f9cfc1641p-6",
           "mean");
  }
  {
    Service svc;
    support::Rng rng(9);
    double x = 0.0;
    for (int i = 0; i < 300; ++i) {
      x += rng.normal(0.0, 1.0);
      svc.observe("b", x);
    }
    expect(svc.forecast("b"), "0x1.fb941e92cd99ep+3", "0x1.ef14552ad764ep-1",
           "last");
  }
  {
    Service svc;
    const auto trace = machine::LoadTrace::generate(cluster::platform1_load(),
                                                    600, 5.0, 21);
    for (double v : trace.samples()) svc.observe("c", v);
    expect(svc.forecast("c"), "0x1.4887a5a0bf3f1p-2", "0x1.7350326ee3c17p-5",
           "expsm80");
  }
}

TEST(Sensor, IngestSamplesTraceWindow) {
  sim::Engine eng;
  cluster::Platform platform(eng, cluster::dedicated_platform(1), 1);
  Service svc;
  ingest_cpu_history(platform.machine(0), svc, 0.0, 250.0, 5.0);
  EXPECT_EQ(svc.history_size(cpu_resource(platform.machine(0))), 50u);
}

TEST(Sensor, ProcessSamplesAtInterval) {
  sim::Engine eng;
  cluster::Platform platform(eng, cluster::dedicated_platform(1), 1);
  Service svc;
  eng.spawn(cpu_sensor(eng, platform.machine(0), svc, 5.0, 100.0));
  eng.run();
  EXPECT_EQ(svc.history_size(cpu_resource(platform.machine(0))), 20u);
  EXPECT_GE(eng.now(), 100.0);
}

TEST(Sensor, AttachCoversAllHosts) {
  sim::Engine eng;
  cluster::Platform platform(eng, cluster::dedicated_platform(3), 1);
  Service svc;
  attach_cpu_sensors(eng, platform, svc, 5.0, 50.0);
  eng.run();
  for (std::size_t i = 0; i < platform.size(); ++i) {
    EXPECT_EQ(svc.history_size(cpu_resource(platform.machine(i))), 10u);
  }
}

TEST(Sensor, ForecastFromGeneratedQuietTraceIsTight) {
  sim::Engine eng;
  cluster::Platform platform(eng, cluster::platform1(), 5);
  Service svc;
  // Host 0 carries the paper's centre-mode load 0.48 ± 0.05.
  ingest_cpu_history(platform.machine(0), svc, 0.0, 400.0, 5.0);
  const Forecast f = svc.forecast(cpu_resource(platform.machine(0)));
  EXPECT_NEAR(f.value, 0.48, 0.05);
  EXPECT_LT(f.sv().halfwidth(), 0.15);
}

}  // namespace
}  // namespace sspred::nws
