// The NWS service: per-resource measurement histories + forecasting.
//
// The paper (§3): "The Network Weather Service supplied us with accurate
// run-time information about the CPU load on our machines as well as the
// variance of those values at 5 second intervals." Service reproduces
// that interface: observations stream in; forecast() returns the
// best-postcasting forecaster's prediction together with its error spread,
// packaged as a stochastic value.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "nws/forecasters.hpp"
#include "stoch/stochastic_value.hpp"

namespace sspred::nws {

/// A forecast with quality information.
struct Forecast {
  double value = 0.0;     ///< predicted next measurement
  double error_sd = 0.0;  ///< RMSE of the winning forecaster (postcast)
  std::string forecaster; ///< name of the winning forecaster

  /// The paper's parameter form: value ± 2·error_sd.
  [[nodiscard]] stoch::StochasticValue sv() const {
    return stoch::StochasticValue::from_mean_sd(value, error_sd);
  }
};

struct ServiceOptions {
  std::size_t history_capacity = 512;  ///< measurements kept per resource
  std::size_t warmup = 8;              ///< observations before postcasting
};

/// Thread safety: histories are guarded by a reader/writer lock, so any
/// number of concurrent readers (forecast/history/postcast_errors/...)
/// may overlap with writers (observe/load_csv). Writers serialize against
/// each other and against readers; a forecast therefore always sees a
/// complete, consistent history — never a half-appended one. The serving
/// layer (serve/epoch.hpp) additionally snapshots forecasts into immutable
/// epochs so a batch of predictions shares one consistent view.
class Service {
 public:
  explicit Service(ServiceOptions options = {});

  /// Records a measurement for `resource` (e.g. "cpu/sparc2-a"). A
  /// non-finite value throws and leaves the history unchanged.
  void observe(const std::string& resource, double value);

  /// Number of stored measurements for `resource` (0 if unknown).
  [[nodiscard]] std::size_t history_size(const std::string& resource) const;

  /// The stored history, oldest first.
  [[nodiscard]] std::vector<double> history(const std::string& resource) const;

  /// Forecast for `resource`. Requires at least warmup+2 observations.
  [[nodiscard]] Forecast forecast(const std::string& resource) const;

  /// Postcast MSE of every forecaster on `resource`'s history
  /// (for the forecaster-ablation bench), as (name, mse) pairs.
  [[nodiscard]] std::vector<std::pair<std::string, double>> postcast_errors(
      const std::string& resource) const;

  /// Persists every resource's history as CSV (`resource,index,value`).
  void save_csv(const std::string& path) const;

  /// Loads histories written by save_csv (appending to current state).
  /// A non-finite value throws; rows before it stay loaded.
  void load_csv(const std::string& path);

  /// All resource names with stored history.
  [[nodiscard]] std::vector<std::string> resources() const;

 private:
  /// A forecaster's postcast MSE and its prediction from the whole
  /// history.
  struct Score {
    double mse = 0.0;
    double next = 0.0;
  };

  /// history() body without locking; callers hold mutex_ (any mode).
  [[nodiscard]] std::vector<double> history_locked(
      const std::string& resource) const;
  /// One postcast pass per forecaster over the prefixes [warmup, n] of
  /// one copy of the history, scored in bank order. Callers hold mutex_.
  [[nodiscard]] std::vector<Score> score_locked(
      const std::string& resource) const;

  ServiceOptions options_;
  std::vector<std::unique_ptr<Forecaster>> bank_;
  mutable std::shared_mutex mutex_;  ///< guards histories_
  std::map<std::string, std::deque<double>> histories_;
};

}  // namespace sspred::nws
