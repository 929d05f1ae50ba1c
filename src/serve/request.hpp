// The serving stack's request/result vocabulary.
//
// Shared by every layer — routing (router.hpp), the per-shard
// admission queue and execution engine (shard.hpp), the facade
// (service.hpp) and the wire codec (wire.hpp) — so it lives below all of
// them. Nothing here knows about queues, shards or workers: these are
// plain value types.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stoch/stochastic_value.hpp"

namespace sspred::serve {

/// How the prediction is computed.
enum class Mode {
  kStochastic,  ///< compiled §2.3 stochastic calculus
  kPoint,       ///< conventional point prediction (means only)
  kMonteCarlo,  ///< sampled mean ± 2sd, chunked across workers
};

/// One prediction query. Loads are bound either explicitly (`loads`,
/// one stochastic value per host) or by NWS resource name (`resources`,
/// resolved against the bindings epoch current at admission); exactly
/// one of the two must be provided. The bandwidth parameter defaults to
/// a dedicated segment and may likewise come from the epoch.
struct PredictRequest {
  std::string model_id;
  Mode mode = Mode::kStochastic;
  std::vector<stoch::StochasticValue> loads;
  std::vector<std::string> resources;
  stoch::StochasticValue bwavail = stoch::StochasticValue(1.0);
  std::string bwavail_resource;  ///< overrides `bwavail` when non-empty
  std::size_t trials = 2000;     ///< kMonteCarlo: trial count; with a
                                 ///< precision target, the max-trial clamp
  std::uint64_t seed = 1;        ///< kMonteCarlo only
  /// kMonteCarlo precision target: when > 0 trials run in blocks and stop
  /// at the first checkpoint where the CI half-width of the predicted
  /// mean is at or below this value (sequential stopping), clamped to
  /// [min_trials, trials]. Hitting the `trials` clamp with the target
  /// unmet is a structured partial-precision outcome (kOk with
  /// `precision_met` false), never an error. 0 keeps the fixed count.
  double precision = 0.0;
  bool precision_relative = false;  ///< `precision` is a fraction of |mean|
  std::size_t min_trials = 64;      ///< floor before the precision stop may
                                    ///< fire (ignored when precision == 0)
};

struct PredictResult {
  enum class Status {
    kOk,
    kError,     ///< structured failure; `error` says what went wrong
    kRejected,  ///< shed by admission control, routing, or shutdown
  };
  Status status = Status::kOk;
  std::string error;
  stoch::StochasticValue value;   ///< prediction (point: halfwidth 0)
  double point = 0.0;             ///< mean shortcut
  std::uint64_t request_id = 0;   ///< ticket for report_observation()
  /// Which predictor produced `value`: 0 structural, 1 learned, 2 blended
  /// (learn::Source numbering; always 0 when learning is disabled).
  std::uint8_t source = 0;
  std::uint64_t epoch_version = 0;  ///< bindings epoch served under (0: none)
  std::size_t batch_size = 1;     ///< requests sharing this evaluation
  double latency_seconds = 0.0;   ///< submit -> completion, service clock
  // Monte-Carlo execution detail (zero / defaulted for other modes):
  std::size_t mc_trials = 0;      ///< trials actually executed
  double mc_ci_halfwidth = 0.0;   ///< achieved CI half-width of the mean
  /// False only for a precision-target request whose target was still
  /// unmet at the `trials` clamp (partial precision; status stays kOk).
  bool precision_met = true;

  [[nodiscard]] bool ok() const noexcept { return status == Status::kOk; }
};

}  // namespace sspred::serve
