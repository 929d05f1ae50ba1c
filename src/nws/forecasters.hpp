// The Network Weather Service forecaster family (Wolski, TR-CS96-494).
//
// Each forecaster predicts the next value of a time series from its
// history. The Service evaluates every forecaster retrospectively
// ("postcasting") and reports the prediction of the one with the lowest
// mean squared error — NWS's dynamic predictor selection.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace sspred::nws {

/// Interface: one forward pass over a history (oldest first).
///
/// `postcast(history, first, out)` writes into `out[k - first]` the
/// prediction made from the prefix `history[0..k)`, for every prefix
/// length `k` in `[first, n]` where `n = history.size()`. It requires
/// `1 <= first <= n` and `out.size() == n - first + 1`. Each slot is
/// exactly (bit for bit) what the forecaster would predict from that
/// prefix alone: no state outlives the call, so the result depends only
/// on the prefix, and concurrent calls on one forecaster are safe. A
/// pass costs O(n·w) for a window of w samples; AdaptiveMean adds an
/// O(n²) sum to rescore its windows at every prefix.
class Forecaster {
 public:
  virtual ~Forecaster() = default;
  virtual void postcast(std::span<const double> history, std::size_t first,
                        std::span<double> out) const = 0;
  /// The prediction from the whole history: the last slot of
  /// `postcast(history, history.size(), ...)`.
  [[nodiscard]] double predict(std::span<const double> history) const;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Predicts the most recent value.
class LastValue final : public Forecaster {
 public:
  void postcast(std::span<const double> history, std::size_t first,
                std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return "last"; }
};

/// Predicts the mean of the entire history.
class RunningMean final : public Forecaster {
 public:
  void postcast(std::span<const double> history, std::size_t first,
                std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return "mean"; }
};

/// Predicts the mean of the last `window` values.
class SlidingMean final : public Forecaster {
 public:
  explicit SlidingMean(std::size_t window);
  void postcast(std::span<const double> history, std::size_t first,
                std::span<double> out) const override;
  [[nodiscard]] std::string name() const override;

 private:
  std::size_t window_;
};

/// Predicts the median of the last `window` values (robust to bursts).
/// Values must not be NaN: the pass keeps the window sorted.
class SlidingMedian final : public Forecaster {
 public:
  explicit SlidingMedian(std::size_t window);
  void postcast(std::span<const double> history, std::size_t first,
                std::span<double> out) const override;
  [[nodiscard]] std::string name() const override;

 private:
  std::size_t window_;
};

/// Exponential smoothing with gain `alpha` in (0, 1].
class ExpSmoothing final : public Forecaster {
 public:
  explicit ExpSmoothing(double alpha);
  void postcast(std::span<const double> history, std::size_t first,
                std::span<double> out) const override;
  [[nodiscard]] std::string name() const override;

 private:
  double alpha_;
};

/// NWS's adaptive-window mean: for each prediction, postcasts a set of
/// candidate windows over the recent history and averages over the window
/// whose one-step errors were smallest.
class AdaptiveMean final : public Forecaster {
 public:
  /// `windows` must be non-empty, ascending.
  explicit AdaptiveMean(std::vector<std::size_t> windows = {5, 10, 20, 50});
  void postcast(std::span<const double> history, std::size_t first,
                std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return "adaptive"; }

 private:
  std::vector<std::size_t> windows_;
};

/// The default NWS-style bank: last value, running mean, sliding
/// means/medians over several windows, and exponential smoothers.
[[nodiscard]] std::vector<std::unique_ptr<Forecaster>> default_bank();

}  // namespace sspred::nws
