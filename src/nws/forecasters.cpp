#include "nws/forecasters.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/descriptive.hpp"
#include "support/error.hpp"

namespace sspred::nws {

namespace {
[[nodiscard]] std::span<const double> tail(std::span<const double> xs,
                                           std::size_t window) {
  return xs.size() > window ? xs.subspan(xs.size() - window) : xs;
}

void check_postcast(std::span<const double> history, std::size_t first,
                    std::span<const double> out) {
  SSPRED_REQUIRE(first >= 1 && first <= history.size(),
                 "forecaster needs history");
  SSPRED_REQUIRE(out.size() == history.size() - first + 1,
                 "postcast needs one output slot per prefix");
}

// The first index AdaptiveMean scores when predicting from a k-sample
// prefix: the most recent quarter of it, at least 4 points. Nondecreasing
// in k.
[[nodiscard]] std::size_t adaptive_eval_begin(std::size_t k) {
  const std::size_t eval_points = std::max<std::size_t>(4, k / 4);
  return k > eval_points ? k - eval_points : 1;
}
}  // namespace

double Forecaster::predict(std::span<const double> history) const {
  double next = 0.0;
  postcast(history, history.size(), std::span<double>(&next, 1));
  return next;
}

void LastValue::postcast(std::span<const double> history, std::size_t first,
                         std::span<double> out) const {
  check_postcast(history, first, out);
  for (std::size_t k = first; k <= history.size(); ++k) {
    out[k - first] = history[k - 1];
  }
}

void RunningMean::postcast(std::span<const double> history, std::size_t first,
                           std::span<double> out) const {
  check_postcast(history, first, out);
  // A left-to-right prefix sum: the same additions, in the same order, as
  // stats::mean over each prefix.
  double sum = 0.0;
  for (std::size_t k = 1; k <= history.size(); ++k) {
    sum += history[k - 1];
    if (k >= first) out[k - first] = sum / static_cast<double>(k);
  }
}

SlidingMean::SlidingMean(std::size_t window) : window_(window) {
  SSPRED_REQUIRE(window >= 1, "window must be >= 1");
}

void SlidingMean::postcast(std::span<const double> history, std::size_t first,
                           std::span<double> out) const {
  check_postcast(history, first, out);
  for (std::size_t k = first; k <= history.size(); ++k) {
    out[k - first] = stats::mean(tail(history.first(k), window_));
  }
}

std::string SlidingMean::name() const {
  return "mean" + std::to_string(window_);
}

SlidingMedian::SlidingMedian(std::size_t window) : window_(window) {
  SSPRED_REQUIRE(window >= 1, "window must be >= 1");
}

void SlidingMedian::postcast(std::span<const double> history,
                             std::size_t first, std::span<double> out) const {
  check_postcast(history, first, out);
  // The window history[i-window_+1 .. i] kept sorted: insert each sample,
  // evict the one that slid out. Samples before `start` never reach an
  // output slot's window.
  const std::size_t start = first > window_ ? first - window_ : 0;
  std::vector<double> sorted;
  sorted.reserve(window_ + 1);
  for (std::size_t i = start; i < history.size(); ++i) {
    const double x = history[i];
    SSPRED_REQUIRE(!std::isnan(x), "median forecaster needs ordered values");
    sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), x), x);
    if (i >= start + window_) {
      sorted.erase(std::lower_bound(sorted.begin(), sorted.end(),
                                    history[i - window_]));
    }
    if (i + 1 >= first) {
      out[i + 1 - first] = stats::quantile_sorted(sorted, 0.5);
    }
  }
}

std::string SlidingMedian::name() const {
  return "median" + std::to_string(window_);
}

ExpSmoothing::ExpSmoothing(double alpha) : alpha_(alpha) {
  SSPRED_REQUIRE(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
}

void ExpSmoothing::postcast(std::span<const double> history,
                            std::size_t first, std::span<double> out) const {
  check_postcast(history, first, out);
  double s = history.front();
  for (std::size_t k = 1; k <= history.size(); ++k) {
    if (k > 1) s = alpha_ * history[k - 1] + (1.0 - alpha_) * s;
    if (k >= first) out[k - first] = s;
  }
}

std::string ExpSmoothing::name() const {
  return "expsm" + std::to_string(static_cast<int>(alpha_ * 100.0));
}

AdaptiveMean::AdaptiveMean(std::vector<std::size_t> windows)
    : windows_(std::move(windows)) {
  SSPRED_REQUIRE(!windows_.empty(), "adaptive mean needs candidate windows");
  SSPRED_REQUIRE(std::is_sorted(windows_.begin(), windows_.end()),
                 "candidate windows must be ascending");
  SSPRED_REQUIRE(windows_.front() >= 1, "windows must be >= 1");
}

void AdaptiveMean::postcast(std::span<const double> history,
                            std::size_t first, std::span<double> out) const {
  check_postcast(history, first, out);
  // Each candidate window's sliding mean before every index i in [lo, n],
  // and its squared one-step error at every i in [lo, n), computed once.
  const std::size_t n = history.size();
  const std::size_t lo = adaptive_eval_begin(first);
  const std::size_t stride = n - lo + 1;
  std::vector<double> means(windows_.size() * stride);
  std::vector<double> sq_errors(windows_.size() * stride);
  for (std::size_t c = 0; c < windows_.size(); ++c) {
    double* m = means.data() + c * stride;
    double* e = sq_errors.data() + c * stride;
    for (std::size_t i = lo; i <= n; ++i) {
      m[i - lo] = stats::mean(tail(history.first(i), windows_[c]));
      if (i < n) {
        const double err = m[i - lo] - history[i];
        e[i - lo] = err * err;
      }
    }
  }
  // Per prefix, score each window over the prefix's most recent quarter
  // (summed in index order) and predict with the lowest-MSE window.
  for (std::size_t k = first; k <= n; ++k) {
    const std::size_t eval_begin = adaptive_eval_begin(k);
    std::size_t best = 0;
    double best_mse = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < windows_.size(); ++c) {
      const double* e = sq_errors.data() + c * stride;
      double se = 0.0;
      std::size_t count = 0;
      for (std::size_t i = eval_begin; i < k; ++i) {
        se += e[i - lo];
        ++count;
      }
      if (count == 0) continue;
      const double mse = se / static_cast<double>(count);
      if (mse < best_mse) {
        best_mse = mse;
        best = c;
      }
    }
    out[k - first] = means[best * stride + k - lo];
  }
}

std::vector<std::unique_ptr<Forecaster>> default_bank() {
  std::vector<std::unique_ptr<Forecaster>> bank;
  bank.push_back(std::make_unique<LastValue>());
  bank.push_back(std::make_unique<RunningMean>());
  for (std::size_t w : {5, 10, 20, 50}) {
    bank.push_back(std::make_unique<SlidingMean>(w));
  }
  for (std::size_t w : {5, 15, 31}) {
    bank.push_back(std::make_unique<SlidingMedian>(w));
  }
  for (double a : {0.2, 0.5, 0.8}) {
    bank.push_back(std::make_unique<ExpSmoothing>(a));
  }
  bank.push_back(std::make_unique<AdaptiveMean>());
  return bank;
}

}  // namespace sspred::nws
