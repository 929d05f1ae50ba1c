#include "model/ir.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "stoch/montecarlo.hpp"
#include "support/error.hpp"

// Inner per-lane loops of the blocked engine are flat and alias-free;
// with SSPRED_SIMD=ON the build defines SSPRED_USE_OMP_SIMD and marks them
// for explicit vectorization (plain builds rely on auto-vectorization).
#if defined(SSPRED_USE_OMP_SIMD)
#define SSPRED_SIMD_LOOP _Pragma("omp simd")
#else
#define SSPRED_SIMD_LOOP
#endif

namespace sspred::model::ir {

using stoch::Dependence;
using stoch::StochasticValue;

namespace {

/// "a, b, c" or "(none)" — shared by the unbound-slot guards.
[[nodiscard]] std::string join_names(const std::vector<std::string>& names) {
  if (names.empty()) return "(none)";
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

/// One batched draw for a stochastic value: point values fill their mean
/// without touching the RNG (mirroring stoch::sample), stochastic values
/// take `lanes` consecutive ziggurat normals.
void fill_lane(const StochasticValue& v, support::Rng& rng, double* row,
               std::size_t lanes) {
  if (v.is_point()) {
    std::fill(row, row + lanes, v.mean());
  } else {
    rng.normal_fill({row, lanes}, v.mean(), v.sd());
  }
}

/// Lane count of the solo entry points: a SlotEnvironment is the one-lane
/// instance of every walk, with the count fixed at compile time so each
/// per-lane loop collapses to straight-line code.
using OneLane = std::integral_constant<std::size_t, 1>;

/// Lane-indexed binding reads shared by the solo and fused walks. A
/// SlotEnvironment has one lane, so its overload ignores `lane`.
const StochasticValue& lookup(const SlotEnvironment& env,
                              std::size_t /*lane*/, std::uint32_t slot) {
  return env.lookup(slot);
}
const StochasticValue& lookup(const LaneEnvironment& env, std::size_t lane,
                              std::uint32_t slot) {
  return env.lookup(lane, slot);
}

}  // namespace

SlotEnvironment::SlotEnvironment(
    std::shared_ptr<const std::vector<std::string>> names)
    : values_(names->size()),
      bound_(names->size(), 0),
      names_(std::move(names)) {}

void SlotEnvironment::bind(std::uint32_t slot, StochasticValue value) {
  SSPRED_REQUIRE(slot < values_.size(),
                 "slot " + std::to_string(slot) + " out of range (program has " +
                     std::to_string(values_.size()) + " parameter slots)");
  values_[slot] = value;
  bound_[slot] = 1;
}

const StochasticValue& SlotEnvironment::lookup(std::uint32_t slot) const {
  if (slot < bound_.size() && bound_[slot] != 0) return values_[slot];
  std::string msg = "unbound model parameter slot " + std::to_string(slot);
  if (slot < names_->size()) msg += " ('" + (*names_)[slot] + "')";
  std::vector<std::string> bound_names;
  for (std::size_t s = 0; s < bound_.size(); ++s) {
    if (bound_[s] != 0) bound_names.push_back((*names_)[s]);
  }
  msg += "; bound: " + join_names(bound_names);
  SSPRED_REQUIRE(false, msg);
  return values_[slot];  // unreachable
}

void LaneEnvironment::reset(const Program& program, std::size_t lanes) {
  names_ = program.slot_names_;
  lanes_ = lanes;
  // assign() reuses capacity, so a serving worker's pooled environment is
  // allocation-free once it has seen its largest (slots x lanes) shape.
  values_.assign(names_->size() * lanes, StochasticValue());
  bound_.assign(names_->size() * lanes, 0);
}

void LaneEnvironment::bind(std::size_t lane, std::uint32_t slot,
                           StochasticValue value) {
  SSPRED_REQUIRE(lane < lanes_,
                 "lane " + std::to_string(lane) + " out of range (environment "
                 "has " + std::to_string(lanes_) + " lanes)");
  SSPRED_REQUIRE(slot < slot_count(),
                 "slot " + std::to_string(slot) + " out of range (program has " +
                     std::to_string(slot_count()) + " parameter slots)");
  const std::size_t idx = static_cast<std::size_t>(slot) * lanes_ + lane;
  values_[idx] = value;
  bound_[idx] = 1;
}

void LaneEnvironment::assign_compacted(const LaneEnvironment& src,
                                       std::span<const std::size_t> lane_ids) {
  SSPRED_REQUIRE(this != &src, "assign_compacted: source must be distinct");
  names_ = src.names_;
  lanes_ = lane_ids.size();
  const std::size_t slots = names_ ? names_->size() : 0;
  values_.assign(slots * lanes_, StochasticValue());
  bound_.assign(slots * lanes_, 0);
  for (const std::size_t id : lane_ids) {
    SSPRED_REQUIRE(id < src.lanes_, "assign_compacted: lane id out of range");
  }
  for (std::size_t s = 0; s < slots; ++s) {
    const std::size_t src_row = s * src.lanes_;
    const std::size_t dst_row = s * lanes_;
    for (std::size_t i = 0; i < lanes_; ++i) {
      values_[dst_row + i] = src.values_[src_row + lane_ids[i]];
      bound_[dst_row + i] = src.bound_[src_row + lane_ids[i]];
    }
  }
}

const StochasticValue& LaneEnvironment::lookup(std::size_t lane,
                                               std::uint32_t slot) const {
  if (lane < lanes_ && slot < slot_count()) {
    const std::size_t idx = static_cast<std::size_t>(slot) * lanes_ + lane;
    if (bound_[idx] != 0) return values_[idx];
  }
  std::string msg = "lane " + std::to_string(lane) +
                    ": unbound model parameter slot " + std::to_string(slot);
  if (names_ && slot < names_->size()) msg += " ('" + (*names_)[slot] + "')";
  SSPRED_REQUIRE(false, msg);
  return values_[0];  // unreachable
}

std::uint32_t Program::slot(const std::string& name) const {
  const auto it = slot_ids_.find(name);
  SSPRED_REQUIRE(it != slot_ids_.end(),
                 "no model parameter named '" + name +
                     "'; program parameters: " + join_names(*slot_names_));
  return it->second;
}

void Program::reindex() {
  sample_skips_.clear();
  has_skip_.assign(nodes_.size(), 0);
  live_slots_.clear();
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    if (node.op == OpCode::kIterate && node.dep == Dependence::kUnrelated) {
      sample_skips_.emplace_back(node.body_begin, i);
    } else if (node.op == OpCode::kParam) {
      live_slots_.push_back(node.payload);
    }
  }
  std::sort(sample_skips_.begin(), sample_skips_.end());
  for (const auto& [pos, _] : sample_skips_) has_skip_[pos] = 1;
  std::sort(live_slots_.begin(), live_slots_.end());
  live_slots_.erase(std::unique(live_slots_.begin(), live_slots_.end()),
                    live_slots_.end());
  // Pure-ref analysis (see the member note in ir.hpp): a kRef whose region
  // re-execution provably consumes no RNG and recomputes the target bit
  // for bit can be satisfied by a row copy in the blocked engine. Refs
  // point backward, so an ascending scan sees nested refs' flags first.
  ref_pure_.assign(nodes_.size(), 0);
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    if (node.op != OpCode::kRef) continue;
    bool pure = true;
    for (std::uint32_t j = node.body_begin; j <= node.payload && pure; ++j) {
      const Node& n = nodes_[j];
      if (n.op == OpCode::kConst) {
        pure = constants_[n.payload].is_point();
      } else if (n.op == OpCode::kIterate) {
        pure = n.dep != Dependence::kUnrelated;
      } else if (n.op == OpCode::kRef) {
        pure = ref_pure_[j] != 0;
      }
    }
    // An unrelated-iterate body between the region and the ref resets the
    // region's slot draws (each repetition redraws them), so re-execution
    // there is a fresh draw, not a replay: require every such body to
    // contain the ref and its region together or not at all.
    for (const auto& [body_begin, iter] : sample_skips_) {
      const bool ref_inside = body_begin <= i && i < iter;
      const bool region_inside = body_begin <= node.body_begin &&
                                 node.payload < iter;
      if (ref_inside != region_inside) pure = false;
    }
    ref_pure_[i] = pure ? 1 : 0;
  }
}

void Program::resize_workspace(EvalWorkspace& ws) const {
  ws.values.resize(nodes_.size());
  ws.point_values.resize(nodes_.size());
  ws.slot_sample.resize(slot_names_->size());
  ws.slot_drawn.resize(slot_names_->size());
}

// --- Stochastic walk (§2.3 calculus) --------------------------------------
//
// One walk serves every lane count: ws.values is a node-major matrix
// (values[node * lanes + lane]) and each case runs its fold inside a
// per-lane loop. Solo evaluate() instantiates it with a compile-time lane
// count of 1, which collapses every lane loop to a single fold, and
// evaluate_fused() with env.lanes(); the per-lane arithmetic is the same
// code either way, so fused lanes are bit-exact against solo runs by
// construction.

template <class Env, class Lanes>
void Program::exec_stochastic(const Env& env, Lanes lanes,
                              EvalWorkspace& ws) const {
  // The group cases fold inline over the operand ids rather than gathering
  // into a scratch buffer and calling the stoch:: span helpers — this walk
  // is the hot path under repeated prediction, and the gather + call pair
  // dominated its per-node cost. Each fold replicates the corresponding
  // helper's arithmetic step for step (sum_span, mul_span's mul() chain,
  // smax/smin selection), so results stay bit-identical to the tree path;
  // the differential tests in tests/compile_test.cpp pin that down.
  StochasticValue* const vals = ws.values.data();
  const std::uint32_t* const ops = operands_.data();
  const auto row = [vals, lanes](std::uint32_t i) {
    return vals + static_cast<std::size_t>(i) * lanes;
  };
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    StochasticValue* const r = row(i);
    switch (node.op) {
      case OpCode::kConst:
        for (std::size_t l = 0; l < lanes; ++l) r[l] = constants_[node.payload];
        break;
      case OpCode::kParam:
        for (std::size_t l = 0; l < lanes; ++l) {
          r[l] = lookup(env, l, node.payload);
        }
        break;
      case OpCode::kSum: {
        // stoch::sum_span: fold from the first operand; per-step sqrt in
        // the unrelated regime keeps it bit-identical to repeated add().
        const std::uint32_t* o = ops + node.first;
        for (std::size_t l = 0; l < lanes; ++l) {
          double mean = row(o[0])[l].mean();
          double half = row(o[0])[l].halfwidth();
          if (node.dep == Dependence::kRelated) {
            for (std::uint32_t k = 1; k < node.count; ++k) {
              mean += row(o[k])[l].mean();
              half += row(o[k])[l].halfwidth();
            }
          } else {
            for (std::uint32_t k = 1; k < node.count; ++k) {
              mean += row(o[k])[l].mean();
              const double b = row(o[k])[l].halfwidth();
              half = std::sqrt(half * half + b * b);
            }
          }
          r[l] = StochasticValue(mean, half);
        }
        break;
      }
      case OpCode::kProd: {
        // stoch::mul_span: fold mul() from the first operand, including
        // the §2.3.2 zero-mean -> zero point value rule.
        const std::uint32_t* o = ops + node.first;
        for (std::size_t l = 0; l < lanes; ++l) {
          double mean = row(o[0])[l].mean();
          double half = row(o[0])[l].halfwidth();
          for (std::uint32_t k = 1; k < node.count; ++k) {
            const StochasticValue& y = row(o[k])[l];
            if (mean == 0.0 || y.mean() == 0.0) {
              mean = 0.0;
              half = 0.0;
              continue;
            }
            const double m = mean * y.mean();
            if (node.dep == Dependence::kRelated) {
              half = std::abs(half * y.mean()) +
                     std::abs(y.halfwidth() * mean) +
                     std::abs(half * y.halfwidth());
            } else {
              const double ra = half / mean;
              const double rb = y.halfwidth() / y.mean();
              half = std::abs(m) * std::sqrt(ra * ra + rb * rb);
            }
            mean = m;
          }
          r[l] = StochasticValue(mean, half);
        }
        break;
      }
      case OpCode::kMax:
      case OpCode::kMin: {
        const std::uint32_t* o = ops + node.first;
        if (node.policy == stoch::ExtremePolicy::kClark) {
          // Clark's moment-matching fold has no cheap scan form; keep the
          // gather + library path for it.
          for (std::size_t l = 0; l < lanes; ++l) {
            ws.scratch.clear();
            for (std::uint32_t k = 0; k < node.count; ++k) {
              ws.scratch.push_back(row(o[k])[l]);
            }
            r[l] = node.op == OpCode::kMax
                       ? stoch::smax(ws.scratch, node.policy)
                       : stoch::smin(ws.scratch, node.policy);
          }
          break;
        }
        // kLargestMean / kLargestUpper select one operand. smin's
        // negate/smax/negate definition reduces to picking the smallest
        // mean (resp. smallest lower bound): IEEE negation is exact, so
        // comparing negated quantities and un-negating the winner returns
        // that operand bit-for-bit.
        for (std::size_t l = 0; l < lanes; ++l) {
          std::uint32_t best = o[0];
          if (node.policy == stoch::ExtremePolicy::kLargestMean) {
            for (std::uint32_t k = 1; k < node.count; ++k) {
              if (node.op == OpCode::kMax
                      ? row(o[k])[l].mean() > row(best)[l].mean()
                      : row(o[k])[l].mean() < row(best)[l].mean())
                best = o[k];
            }
          } else {
            for (std::uint32_t k = 1; k < node.count; ++k) {
              if (node.op == OpCode::kMax
                      ? row(o[k])[l].upper() > row(best)[l].upper()
                      : row(o[k])[l].lower() < row(best)[l].lower())
                best = o[k];
            }
          }
          r[l] = row(best)[l];
        }
        break;
      }
      case OpCode::kDiv:
        for (std::size_t l = 0; l < lanes; ++l) {
          const StochasticValue& x = row(ops[node.first])[l];
          const StochasticValue& y = row(ops[node.first + 1])[l];
          // stoch::div = guard + mul(x, inverse(y)); the zero-straddle
          // diagnostic stays with the library on the cold path.
          if (y.lower() <= 0.0 && y.upper() >= 0.0) {
            r[l] = stoch::div(x, y, node.dep);  // throws with full context
            continue;
          }
          const double im = 1.0 / y.mean();
          const double ih = std::abs(y.halfwidth() / (y.mean() * y.mean()));
          if (x.mean() == 0.0 || im == 0.0) {
            r[l] = StochasticValue();
            continue;
          }
          const double m = x.mean() * im;
          double half = 0.0;
          if (node.dep == Dependence::kRelated) {
            half = std::abs(x.halfwidth() * im) + std::abs(ih * x.mean()) +
                   std::abs(x.halfwidth() * ih);
          } else {
            const double ra = x.halfwidth() / x.mean();
            const double rb = ih / im;
            half = std::abs(m) * std::sqrt(ra * ra + rb * rb);
          }
          r[l] = StochasticValue(m, half);
        }
        break;
      case OpCode::kIterate: {
        const StochasticValue* const body = row(i - 1);
        const double n = static_cast<double>(node.payload);
        // Related: the same slow machine stays slow every iteration -> n·a.
        // Unrelated: iteration noise averages out -> sqrt(n)·a.
        for (std::size_t l = 0; l < lanes; ++l) {
          const double half = node.dep == Dependence::kRelated
                                  ? n * body[l].halfwidth()
                                  : std::sqrt(n) * body[l].halfwidth();
          r[l] = StochasticValue(n * body[l].mean(), half);
        }
        break;
      }
      case OpCode::kRef: {
        // Deterministic evaluation of a subtree is context-free, so a
        // shared occurrence's value can simply be copied.
        const StochasticValue* const src = row(node.payload);
        for (std::size_t l = 0; l < lanes; ++l) r[l] = src[l];
        break;
      }
    }
  }
}

StochasticValue Program::evaluate(const SlotEnvironment& env,
                                  EvalWorkspace& ws) const {
  SSPRED_REQUIRE(env.size() == slot_count(),
                 "slot environment shape does not match the program (create "
                 "it with make_environment())");
  ws.values.resize(nodes_.size());
  exec_stochastic(env, OneLane{}, ws);
  return ws.values[nodes_.size() - 1];
}

StochasticValue Program::evaluate(const SlotEnvironment& env) const {
  EvalWorkspace ws;
  return evaluate(env, ws);
}

void Program::evaluate_fused(const LaneEnvironment& env, EvalWorkspace& ws,
                             std::span<StochasticValue> out) const {
  SSPRED_REQUIRE(env.slot_count() == slot_count(),
                 "lane environment shape does not match the program (create "
                 "it with make_lane_environment())");
  SSPRED_REQUIRE(out.size() == env.lanes(),
                 "evaluate_fused: out.size() must equal env.lanes()");
  const std::size_t L = env.lanes();
  if (L == 0) return;
  ws.values.resize(nodes_.size() * L);
  exec_stochastic(env, L, ws);
  std::copy_n(ws.values.data() + (nodes_.size() - 1) * L, L, out.begin());
}

// --- Point walk -----------------------------------------------------------
//
// Same lane-count template over the SoA arena: one `lanes`-wide double row
// per node (ws.lane_values), flat elementwise kernels over the lane
// dimension. The deterministic point walk has no draw events or skip
// protocol.

template <class Env, class Lanes>
void Program::exec_point(const Env& env, Lanes lanes, EvalWorkspace& ws) const {
  double* const vals = ws.lane_values.data();
  const std::uint32_t* const ops = operands_.data();
  const auto row = [vals, lanes](std::uint32_t i) {
    return vals + static_cast<std::size_t>(i) * lanes;
  };
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    double* const r = row(i);
    switch (node.op) {
      case OpCode::kConst:
        std::fill_n(r, lanes, constants_[node.payload].mean());
        break;
      case OpCode::kParam:
        for (std::size_t l = 0; l < lanes; ++l) {
          r[l] = lookup(env, l, node.payload).mean();
        }
        break;
      case OpCode::kSum:
        std::fill_n(r, lanes, 0.0);
        for (std::uint32_t k = 0; k < node.count; ++k) {
          const double* const b = row(ops[node.first + k]);
          SSPRED_SIMD_LOOP
          for (std::size_t l = 0; l < lanes; ++l) r[l] += b[l];
        }
        break;
      case OpCode::kProd:
        std::fill_n(r, lanes, 1.0);
        for (std::uint32_t k = 0; k < node.count; ++k) {
          const double* const b = row(ops[node.first + k]);
          SSPRED_SIMD_LOOP
          for (std::size_t l = 0; l < lanes; ++l) r[l] *= b[l];
        }
        break;
      case OpCode::kMax:
      case OpCode::kMin:
        std::copy_n(row(ops[node.first]), lanes, r);
        for (std::uint32_t k = 1; k < node.count; ++k) {
          const double* const b = row(ops[node.first + k]);
          SSPRED_SIMD_LOOP
          for (std::size_t l = 0; l < lanes; ++l) {
            r[l] = node.op == OpCode::kMax ? std::max(r[l], b[l])
                                           : std::min(r[l], b[l]);
          }
        }
        break;
      case OpCode::kDiv: {
        const double* const num = row(ops[node.first]);
        const double* const den = row(ops[node.first + 1]);
        bool zero = false;
        for (std::size_t l = 0; l < lanes; ++l) zero = zero || den[l] == 0.0;
        SSPRED_REQUIRE(!zero, "point division by zero");
        SSPRED_SIMD_LOOP
        for (std::size_t l = 0; l < lanes; ++l) r[l] = num[l] / den[l];
        break;
      }
      case OpCode::kIterate: {
        const double n = static_cast<double>(node.payload);
        const double* const body = row(i - 1);
        SSPRED_SIMD_LOOP
        for (std::size_t l = 0; l < lanes; ++l) r[l] = n * body[l];
        break;
      }
      case OpCode::kRef:
        std::copy_n(row(node.payload), lanes, r);
        break;
    }
  }
}

double Program::evaluate_point(const SlotEnvironment& env,
                               EvalWorkspace& ws) const {
  SSPRED_REQUIRE(env.size() == slot_count(),
                 "slot environment shape does not match the program (create "
                 "it with make_environment())");
  ws.lane_values.resize(nodes_.size());
  exec_point(env, OneLane{}, ws);
  return ws.lane_values[nodes_.size() - 1];
}

double Program::evaluate_point(const SlotEnvironment& env) const {
  EvalWorkspace ws;
  return evaluate_point(env, ws);
}

void Program::evaluate_point_fused(const LaneEnvironment& env,
                                   EvalWorkspace& ws,
                                   std::span<double> out) const {
  SSPRED_REQUIRE(env.slot_count() == slot_count(),
                 "lane environment shape does not match the program (create "
                 "it with make_lane_environment())");
  SSPRED_REQUIRE(out.size() == env.lanes(),
                 "evaluate_point_fused: out.size() must equal env.lanes()");
  const std::size_t L = env.lanes();
  if (L == 0) return;
  ws.lane_values.resize(nodes_.size() * L);
  exec_point(env, L, ws);
  std::copy_n(ws.lane_values.data() + (nodes_.size() - 1) * L, L, out.begin());
}

// --- Monte-Carlo walk -----------------------------------------------------

void Program::exec_sample(const SlotEnvironment& env, support::Rng& rng,
                          EvalWorkspace& ws, std::uint32_t lo,
                          std::uint32_t hi) const {
  std::uint32_t i = lo;
  while (i < hi) {
    // An unrelated-iterate body must NOT run under the enclosing per-slot
    // cache — the tree gives each iteration an independent fresh cache —
    // so the walk jumps over the body region to the iterate node, which
    // drives the iterations itself. With nested bodies sharing a begin
    // position, the outermost iterate inside the current region wins.
    if (has_skip_[i] != 0) {
      auto it = std::lower_bound(
          sample_skips_.begin(), sample_skips_.end(),
          std::pair<std::uint32_t, std::uint32_t>{i, 0});
      std::uint32_t target = 0;
      for (; it != sample_skips_.end() && it->first == i; ++it) {
        if (it->second < hi) target = std::max(target, it->second);
      }
      if (target != 0) {
        const Node& node = nodes_[target];
        // Save the enclosing cache entries for every slot the body can
        // touch; each iteration then starts from an all-fresh state.
        const std::size_t mark = ws.saved_sample.size();
        for (std::uint32_t k = 0; k < node.slots_count; ++k) {
          const std::uint32_t s = body_slots_[node.slots_first + k];
          ws.saved_sample.push_back(ws.slot_sample[s]);
          ws.saved_drawn.push_back(ws.slot_drawn[s]);
        }
        double acc = 0.0;
        for (std::uint32_t rep = 0; rep < node.payload; ++rep) {
          for (std::uint32_t k = 0; k < node.slots_count; ++k) {
            ws.slot_drawn[body_slots_[node.slots_first + k]] = 0;
          }
          exec_sample(env, rng, ws, node.body_begin, target);
          acc += ws.point_values[target - 1];
        }
        for (std::uint32_t k = 0; k < node.slots_count; ++k) {
          const std::uint32_t s = body_slots_[node.slots_first + k];
          ws.slot_sample[s] = ws.saved_sample[mark + k];
          ws.slot_drawn[s] = ws.saved_drawn[mark + k];
        }
        ws.saved_sample.resize(mark);
        ws.saved_drawn.resize(mark);
        ws.point_values[target] = acc;
        i = target + 1;
        continue;
      }
    }
    const Node& node = nodes_[i];
    switch (node.op) {
      case OpCode::kConst:
        ws.point_values[i] = stoch::sample(constants_[node.payload], rng);
        break;
      case OpCode::kParam: {
        const std::uint32_t s = node.payload;
        if (ws.slot_drawn[s] == 0) {
          ws.slot_sample[s] = stoch::sample(env.lookup(s), rng);
          ws.slot_drawn[s] = 1;
        }
        ws.point_values[i] = ws.slot_sample[s];
        break;
      }
      case OpCode::kSum: {
        double acc = 0.0;
        for (std::uint32_t k = 0; k < node.count; ++k) {
          acc += ws.point_values[operands_[node.first + k]];
        }
        ws.point_values[i] = acc;
        break;
      }
      case OpCode::kProd: {
        double acc = 1.0;
        for (std::uint32_t k = 0; k < node.count; ++k) {
          acc *= ws.point_values[operands_[node.first + k]];
        }
        ws.point_values[i] = acc;
        break;
      }
      case OpCode::kMax:
      case OpCode::kMin: {
        double acc = ws.point_values[operands_[node.first]];
        for (std::uint32_t k = 1; k < node.count; ++k) {
          const double v = ws.point_values[operands_[node.first + k]];
          acc = node.op == OpCode::kMax ? std::max(acc, v) : std::min(acc, v);
        }
        ws.point_values[i] = acc;
        break;
      }
      case OpCode::kDiv: {
        const double d = ws.point_values[operands_[node.first + 1]];
        SSPRED_REQUIRE(d != 0.0, "sampled division by zero");
        ws.point_values[i] = ws.point_values[operands_[node.first]] / d;
        break;
      }
      case OpCode::kIterate:
        // Only related iterates reach the linear walk (unrelated ones are
        // handled through the skip above): one shared-cache body draw,
        // repeated — the per-iteration quantities are coupled.
        ws.point_values[i] =
            static_cast<double>(node.payload) * ws.point_values[i - 1];
        break;
      case OpCode::kRef: {
        // Sampling a shared subtree draws per occurrence (the tree
        // re-walks it), so re-execute the referenced region. Its prior
        // per-node values are saved and restored around the re-run: they
        // may still be pending operands of consumers after this node.
        // saved_values is kept separate from the iterate pair above, whose
        // save/restore indexes saved_sample and saved_drawn in lockstep.
        const std::uint32_t begin = node.body_begin;
        const std::uint32_t target = node.payload;
        const std::size_t mark = ws.saved_values.size();
        ws.saved_values.insert(ws.saved_values.end(),
                               ws.point_values.begin() + begin,
                               ws.point_values.begin() + target + 1);
        exec_sample(env, rng, ws, begin, target + 1);
        ws.point_values[i] = ws.point_values[target];
        std::copy(ws.saved_values.begin() + static_cast<std::ptrdiff_t>(mark),
                  ws.saved_values.end(), ws.point_values.begin() + begin);
        ws.saved_values.resize(mark);
        break;
      }
    }
    ++i;
  }
}

double Program::sample(const SlotEnvironment& env, support::Rng& rng,
                       EvalWorkspace& ws) const {
  SSPRED_REQUIRE(env.size() == slot_count(),
                 "slot environment shape does not match the program (create "
                 "it with make_environment())");
  resize_workspace(ws);
  std::fill(ws.slot_drawn.begin(), ws.slot_drawn.end(),
            static_cast<std::uint8_t>(0));
  exec_sample(env, rng, ws, 0, static_cast<std::uint32_t>(nodes_.size()));
  return ws.point_values[nodes_.size() - 1];
}

// --- Blocked trial-major engine ---------------------------------------------
//
// exec_blocked_impl is exec_sample transposed: instead of one trial flowing
// through all nodes, each node processes a whole block of trials against
// structure-of-arrays rows (lane_values[node][lane], lane_slots[slot][lane]).
// Group ops become flat elementwise kernels the compiler can vectorize;
// every stochastic draw event becomes one batched ziggurat fill. The
// skip/iterate/ref structure — and therefore the per-trial sampling
// semantics — is identical to the scalar walk; only the RNG stream order
// differs (see SampleOrder::kBlocked in the header). Every request runs
// as a lane of the block driver (sample_blocks): the solo entry points
// are its one-lane instance, sample_adaptive_fused its many-lane one.

namespace {

/// The blocked walk's draw-site policy: the occupied row prefix packs the
/// surviving lanes' segments back to back (survivor i occupies
/// [offsets[i], offsets[i] + widths[i])), and each survivor draws from
/// its ORIGINAL request's RNG (rng_ids[i] indexes the caller's rngs
/// array) with its own standalone block width. Every draw event a
/// surviving lane sees is therefore identical — source RNG, width,
/// order — to its one-lane run, no matter how many other lanes share the
/// sweep or have retired and compacted away.
template <class Env>
struct AdaptiveFill {
  const Env* env;              ///< compacted: lane i is survivor i
  support::Rng* rngs;          ///< original per-request RNG array
  const std::size_t* rng_ids;  ///< survivor i -> original request index
  const std::size_t* offsets;
  const std::size_t* widths;
  std::size_t active;
  void slot(std::uint32_t s, double* row, std::size_t /*lanes*/) {
    for (std::size_t i = 0; i < active; ++i) {
      fill_lane(lookup(*env, i, s), rngs[rng_ids[i]], row + offsets[i],
                widths[i]);
    }
  }
  void constant(const StochasticValue& v, double* row,
                std::size_t /*lanes*/) {
    for (std::size_t i = 0; i < active; ++i) {
      fill_lane(v, rngs[rng_ids[i]], row + offsets[i], widths[i]);
    }
  }
};

}  // namespace

template <class Fill>
void Program::exec_blocked_impl(Fill& fill, EvalWorkspace& ws,
                                std::uint32_t lo, std::uint32_t hi,
                                std::size_t lanes, std::size_t stride) const {
  double* const vals = ws.lane_values.data();
  double* const slots = ws.lane_slots.data();
  const std::uint32_t* const ops = operands_.data();
  const auto row = [vals, stride](std::uint32_t i) {
    return vals + static_cast<std::size_t>(i) * stride;
  };
  const auto slot_row = [slots, stride](std::uint32_t s) {
    return slots + static_cast<std::size_t>(s) * stride;
  };
  std::uint32_t i = lo;
  while (i < hi) {
    // Same region-skip protocol as the scalar walk: an unrelated-iterate
    // body runs under the iterate node's own repetition loop, with fresh
    // per-slot draws (here: fresh rows) for every repetition.
    if (has_skip_[i] != 0) {
      auto it = std::lower_bound(
          sample_skips_.begin(), sample_skips_.end(),
          std::pair<std::uint32_t, std::uint32_t>{i, 0});
      std::uint32_t target = 0;
      for (; it != sample_skips_.end() && it->first == i; ++it) {
        if (it->second < hi) target = std::max(target, it->second);
      }
      if (target != 0) {
        const Node& node = nodes_[target];
        const std::size_t mark = ws.lane_saved.size();
        for (std::uint32_t k = 0; k < node.slots_count; ++k) {
          const double* const src =
              slot_row(body_slots_[node.slots_first + k]);
          ws.lane_saved.insert(ws.lane_saved.end(), src, src + lanes);
        }
        double* const acc = row(target);
        std::fill(acc, acc + lanes, 0.0);
        for (std::uint32_t rep = 0; rep < node.payload; ++rep) {
          for (std::uint32_t k = 0; k < node.slots_count; ++k) {
            const std::uint32_t s = body_slots_[node.slots_first + k];
            fill.slot(s, slot_row(s), lanes);
          }
          exec_blocked_impl(fill, ws, node.body_begin, target, lanes, stride);
          const double* const body = row(target - 1);
          SSPRED_SIMD_LOOP
          for (std::size_t t = 0; t < lanes; ++t) acc[t] += body[t];
        }
        for (std::uint32_t k = 0; k < node.slots_count; ++k) {
          std::copy_n(ws.lane_saved.data() + mark + k * lanes, lanes,
                      slot_row(body_slots_[node.slots_first + k]));
        }
        ws.lane_saved.resize(mark);
        i = target + 1;
        continue;
      }
    }
    const Node& node = nodes_[i];
    switch (node.op) {
      case OpCode::kConst:
        // Stochastic constants draw per occurrence (per block), exactly
        // like the scalar walk draws per occurrence per trial.
        fill.constant(constants_[node.payload], row(i), lanes);
        break;
      case OpCode::kParam:
        std::copy_n(slot_row(node.payload), lanes, row(i));
        break;
      case OpCode::kSum: {
        double* const r = row(i);
        std::copy_n(row(ops[node.first]), lanes, r);
        for (std::uint32_t k = 1; k < node.count; ++k) {
          const double* const b = row(ops[node.first + k]);
          SSPRED_SIMD_LOOP
          for (std::size_t t = 0; t < lanes; ++t) r[t] += b[t];
        }
        break;
      }
      case OpCode::kProd: {
        double* const r = row(i);
        std::copy_n(row(ops[node.first]), lanes, r);
        for (std::uint32_t k = 1; k < node.count; ++k) {
          const double* const b = row(ops[node.first + k]);
          SSPRED_SIMD_LOOP
          for (std::size_t t = 0; t < lanes; ++t) r[t] *= b[t];
        }
        break;
      }
      case OpCode::kMax: {
        double* const r = row(i);
        std::copy_n(row(ops[node.first]), lanes, r);
        for (std::uint32_t k = 1; k < node.count; ++k) {
          const double* const b = row(ops[node.first + k]);
          SSPRED_SIMD_LOOP
          for (std::size_t t = 0; t < lanes; ++t) r[t] = std::max(r[t], b[t]);
        }
        break;
      }
      case OpCode::kMin: {
        double* const r = row(i);
        std::copy_n(row(ops[node.first]), lanes, r);
        for (std::uint32_t k = 1; k < node.count; ++k) {
          const double* const b = row(ops[node.first + k]);
          SSPRED_SIMD_LOOP
          for (std::size_t t = 0; t < lanes; ++t) r[t] = std::min(r[t], b[t]);
        }
        break;
      }
      case OpCode::kDiv: {
        const double* const num = row(ops[node.first]);
        const double* const den = row(ops[node.first + 1]);
        double* const r = row(i);
        bool zero = false;
        for (std::size_t t = 0; t < lanes; ++t) {
          zero = zero || den[t] == 0.0;
        }
        SSPRED_REQUIRE(!zero, "sampled division by zero");
        SSPRED_SIMD_LOOP
        for (std::size_t t = 0; t < lanes; ++t) r[t] = num[t] / den[t];
        break;
      }
      case OpCode::kIterate: {
        // Only related iterates reach the linear walk (see the skip above):
        // one shared body draw per trial, repeated n times.
        const double n = static_cast<double>(node.payload);
        const double* const body = row(i - 1);
        double* const r = row(i);
        SSPRED_SIMD_LOOP
        for (std::size_t t = 0; t < lanes; ++t) r[t] = n * body[t];
        break;
      }
      case OpCode::kRef: {
        // A pure region (no draw events at re-execution time; see
        // reindex()) would recompute the target row bit for bit while
        // consuming no RNG — copy it instead of re-running the region.
        if (ref_pure_[i] != 0) {
          std::copy_n(row(node.payload), lanes, row(i));
          break;
        }
        // Re-execute the occurrence region for an independent draw, with
        // the region's rows — contiguous in node-major layout — saved
        // around the re-run: they may still be pending operands of later
        // consumers.
        const std::uint32_t begin = node.body_begin;
        const std::uint32_t target = node.payload;
        const std::size_t span_len =
            static_cast<std::size_t>(target - begin + 1) * stride;
        const std::size_t mark = ws.lane_saved.size();
        ws.lane_saved.insert(ws.lane_saved.end(), row(begin),
                             row(begin) + span_len);
        exec_blocked_impl(fill, ws, begin, target + 1, lanes, stride);
        std::copy_n(row(target), lanes, row(i));
        std::copy_n(ws.lane_saved.data() + mark, span_len, row(begin));
        ws.lane_saved.resize(mark);
        break;
      }
    }
    ++i;
  }
}

// --- Adaptive (sequentially stopped) Monte-Carlo ----------------------------
//
// sample_blocks runs the blocked engine in stats::next_block_width blocks
// and consults each lane's stop rule between blocks; the decision is a
// pure function of the sampled values, so trial counts are reproducible
// from the seed. A fixed rule walks straight kBlockTrials blocks with a
// partial last one — the kBlocked schedule of sample_trials and
// sample_into, which are fixed-rule runs of this driver — and a precision
// rule uses doubling checkpoints so easy targets stop in hundreds of
// trials. Lanes pack per-lane segments of per-lane widths into the SoA
// rows (AdaptiveFill), so lanes with different rules (mixed fixed +
// precision) share one sweep, retiring and compacting converged lanes at
// block boundaries. A fixed rule's stop needs only the sample count, so
// fixed runs never feed the estimator: the Welford pass would cost about
// a tenth of the sampling itself.

namespace {

/// Whether a run under `rule` with `samples` drawn so far is finished.
/// Precision rules ask their estimator (fed by the caller); fixed rules
/// only count.
[[nodiscard]] bool adaptive_done(const stats::SequentialEstimator& est,
                                 std::size_t samples) noexcept {
  return est.rule().target > 0.0 ? est.should_stop()
                                 : samples >= est.rule().max_trials;
}

/// The AdaptiveResult of a finished run over `samples`.
[[nodiscard]] AdaptiveResult adaptive_result(
    const stats::SequentialEstimator& est, std::span<const double> samples) {
  AdaptiveResult result;
  result.value = StochasticValue::from_sample(samples);
  result.trials = samples.size();
  if (est.rule().target > 0.0) {
    result.ci_halfwidth = est.ci_halfwidth();
    result.converged = est.precision_met();
  } else {
    result.ci_halfwidth = est.rule().confidence_z * result.value.sd() /
                          std::sqrt(static_cast<double>(samples.size()));
  }
  return result;
}

}  // namespace

template <class Env>
void Program::sample_blocks(const Env& env, std::span<support::Rng> rngs,
                            std::span<const stats::StopRule> rules,
                            EvalWorkspace& ws) const {
  const std::size_t requests = rngs.size();
  if (ws.adaptive_samples.size() < requests) {
    ws.adaptive_samples.resize(requests);
  }
  auto& est = ws.adaptive_est;
  est.clear();
  for (std::size_t k = 0; k < requests; ++k) {
    est.emplace_back(rules[k]);
    ws.adaptive_samples[k].clear();
  }
  auto& active = ws.adaptive_active;
  auto& offsets = ws.adaptive_offsets;
  auto& widths = ws.adaptive_widths;
  active.resize(requests);
  for (std::size_t k = 0; k < requests; ++k) active[k] = k;
  // Retirement rebuilds a compacted environment over the survivors (in
  // stable original order); `cur` points at whichever environment the
  // current sweep should read.
  const Env* cur = &env;
  const auto n = static_cast<std::uint32_t>(nodes_.size());
  while (!active.empty()) {
    const std::size_t count = active.size();
    offsets.resize(count);
    widths.resize(count);
    std::size_t total = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t k = active[i];
      offsets[i] = total;
      widths[i] = stats::next_block_width(ws.adaptive_samples[k].size(),
                                          rules[k], kBlockTrials);
      total += widths[i];
    }
    const std::size_t stride = count * kBlockTrials;
    ws.lane_values.resize(nodes_.size() * stride);
    ws.lane_slots.resize(slot_count() * stride);
    const double* const root =
        ws.lane_values.data() + static_cast<std::size_t>(n - 1) * stride;
    AdaptiveFill<Env> fill{cur,            rngs.data(),   active.data(),
                           offsets.data(), widths.data(), count};
    // Block prologue per surviving lane: one batched draw per live slot,
    // ascending slot id, each lane at its standalone width (the kBlocked
    // contract). Dead slots (present in the table, read by no node) draw
    // nothing.
    for (const std::uint32_t s : live_slots_) {
      fill.slot(s, ws.lane_slots.data() + static_cast<std::size_t>(s) * stride,
                0);
    }
    exec_blocked_impl(fill, ws, 0, n, total, stride);
    // Harvest every survivor's segment, then retire finished lanes at the
    // block boundary (a one-lane run checks its rule at the same points).
    std::size_t keep = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t k = active[i];
      auto& samples = ws.adaptive_samples[k];
      samples.insert(samples.end(), root + offsets[i],
                     root + offsets[i] + widths[i]);
      if (rules[k].target > 0.0) est[k].add({root + offsets[i], widths[i]});
      if (!adaptive_done(est[k], samples.size())) active[keep++] = k;
    }
    if (keep != count) {
      active.resize(keep);
      // A one-lane environment has no survivors left to compact.
      if constexpr (std::is_same_v<Env, LaneEnvironment>) {
        if (!active.empty()) {
          ws.adaptive_compact.assign_compacted(env, active);
          cur = &ws.adaptive_compact;
        }
      }
    }
  }
}

template <class Env>
void Program::sample_adaptive_lanes(const Env& env,
                                    std::span<support::Rng> rngs,
                                    std::span<const stats::StopRule> rules,
                                    EvalWorkspace& ws,
                                    std::span<AdaptiveResult> out) const {
  // A fully folded point program samples to exactly its constant, drawing
  // nothing. Short-circuiting is observable only through summary
  // rounding, so only the kBlocked summaries take it; sample_into and
  // kScalarCompat keep their trial loops.
  if (nodes_.size() == 1 && nodes_[0].op == OpCode::kConst &&
      constants_[0].is_point()) {
    std::fill(out.begin(), out.end(),
              AdaptiveResult{constants_[0], 0, 0.0, true});
    return;
  }
  sample_blocks(env, rngs, rules, ws);
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = adaptive_result(ws.adaptive_est[k], ws.adaptive_samples[k]);
  }
}

void Program::sample_into(const SlotEnvironment& env, support::Rng& rng,
                          std::span<double> out, EvalWorkspace& ws,
                          SampleOrder order) const {
  SSPRED_REQUIRE(env.size() == slot_count(),
                 "slot environment shape does not match the program (create "
                 "it with make_environment())");
  if (order == SampleOrder::kScalarCompat) {
    resize_workspace(ws);
    const auto n = static_cast<std::uint32_t>(nodes_.size());
    for (double& o : out) {
      std::fill(ws.slot_drawn.begin(), ws.slot_drawn.end(),
                static_cast<std::uint8_t>(0));
      exec_sample(env, rng, ws, 0, n);
      o = ws.point_values[n - 1];
    }
    return;
  }
  if (out.empty()) return;
  // One fixed-count lane of the block driver. It collects samples in
  // ws.adaptive_samples, never ws.trial_results, so `out` may be the
  // latter (serve's chunk fan-out passes it).
  const stats::StopRule rule = stats::StopRule::fixed(out.size());
  sample_blocks(env, std::span(&rng, 1), std::span(&rule, 1), ws);
  std::copy(ws.adaptive_samples[0].begin(), ws.adaptive_samples[0].end(),
            out.begin());
}

StochasticValue Program::sample_trials(const SlotEnvironment& env,
                                       support::Rng& rng, std::size_t trials,
                                       EvalWorkspace& ws,
                                       SampleOrder order) const {
  SSPRED_REQUIRE(trials >= 2, "sample_trials needs at least 2 trials");
  if (order == SampleOrder::kBlocked) {
    return sample_adaptive(env, rng, stats::StopRule::fixed(trials), ws).value;
  }
  ws.trial_results.resize(trials);
  sample_into(env, rng, ws.trial_results, ws, order);
  return StochasticValue::from_sample(ws.trial_results);
}

StochasticValue Program::sample_trials(const SlotEnvironment& env,
                                       support::Rng& rng, std::size_t trials,
                                       SampleOrder order) const {
  EvalWorkspace ws;
  return sample_trials(env, rng, trials, ws, order);
}

AdaptiveResult Program::sample_adaptive(const SlotEnvironment& env,
                                        support::Rng& rng,
                                        const stats::StopRule& rule,
                                        EvalWorkspace& ws) const {
  SSPRED_REQUIRE(rule.max_trials >= 2,
                 "sample_adaptive needs rule.max_trials >= 2");
  SSPRED_REQUIRE(env.size() == slot_count(),
                 "slot environment shape does not match the program (create "
                 "it with make_environment())");
  AdaptiveResult result;
  sample_adaptive_lanes(env, std::span(&rng, 1), std::span(&rule, 1), ws,
                        std::span(&result, 1));
  return result;
}

AdaptiveResult Program::sample_adaptive(const SlotEnvironment& env,
                                        support::Rng& rng,
                                        const stats::StopRule& rule) const {
  EvalWorkspace ws;
  return sample_adaptive(env, rng, rule, ws);
}

void Program::sample_adaptive_fused(const LaneEnvironment& env,
                                    std::span<support::Rng> rngs,
                                    std::span<const stats::StopRule> rules,
                                    EvalWorkspace& ws,
                                    std::span<AdaptiveResult> out) const {
  SSPRED_REQUIRE(env.slot_count() == slot_count(),
                 "lane environment shape does not match the program (create "
                 "it with make_lane_environment())");
  SSPRED_REQUIRE(rngs.size() == env.lanes() && rules.size() == env.lanes() &&
                     out.size() == env.lanes(),
                 "sample_adaptive_fused: rngs/rules/out sizes must equal "
                 "env.lanes()");
  for (const stats::StopRule& rule : rules) {
    SSPRED_REQUIRE(rule.max_trials >= 2,
                   "sample_adaptive_fused needs rule.max_trials >= 2");
  }
  sample_adaptive_lanes(env, rngs, rules, ws, out);
}

// --- Builder --------------------------------------------------------------

Builder::Builder(const Program& base) : names_(*base.slot_names_) {
  prog_.slot_ids_ = base.slot_ids_;
}

std::uint32_t Builder::emit_const(StochasticValue v) {
  const auto idx = static_cast<std::uint32_t>(prog_.constants_.size());
  prog_.constants_.push_back(v);
  Node node;
  node.op = OpCode::kConst;
  node.payload = idx;
  prog_.nodes_.push_back(node);
  return next_index() - 1;
}

std::uint32_t Builder::emit_param(const std::string& name) {
  std::uint32_t slot;
  const auto it = prog_.slot_ids_.find(name);
  if (it != prog_.slot_ids_.end()) {
    slot = it->second;
  } else {
    slot = static_cast<std::uint32_t>(names_.size());
    names_.push_back(name);
    prog_.slot_ids_.emplace(name, slot);
  }
  Node node;
  node.op = OpCode::kParam;
  node.payload = slot;
  prog_.nodes_.push_back(node);
  return next_index() - 1;
}

std::uint32_t Builder::emit_group(OpCode op,
                                  std::span<const std::uint32_t> children,
                                  Dependence dep,
                                  stoch::ExtremePolicy policy) {
  SSPRED_REQUIRE(op == OpCode::kSum || op == OpCode::kProd ||
                     op == OpCode::kDiv || op == OpCode::kMax ||
                     op == OpCode::kMin,
                 "emit_group: not a group opcode");
  SSPRED_REQUIRE(!children.empty(), "group node needs operands");
  SSPRED_REQUIRE(op != OpCode::kDiv || children.size() == 2,
                 "division takes exactly two operands");
  for (const std::uint32_t c : children) {
    SSPRED_REQUIRE(c < next_index(),
                   "operand must be emitted before its consumer (post-order)");
  }
  Node node;
  node.op = op;
  node.dep = dep;
  node.policy = policy;
  node.first = static_cast<std::uint32_t>(prog_.operands_.size());
  node.count = static_cast<std::uint32_t>(children.size());
  prog_.operands_.insert(prog_.operands_.end(), children.begin(),
                         children.end());
  prog_.nodes_.push_back(node);
  return next_index() - 1;
}

std::uint32_t Builder::emit_iterate(std::uint32_t body_begin,
                                    std::size_t iterations, Dependence dep) {
  SSPRED_REQUIRE(body_begin < next_index(), "iterate body must not be empty");
  SSPRED_REQUIRE(iterations >= 1, "iterate needs at least one iteration");
  SSPRED_REQUIRE(iterations <= 0xffffffffULL, "iteration count too large");
  Node node;
  node.op = OpCode::kIterate;
  node.dep = dep;
  node.payload = static_cast<std::uint32_t>(iterations);
  node.body_begin = body_begin;
  // Distinct parameter slots the body references (including nested iterate
  // bodies — their params are ordinary kParam nodes in the region — and
  // the regions behind kRef nodes, which sampling re-executes in place).
  std::vector<std::uint32_t> slots;
  const auto collect = [&](auto&& self, std::uint32_t lo,
                           std::uint32_t hi) -> void {
    for (std::uint32_t i = lo; i < hi; ++i) {
      const Node& n = prog_.nodes_[i];
      if (n.op == OpCode::kParam) {
        slots.push_back(n.payload);
      } else if (n.op == OpCode::kRef) {
        self(self, n.body_begin, n.payload + 1);
      }
    }
  };
  collect(collect, body_begin, next_index());
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  node.slots_first = static_cast<std::uint32_t>(prog_.body_slots_.size());
  node.slots_count = static_cast<std::uint32_t>(slots.size());
  prog_.body_slots_.insert(prog_.body_slots_.end(), slots.begin(),
                           slots.end());
  const std::uint32_t idx = next_index();
  prog_.nodes_.push_back(node);
  return idx;
}

std::uint32_t Builder::emit_ref(std::uint32_t target,
                                std::uint32_t region_begin) {
  SSPRED_REQUIRE(target < next_index(),
                 "ref target must be emitted before the ref");
  SSPRED_REQUIRE(region_begin <= target, "ref region must end at its target");
  Node node;
  node.op = OpCode::kRef;
  node.payload = target;
  node.body_begin = region_begin;
  prog_.nodes_.push_back(node);
  return next_index() - 1;
}

std::uint32_t Builder::emit_shared_ref(const void* key) {
  const auto it = shared_.find(key);
  if (it == shared_.end()) return kNoNode;
  return emit_ref(it->second.second, it->second.first);
}

void Builder::note_shared(const void* key, std::uint32_t region_begin,
                          std::uint32_t root) {
  shared_.emplace(key, std::make_pair(region_begin, root));
}

Program Builder::take() {
  SSPRED_REQUIRE(!prog_.nodes_.empty(), "cannot compile an empty program");
  prog_.slot_names_ =
      std::make_shared<const std::vector<std::string>>(std::move(names_));
  prog_.reindex();
  return std::move(prog_);
}

}  // namespace sspred::model::ir
