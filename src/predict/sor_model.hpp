// The paper's structural model (§2.2.1): per-host compute components, a
// shared communication component, composed into one iteration and
// repeated NumIts times. For distributed Red-Black SOR:
//
//   ExTime = Σ_{i=1}^{NumIts} [ Max_p{RedComp_p} + Max_p{RedComm_p}
//                             + Max_p{BlackComp_p} + Max_p{BlackComm_p} ]
//
//   Comp_p  = (NumElt_p / 2) · BM(Elt_p) / load_p        (benchmark form)
//   Comm_p  = C · NumElt_msg · Size(Elt) / (BWAvail · DedBW) + 2·Latency
//
// `load_p` and `BWAvail` are model parameters that may be bound to point
// or stochastic values; everything else is a compile-time point value.
//
// One class, StructuralModel, holds every model. Applications differ only
// in their components, so each is an authoring function — sor_model(),
// block_sor_model(), jacobi_model() — that builds the per-host compute
// terms, the communication term and one iteration; the class names the
// parameters, iterates, compiles once to the flat slot-indexed IR
// (model/ir.hpp) and serves every prediction from the compiled program.
// The tree stays reachable through expr() as the authoring form and
// differential-testing oracle.
//
// Substitution note (documented in DESIGN.md): on a shared segment the
// per-pair "dedicated bandwidth" during a phase is the segment bandwidth
// divided by the number of simultaneous transfers, so PtToPt carries the
// concurrency factor C = 2·(P-1). The paper's measured BWAvail on real
// ethernet folds the same effect in.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cluster/platform.hpp"
#include "model/compile.hpp"
#include "model/expr.hpp"
#include "sor/distributed.hpp"

namespace sspred::predict {

/// The two computation component forms the paper offers (§2.2.1):
/// benchmarking (Comp_p2 = NumElt·BM(Elt)) or operation counting
/// (Comp_p1 = NumElt·Op(p,Elt)/CPU_p).
enum class ComputeForm {
  kBenchmark,
  kOpCount,
};

/// Dependence/policy choices for assembling the model (ablation surface).
struct SorModelOptions {
  /// How per-iteration terms accumulate across NumIts. kRelated (default)
  /// models persistent load: a slow machine stays slow all run.
  stoch::Dependence iteration_dependence = stoch::Dependence::kRelated;
  /// How the four phase maxima combine within an iteration.
  stoch::Dependence phase_dependence = stoch::Dependence::kUnrelated;
  /// Group-Max resolution policy (§2.3.3).
  stoch::ExtremePolicy max_policy = stoch::ExtremePolicy::kLargestMean;
  /// Computation component form (§2.2.1 offers both).
  ComputeForm compute_form = ComputeForm::kBenchmark;
  /// Op(p, Elt) for the op-count form: operations per element update.
  double ops_per_element = 6.0;
  /// Fold each host's memory-thrashing multiplier into the compute
  /// components. The paper's model does NOT (its Fig. 9 predictions hold
  /// only "for problem sizes which fit within main memory"); enabling
  /// this extends validity beyond the memory boundary.
  bool account_memory = false;
};

/// What an application contributes to its structural model.
struct ModelComponents {
  std::vector<model::ExprPtr> comp;  ///< per host, one compute phase each
  model::ExprPtr comm;               ///< one communication phase, shared
  model::ExprPtr iteration;          ///< one iteration built from the above
};

class StructuralModel {
 public:
  /// Builds an application's components from the per-host load parameter
  /// names (the bandwidth parameter is bwavail_param()).
  using Author =
      std::function<ModelComponents(std::span<const std::string> load_params)>;

  /// Checks the platform has hosts, names their load parameters, runs
  /// `author`, repeats its iteration `iterations` times under
  /// `iteration_dependence` and compiles the result once.
  StructuralModel(const cluster::PlatformSpec& platform,
                  std::size_t iterations,
                  stoch::Dependence iteration_dependence, const Author& author);

  /// The authored expression tree (parameters: load params + "bwavail").
  [[nodiscard]] const model::ExprPtr& expr() const noexcept { return expr_; }
  /// The compiled program that serves predictions.
  [[nodiscard]] const model::ir::Program& program() const noexcept {
    return program_;
  }

  /// Parameter name for host p's CPU availability.
  [[nodiscard]] const std::string& load_param(std::size_t host) const;
  /// Slot id of host p's load parameter in program().
  [[nodiscard]] std::uint32_t load_slot(std::size_t host) const;
  [[nodiscard]] std::size_t hosts() const noexcept {
    return load_params_.size();
  }
  /// Parameter name for the bandwidth availability fraction.
  [[nodiscard]] static std::string bwavail_param() { return "bwavail"; }
  /// True when the model has a bandwidth parameter (more than one host).
  [[nodiscard]] bool uses_bandwidth() const noexcept {
    return bwavail_slot_ != kNoSlot;
  }
  /// Slot id of the bandwidth parameter; requires uses_bandwidth().
  [[nodiscard]] std::uint32_t bwavail_slot() const;

  /// Environment with all loads and bwavail bound (string-keyed bridge).
  [[nodiscard]] model::Environment make_env(
      std::span<const stoch::StochasticValue> loads,
      stoch::StochasticValue bwavail) const;

  /// Slot environment with all loads and bwavail bound by slot id — the
  /// allocation-light path for per-trial rebinding in experiment loops.
  [[nodiscard]] model::ir::SlotEnvironment make_slot_env(
      std::span<const stoch::StochasticValue> loads,
      stoch::StochasticValue bwavail) const;

  /// Stochastic execution-time prediction (compiled §2.3 calculus).
  [[nodiscard]] stoch::StochasticValue predict(
      const model::ir::SlotEnvironment& env) const;
  [[nodiscard]] stoch::StochasticValue predict(
      const model::Environment& env) const;
  /// Conventional point prediction (all parameters collapse to means).
  [[nodiscard]] double predict_point(
      const model::ir::SlotEnvironment& env) const;
  [[nodiscard]] double predict_point(const model::Environment& env) const;

  /// Monte-Carlo prediction: `trials` samples of the compiled program
  /// summarized as mean ± 2sd. Runs the blocked trial-major engine by
  /// default; pass kScalarCompat to reproduce the per-trial scalar stream
  /// (see ir::SampleOrder). The workspace-less form allocates one
  /// workspace per call — reuse `ws` in loops.
  [[nodiscard]] stoch::StochasticValue predict_monte_carlo(
      const model::ir::SlotEnvironment& env, support::Rng& rng,
      std::size_t trials, model::ir::EvalWorkspace& ws,
      model::ir::SampleOrder order = model::ir::SampleOrder::kBlocked) const;
  [[nodiscard]] stoch::StochasticValue predict_monte_carlo(
      const model::ir::SlotEnvironment& env, support::Rng& rng,
      std::size_t trials = 10'000,
      model::ir::SampleOrder order = model::ir::SampleOrder::kBlocked) const;

  /// Where a prediction comes from: per-host compute components and the
  /// shared communication component, per iteration and for the whole run.
  struct Breakdown {
    std::vector<stoch::StochasticValue> comp_per_host;  ///< one phase each
    stoch::StochasticValue comm_per_phase;
    stoch::StochasticValue per_iteration;
    stoch::StochasticValue total;
    std::size_t dominant_host = 0;  ///< argmax of comp means
  };

  /// Evaluates the component models separately (same calculus as
  /// predict()) so users can see which host/phase drives the prediction.
  /// The component programs are compiled on each call against the main
  /// program's slot table, so one slot environment drives all of them.
  [[nodiscard]] Breakdown breakdown(const model::ir::SlotEnvironment& env) const;
  [[nodiscard]] Breakdown breakdown(const model::Environment& env) const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  std::vector<std::string> load_params_;
  ModelComponents parts_;
  model::ExprPtr expr_;
  model::ir::Program program_;  ///< compiled expr_
  std::vector<std::uint32_t> load_slots_;
  std::uint32_t bwavail_slot_ = kNoSlot;
};

/// Red-Black SOR over a strip decomposition (config.rows_per_rank, or
/// uniform strips when empty).
[[nodiscard]] StructuralModel sor_model(const cluster::PlatformSpec& platform,
                                        const sor::SorConfig& config,
                                        SorModelOptions options = {});

/// Red-Black SOR over a pr×pc block decomposition: same per-phase compute
/// as strips (half the local elements), but the ghost exchange moves
/// O(n·(pr+pc)) bytes instead of O(n·P).
[[nodiscard]] StructuralModel block_sor_model(
    const cluster::PlatformSpec& platform, std::size_t n,
    std::size_t iterations, std::size_t pr, std::size_t pc,
    SorModelOptions options = {});

/// The distributed Jacobi application (one full sweep + one ghost
/// exchange per iteration):
///   ExTime = Σ_{i=1}^{NumIts} [ Max_p{Comp_p} + Comm ]
/// Demonstrates that structural modeling composes for applications beyond
/// the paper's SOR.
[[nodiscard]] StructuralModel jacobi_model(
    const cluster::PlatformSpec& platform, std::size_t n,
    std::size_t iterations, SorModelOptions options = {});

}  // namespace sspred::predict
