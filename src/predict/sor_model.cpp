#include "predict/sor_model.hpp"

#include "mpi/comm.hpp"
#include "sor/block.hpp"
#include "sor/decomposition.hpp"
#include "support/error.hpp"

namespace sspred::predict {

using model::constant;
using model::ExprPtr;
using model::param;
using model::quotient;
using model::vmax;
using stoch::Dependence;
using stoch::StochasticValue;

namespace {

/// Fabric-dependent communication profile for one ghost-exchange phase.
struct CommProfile {
  double concurrency;                   ///< simultaneous transfers per link
  support::BytesPerSecond bandwidth;    ///< the contended link's capacity
  support::Seconds latency;
};

[[nodiscard]] CommProfile comm_profile(const cluster::PlatformSpec& platform) {
  const double p_count = static_cast<double>(platform.hosts.size());
  if (platform.fabric == cluster::FabricKind::kSharedSegment) {
    // All 2(P-1) ghost messages of a phase share one segment.
    return {2.0 * (p_count - 1.0), platform.ethernet.nominal_bandwidth,
            platform.ethernet.latency};
  }
  // Switched: contention only at each NIC — at most 2 messages per
  // direction per host in a phase.
  return {std::min(2.0, p_count - 1.0), platform.switched.link_bandwidth,
          platform.switched.latency};
}

}  // namespace

StructuralModel::StructuralModel(const cluster::PlatformSpec& platform,
                                 std::size_t iterations,
                                 Dependence iteration_dependence,
                                 const Author& author) {
  SSPRED_REQUIRE(!platform.hosts.empty(), "platform has no hosts");
  load_params_.reserve(platform.hosts.size());
  for (const auto& host : platform.hosts) {
    load_params_.push_back("load/" + host.machine.name);
  }
  parts_ = author(load_params_);

  // --- Full run: Σ over NumIts.
  expr_ = model::iterate(parts_.iteration, iterations, iteration_dependence);

  // --- Compile once; all queries below are served from the flat program.
  program_ = model::compile(*expr_);
  load_slots_.reserve(load_params_.size());
  for (const auto& name : load_params_) {
    load_slots_.push_back(program_.slot(name));
  }
  if (program_.has_slot(bwavail_param())) {
    bwavail_slot_ = program_.slot(bwavail_param());
  }
}

const std::string& StructuralModel::load_param(std::size_t host) const {
  SSPRED_REQUIRE(host < load_params_.size(), "host index out of range");
  return load_params_[host];
}

std::uint32_t StructuralModel::load_slot(std::size_t host) const {
  SSPRED_REQUIRE(host < load_slots_.size(), "host index out of range");
  return load_slots_[host];
}

std::uint32_t StructuralModel::bwavail_slot() const {
  SSPRED_REQUIRE(uses_bandwidth(), "model has no bandwidth parameter");
  return bwavail_slot_;
}

model::Environment StructuralModel::make_env(
    std::span<const StochasticValue> loads, StochasticValue bwavail) const {
  SSPRED_REQUIRE(loads.size() == load_params_.size(),
                 "need one load value per host");
  model::Environment env;
  for (std::size_t p = 0; p < loads.size(); ++p) {
    env.bind(load_params_[p], loads[p]);
  }
  env.bind(bwavail_param(), bwavail);
  return env;
}

model::ir::SlotEnvironment StructuralModel::make_slot_env(
    std::span<const StochasticValue> loads, StochasticValue bwavail) const {
  SSPRED_REQUIRE(loads.size() == load_slots_.size(),
                 "need one load value per host");
  model::ir::SlotEnvironment env = program_.make_environment();
  for (std::size_t p = 0; p < loads.size(); ++p) {
    env.bind(load_slots_[p], loads[p]);
  }
  if (uses_bandwidth()) env.bind(bwavail_slot_, bwavail);
  return env;
}

StochasticValue StructuralModel::predict(
    const model::ir::SlotEnvironment& env) const {
  return program_.evaluate(env);
}

StochasticValue StructuralModel::predict(const model::Environment& env) const {
  return program_.evaluate(model::bind_environment(program_, env));
}

double StructuralModel::predict_point(
    const model::ir::SlotEnvironment& env) const {
  return program_.evaluate_point(env);
}

double StructuralModel::predict_point(const model::Environment& env) const {
  return program_.evaluate_point(model::bind_environment(program_, env));
}

StochasticValue StructuralModel::predict_monte_carlo(
    const model::ir::SlotEnvironment& env, support::Rng& rng,
    std::size_t trials, model::ir::EvalWorkspace& ws,
    model::ir::SampleOrder order) const {
  return program_.sample_trials(env, rng, trials, ws, order);
}

StochasticValue StructuralModel::predict_monte_carlo(
    const model::ir::SlotEnvironment& env, support::Rng& rng,
    std::size_t trials, model::ir::SampleOrder order) const {
  return program_.sample_trials(env, rng, trials, order);
}

StructuralModel::Breakdown StructuralModel::breakdown(
    const model::ir::SlotEnvironment& env) const {
  Breakdown b;
  model::ir::EvalWorkspace ws;  // shared across the component programs
  b.comp_per_host.reserve(parts_.comp.size());
  double best_mean = -1.0;
  for (std::size_t p = 0; p < parts_.comp.size(); ++p) {
    b.comp_per_host.push_back(
        model::compile(*parts_.comp[p], program_).evaluate(env, ws));
    if (b.comp_per_host.back().mean() > best_mean) {
      best_mean = b.comp_per_host.back().mean();
      b.dominant_host = p;
    }
  }
  b.comm_per_phase = model::compile(*parts_.comm, program_).evaluate(env, ws);
  b.per_iteration =
      model::compile(*parts_.iteration, program_).evaluate(env, ws);
  b.total = program_.evaluate(env, ws);
  return b;
}

StructuralModel::Breakdown StructuralModel::breakdown(
    const model::Environment& env) const {
  return breakdown(model::bind_environment(program_, env));
}

StructuralModel sor_model(const cluster::PlatformSpec& platform,
                          const sor::SorConfig& config,
                          SorModelOptions options) {
  return StructuralModel(
      platform, config.iterations, options.iteration_dependence,
      [&](std::span<const std::string> load_params) {
        const sor::StripDecomposition decomp =
            config.rows_per_rank.empty()
                ? sor::StripDecomposition::uniform(config.n,
                                                   platform.hosts.size())
                : sor::StripDecomposition(config.n, config.rows_per_rank);
        const std::size_t p_count = platform.hosts.size();

        // --- Computation components, one of the paper's two forms:
        //   benchmark: Comp_p = (NumElt_p / 2) · BM(Elt_p) / load_p
        //   op-count:  Comp_p = (NumElt_p / 2) · Op(p,Elt) / CPU_p / load_p
        // optionally inflated by the host's memory-thrashing multiplier.
        std::vector<ExprPtr> comp_terms;
        comp_terms.reserve(p_count);
        for (std::size_t p = 0; p < p_count; ++p) {
          const auto& mspec = platform.hosts[p].machine;
          const double per_element =
              options.compute_form == ComputeForm::kBenchmark
                  ? mspec.bm_seconds_per_element
                  : options.ops_per_element / mspec.ops_per_second;
          double dedicated_phase_seconds =
              decomp.elements(p) / 2.0 * per_element;
          if (options.account_memory) {
            const double working_set =
                2.0 * static_cast<double>(decomp.rows(p) + 2) *
                (static_cast<double>(config.n) + 2.0);
            dedicated_phase_seconds *= mspec.slowdown_factor(working_set);
          }
          comp_terms.push_back(quotient(constant(dedicated_phase_seconds),
                                        param(load_params[p]),
                                        Dependence::kUnrelated));
        }
        const ExprPtr max_comp = vmax(comp_terms, options.max_policy);

        // --- Communication components (identical across interior ranks
        // once the fabric's concurrency is folded in; see header note).
        //   bytes per ghost message: (n+2) elements + header
        //   C = simultaneous transfers on the contended link per phase
        //       (2·(P-1) on a shared segment; ≤2 per NIC when switched).
        const double msg_bytes =
            (static_cast<double>(config.n) + 2.0) * sizeof(double) +
            mpi::Comm::kHeaderBytes;
        const CommProfile profile = comm_profile(platform);
        const ExprPtr max_comm = [&]() -> ExprPtr {
          if (p_count < 2) {
            return constant(StochasticValue(0.0));  // single host: no comm
          }
          const double dedicated_phase_seconds =
              profile.concurrency * msg_bytes / profile.bandwidth;
          // In a phase all transfers start and complete together under
          // fair sharing, so a rank's comm phase ends one latency after
          // the shared bulk completes.
          return model::add(
              quotient(constant(dedicated_phase_seconds),
                       param(StructuralModel::bwavail_param()),
                       Dependence::kUnrelated),
              constant(profile.latency), Dependence::kRelated);
        }();

        // --- One iteration: red/black compute (same load params ->
        // related) plus red/black comm (same bandwidth -> related);
        // compute vs comm unrelated.
        const ExprPtr comp_both =
            model::add(max_comp, max_comp, Dependence::kRelated);
        const ExprPtr comm_both =
            model::add(max_comm, max_comm, Dependence::kRelated);
        const ExprPtr iteration =
            model::add(comp_both, comm_both, options.phase_dependence);
        return ModelComponents{std::move(comp_terms), max_comm, iteration};
      });
}

StructuralModel block_sor_model(const cluster::PlatformSpec& platform,
                                std::size_t n, std::size_t iterations,
                                std::size_t pr, std::size_t pc,
                                SorModelOptions options) {
  return StructuralModel(
      platform, iterations, options.iteration_dependence,
      [&](std::span<const std::string> load_params) {
        const std::size_t p_count = platform.hosts.size();
        SSPRED_REQUIRE(pr * pc == p_count, "pr*pc must equal the host count");

        // Comp_p: half the block's elements per color phase.
        std::vector<ExprPtr> comp_terms;
        comp_terms.reserve(p_count);
        for (std::size_t p = 0; p < p_count; ++p) {
          const std::size_t rows = sor::block_extent(n, pr, p / pc);
          const std::size_t cols = sor::block_extent(n, pc, p % pc);
          const auto& mspec = platform.hosts[p].machine;
          double dedicated = static_cast<double>(rows) *
                             static_cast<double>(cols) / 2.0 *
                             mspec.bm_seconds_per_element;
          if (options.account_memory) {
            const double working_set = 2.0 * static_cast<double>(rows + 2) *
                                       static_cast<double>(cols + 2);
            dedicated *= mspec.slowdown_factor(working_set);
          }
          comp_terms.push_back(quotient(constant(dedicated),
                                        param(load_params[p]),
                                        Dependence::kUnrelated));
        }
        const ExprPtr max_comp = vmax(comp_terms, options.max_policy);

        // Comm per phase: boundary bytes scale with (pr-1)+(pc-1) grid
        // cuts.
        const double msgs = 2.0 * static_cast<double>(pc) *
                                (static_cast<double>(pr) - 1.0) +
                            2.0 * static_cast<double>(pr) *
                                (static_cast<double>(pc) - 1.0);
        const double boundary_bytes =
            16.0 * static_cast<double>(n) *
                ((static_cast<double>(pr) - 1.0) +
                 (static_cast<double>(pc) - 1.0)) +
            mpi::Comm::kHeaderBytes * msgs;
        const CommProfile profile = comm_profile(platform);
        const ExprPtr max_comm = [&]() -> ExprPtr {
          if (p_count < 2) return constant(StochasticValue(0.0));
          double dedicated_phase_seconds = 0.0;
          if (platform.fabric == cluster::FabricKind::kSharedSegment) {
            dedicated_phase_seconds = boundary_bytes / profile.bandwidth;
          } else {
            // Switched: an interior NIC carries up to 4 messages per phase.
            const double nic_bytes =
                (2.0 * static_cast<double>(n) / static_cast<double>(pc) +
                 2.0 * static_cast<double>(n) / static_cast<double>(pr)) *
                    sizeof(double) +
                4.0 * mpi::Comm::kHeaderBytes;
            dedicated_phase_seconds = nic_bytes / profile.bandwidth;
          }
          return model::add(
              quotient(constant(dedicated_phase_seconds),
                       param(StructuralModel::bwavail_param()),
                       Dependence::kUnrelated),
              constant(profile.latency), Dependence::kRelated);
        }();

        const ExprPtr comp_both = model::add(max_comp, max_comp,
                                             Dependence::kRelated);
        const ExprPtr comm_both = model::add(max_comm, max_comm,
                                             Dependence::kRelated);
        const ExprPtr iteration =
            model::add(comp_both, comm_both, options.phase_dependence);
        return ModelComponents{std::move(comp_terms), max_comm, iteration};
      });
}

StructuralModel jacobi_model(const cluster::PlatformSpec& platform,
                             std::size_t n, std::size_t iterations,
                             SorModelOptions options) {
  return StructuralModel(
      platform, iterations, options.iteration_dependence,
      [&](std::span<const std::string> load_params) {
        const std::size_t p_count = platform.hosts.size();
        const sor::StripDecomposition decomp =
            sor::StripDecomposition::uniform(n, p_count);

        // Comp_p: the full strip once per iteration.
        std::vector<ExprPtr> comp_terms;
        comp_terms.reserve(p_count);
        for (std::size_t p = 0; p < p_count; ++p) {
          const auto& mspec = platform.hosts[p].machine;
          double dedicated = decomp.elements(p) * mspec.bm_seconds_per_element;
          if (options.account_memory) {
            const double working_set =
                2.0 * static_cast<double>(decomp.rows(p) + 2) *
                (static_cast<double>(n) + 2.0);
            dedicated *= mspec.slowdown_factor(working_set);
          }
          comp_terms.push_back(quotient(constant(dedicated),
                                        param(load_params[p]),
                                        Dependence::kUnrelated));
        }
        const ExprPtr max_comp = vmax(comp_terms, options.max_policy);

        // Comm: one ghost exchange per iteration on the platform's fabric.
        const double msg_bytes =
            (static_cast<double>(n) + 2.0) * sizeof(double) +
            mpi::Comm::kHeaderBytes;
        const CommProfile profile = comm_profile(platform);
        const ExprPtr comm = [&]() -> ExprPtr {
          if (p_count < 2) return constant(StochasticValue(0.0));
          return model::add(
              quotient(constant(profile.concurrency * msg_bytes /
                                profile.bandwidth),
                       param(StructuralModel::bwavail_param()),
                       Dependence::kUnrelated),
              constant(profile.latency), Dependence::kRelated);
        }();

        const ExprPtr iteration =
            model::add(max_comp, comm, options.phase_dependence);
        return ModelComponents{std::move(comp_terms), comm, iteration};
      });
}

}  // namespace sspred::predict
