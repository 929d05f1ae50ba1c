// Tests for the flat slot-indexed IR (model/ir.hpp) and the tree->IR
// compiler (model/compile.hpp).
//
// The core of the file is a differential property test: random expression
// DAGs — nested sums/products/quotients/extremes/iterates with shared
// subtrees and repeated parameters — must evaluate identically (to 1e-12
// relative) through the tree walkers and the compiled program, for all
// three evaluation modes. Monte-Carlo comparisons seed two identical RNGs,
// which only agree if the compiled sample walk consumes the stream in
// exactly the tree's order (per-occurrence draws, per-slot caching, fresh
// draws inside unrelated iterations).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "model/compile.hpp"
#include "model/expr.hpp"
#include "model/ir.hpp"
#include "predict/sor_model.hpp"
#include "stoch/stochastic_value.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sspred::model {
namespace {

using stoch::Dependence;
using stoch::ExtremePolicy;
using stoch::StochasticValue;

constexpr double kRelTol = 1e-12;

void expect_close(double a, double b, const std::string& what) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  EXPECT_LE(std::abs(a - b), kRelTol * scale) << what << ": " << a
                                              << " vs " << b;
}

void expect_sv_close(const StochasticValue& a, const StochasticValue& b,
                     const std::string& what) {
  expect_close(a.mean(), b.mean(), what + " mean");
  expect_close(a.halfwidth(), b.halfwidth(), what + " halfwidth");
}

/// Monte-Carlo through the tree walker only (the oracle): model::
/// monte_carlo() itself routes through the compiled program now.
StochasticValue tree_monte_carlo(const Expr& expr, const Environment& env,
                                 support::Rng& rng, std::size_t trials) {
  std::vector<double> outcomes;
  outcomes.reserve(trials);
  SampleCache cache;
  for (std::size_t t = 0; t < trials; ++t) {
    cache.clear();
    outcomes.push_back(expr.sample(env, cache, rng));
  }
  return StochasticValue::from_sample(outcomes);
}

// ---------------------------------------------------------------------------
// Compiler structure

TEST(Compile, FlattensToPostOrderWithRootLast) {
  const ExprPtr e =
      add(quotient(constant(StochasticValue(6.0, 0.6)), param("x"),
                   Dependence::kUnrelated),
          param("y"), Dependence::kRelated);
  const ir::Program prog = compile(*e);

  // Quotients emit the denominator's region first (sample-order parity
  // with DivExpr::sample): x, const, div, y, sum(root).
  ASSERT_EQ(prog.node_count(), 5u);
  EXPECT_EQ(prog.node(0).op, ir::OpCode::kParam);
  EXPECT_EQ(prog.node(1).op, ir::OpCode::kConst);
  EXPECT_EQ(prog.node(2).op, ir::OpCode::kDiv);
  EXPECT_EQ(prog.node(4).op, ir::OpCode::kSum);
  EXPECT_EQ(prog.slot_count(), 2u);
  EXPECT_TRUE(prog.has_slot("x"));
  EXPECT_TRUE(prog.has_slot("y"));
}

TEST(Compile, RepeatedParameterSharesOneSlot) {
  const ExprPtr x = param("x");
  const ExprPtr e = mul(add(x, x, Dependence::kRelated), param("x"),
                        Dependence::kUnrelated);
  const ir::Program prog = compile(*e);
  EXPECT_EQ(prog.slot_count(), 1u);
  // The shared ExprPtr `x` lowers once and its second occurrence becomes a
  // kRef; the separately authored param("x") emits its own kParam node.
  // Every kParam reads the single interned slot.
  std::size_t param_nodes = 0;
  std::size_t ref_nodes = 0;
  for (std::size_t i = 0; i < prog.node_count(); ++i) {
    if (prog.node(i).op == ir::OpCode::kParam) {
      ++param_nodes;
      EXPECT_EQ(prog.node(i).payload, prog.slot("x"));
    } else if (prog.node(i).op == ir::OpCode::kRef) {
      ++ref_nodes;
      EXPECT_EQ(prog.node(prog.node(i).payload).op, ir::OpCode::kParam);
    }
  }
  EXPECT_EQ(param_nodes, 2u);
  EXPECT_EQ(ref_nodes, 1u);
}

TEST(Compile, BaseProgramSeedsSharedSlotTable) {
  const ExprPtr whole = add(param("a"), param("b"));
  const ExprPtr part = param("b");
  const ir::Program prog = compile(*whole);
  const ir::Program comp = compile(*part, prog);
  // The component agrees with the base on slot ids, so one environment
  // shaped for the base drives both.
  EXPECT_EQ(comp.slot("b"), prog.slot("b"));
  EXPECT_EQ(comp.slot_count(), prog.slot_count());

  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("a"), StochasticValue(1.0));
  env.bind(prog.slot("b"), StochasticValue(2.0, 0.2));
  EXPECT_DOUBLE_EQ(comp.evaluate(env).mean(), 2.0);
  EXPECT_DOUBLE_EQ(prog.evaluate(env).mean(), 3.0);
}

TEST(Compile, UnknownSlotNameThrowsListingParameters) {
  const ir::Program prog = compile(*add(param("alpha"), param("beta")));
  try {
    (void)prog.slot("gamma");
    FAIL() << "expected Error";
  } catch (const support::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gamma"), std::string::npos);
    EXPECT_NE(what.find("alpha"), std::string::npos);
    EXPECT_NE(what.find("beta"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// SlotEnvironment / Environment diagnostics (satellite: lookup errors name
// what IS bound, not just what is missing)

TEST(SlotEnvironment, UnboundLookupListsBoundSlots) {
  const ir::Program prog = compile(*add(param("alpha"), param("beta")));
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("alpha"), StochasticValue(1.0));
  try {
    (void)prog.evaluate(env);
    FAIL() << "expected Error";
  } catch (const support::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("beta"), std::string::npos);   // the culprit
    EXPECT_NE(what.find("alpha"), std::string::npos);  // what is bound
  }
}

TEST(Environment, UnboundLookupListsBoundNames) {
  Environment env;
  env.bind("alpha", StochasticValue(1.0));
  env.bind("beta", StochasticValue(2.0));
  try {
    (void)env.lookup("gamma");
    FAIL() << "expected Error";
  } catch (const support::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gamma"), std::string::npos);
    EXPECT_NE(what.find("alpha"), std::string::npos);
    EXPECT_NE(what.find("beta"), std::string::npos);
  }
}

TEST(SlotEnvironment, EvaluateRejectsEnvironmentOfWrongShape) {
  const ir::Program two = compile(*add(param("a"), param("b")));
  const ir::Program one = compile(*param("a"));
  ir::SlotEnvironment env = one.make_environment();
  env.bind(one.slot("a"), StochasticValue(1.0));
  EXPECT_THROW((void)two.evaluate(env), support::Error);
}

TEST(SampleTrials, RequiresAtLeastTwoTrials) {
  const ir::Program prog = compile(*param("a"));
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("a"), StochasticValue(1.0, 0.1));
  support::Rng rng(7);
  EXPECT_THROW((void)prog.sample_trials(env, rng, 1), support::Error);
}

// ---------------------------------------------------------------------------
// Hand-picked equivalences (exact, not just 1e-12: same operations in the
// same order must produce bit-identical doubles)

TEST(Compiled, MatchesTreeOnIterateBothRegimes) {
  for (const auto dep : {Dependence::kRelated, Dependence::kUnrelated}) {
    const ExprPtr body = add(quotient(constant(StochasticValue(3.0, 0.3)),
                                      param("load"), Dependence::kUnrelated),
                             param("load"), Dependence::kRelated);
    const ExprPtr e = iterate(body, 5, dep);
    Environment env;
    env.bind("load", StochasticValue(0.8, 0.1));

    const ir::Program prog = compile(*e);
    const ir::SlotEnvironment slots = bind_environment(prog, env);

    EXPECT_DOUBLE_EQ(prog.evaluate(slots).mean(), e->evaluate(env).mean());
    EXPECT_DOUBLE_EQ(prog.evaluate(slots).halfwidth(),
                     e->evaluate(env).halfwidth());
    EXPECT_DOUBLE_EQ(prog.evaluate_point(slots), e->evaluate_point(env));

    // Unrelated iterations re-draw parameters each pass; related ones
    // reuse the trial's draw. Either way the stream must match the tree.
    support::Rng tree_rng(42);
    support::Rng ir_rng(42);
    ir::EvalWorkspace ws;
    SampleCache cache;
    for (int t = 0; t < 50; ++t) {
      cache.clear();
      EXPECT_DOUBLE_EQ(prog.sample(slots, ir_rng, ws),
                       e->sample(env, cache, tree_rng));
    }
  }
}

TEST(Compiled, NestedUnrelatedIteratesMatchTreeSampling) {
  // An unrelated iterate whose body contains another unrelated iterate:
  // the inner body re-draws per inner pass, the outer per outer pass, and
  // the enclosing trial's cache must survive both.
  const ExprPtr inner = iterate(param("x"), 3, Dependence::kUnrelated);
  const ExprPtr body = add(inner, param("y"), Dependence::kUnrelated);
  const ExprPtr e =
      add(iterate(body, 4, Dependence::kUnrelated), param("x"),
          Dependence::kRelated);
  Environment env;
  env.bind("x", StochasticValue(1.0, 0.2));
  env.bind("y", StochasticValue(2.0, 0.3));

  const ir::Program prog = compile(*e);
  const ir::SlotEnvironment slots = bind_environment(prog, env);
  support::Rng tree_rng(11);
  support::Rng ir_rng(11);
  ir::EvalWorkspace ws;
  SampleCache cache;
  for (int t = 0; t < 50; ++t) {
    cache.clear();
    EXPECT_DOUBLE_EQ(prog.sample(slots, ir_rng, ws),
                     e->sample(env, cache, tree_rng));
  }
}

TEST(Compiled, SharedSubtreeDrawsPerOccurrenceLikeTheTree) {
  // The same ExprPtr reached twice is sampled twice by the tree walker
  // (only named parameters cache); compilation must preserve that.
  const ExprPtr noisy = constant(StochasticValue(5.0, 1.0));
  const ExprPtr e = add(noisy, noisy, Dependence::kUnrelated);
  const ir::Program prog = compile(*e);
  const Environment env;
  const ir::SlotEnvironment slots = bind_environment(prog, env);

  support::Rng tree_rng(3);
  support::Rng ir_rng(3);
  ir::EvalWorkspace ws;
  SampleCache cache;
  for (int t = 0; t < 20; ++t) {
    cache.clear();
    const double a = prog.sample(slots, ir_rng, ws);
    const double b = e->sample(env, cache, tree_rng);
    EXPECT_DOUBLE_EQ(a, b);
  }
}

TEST(Compiled, SharedIterateRefKeepsIterateSaveRestoreIntact) {
  // Regression: a shared unrelated iterate re-executed through a reuse
  // node nests the iterate's slot save/restore inside the ref's region
  // save/restore. The two must use separate buffers — an early version
  // indexed the iterate's drawn-flag saves off the ref-extended value
  // buffer, corrupting the restored cache state and desyncing the stream.
  const ExprPtr it = iterate(param("p1"), 2, Dependence::kUnrelated);
  const ExprPtr e = sum({it, it, param("p1")}, Dependence::kUnrelated);
  Environment env;
  env.bind("p1", StochasticValue(1.0, 0.2));

  const ir::Program prog = compile(*e);
  const ir::SlotEnvironment slots = bind_environment(prog, env);
  support::Rng tree_rng(5);
  support::Rng ir_rng(5);
  ir::EvalWorkspace ws;
  SampleCache cache;
  for (int t = 0; t < 50; ++t) {
    cache.clear();
    EXPECT_DOUBLE_EQ(prog.sample(slots, ir_rng, ws),
                     e->sample(env, cache, tree_rng));
  }
}

TEST(Compiled, MonteCarloEntryPointsAgree) {
  const ExprPtr e = iterate(
      add(quotient(constant(StochasticValue(2.0, 0.2)), param("load"),
                   Dependence::kUnrelated),
          constant(StochasticValue(0.5, 0.05)), Dependence::kUnrelated),
      6, Dependence::kRelated);
  Environment env;
  env.bind("load", StochasticValue(0.7, 0.1));

  const ir::Program prog = compile(*e);
  const ir::SlotEnvironment slots = bind_environment(prog, env);

  support::Rng r1(99);
  support::Rng r2(99);
  support::Rng r3(99);
  support::Rng r4(99);
  // The expr entry point runs the default blocked order, so its oracle is
  // the program's blocked stream; the scalar-compat order remains
  // bit-exact against the tree walker.
  const StochasticValue via_expr_api = monte_carlo(*e, env, r1, 500);
  const StochasticValue via_program =
      monte_carlo(prog, slots, r2, 500, ir::SampleOrder::kScalarCompat);
  const StochasticValue via_tree = tree_monte_carlo(*e, env, r3, 500);
  const StochasticValue via_blocked = prog.sample_trials(slots, r4, 500);
  expect_sv_close(via_expr_api, via_blocked, "monte_carlo(expr) vs blocked");
  expect_sv_close(via_program, via_tree, "monte_carlo(program) vs tree");
}

TEST(Compiled, SorModelServesIdenticalPredictions) {
  const auto spec = cluster::platform1();
  sor::SorConfig cfg;
  cfg.n = 400;
  cfg.iterations = 15;
  const auto model = predict::sor_model(spec, cfg);
  std::vector<StochasticValue> loads = {
      {0.48, 0.05}, {0.92, 0.03}, {0.92, 0.03}, {0.92, 0.03}};
  const StochasticValue bw(0.525, 0.06);

  const Environment env = model.make_env(loads, bw);
  const ir::SlotEnvironment slots = model.make_slot_env(loads, bw);

  // Compiled prediction == tree evaluation of the authored expression.
  EXPECT_DOUBLE_EQ(model.predict(slots).mean(),
                   model.expr()->evaluate(env).mean());
  EXPECT_DOUBLE_EQ(model.predict(slots).halfwidth(),
                   model.expr()->evaluate(env).halfwidth());
  EXPECT_DOUBLE_EQ(model.predict_point(slots),
                   model.expr()->evaluate_point(env));
  // The two environment forms agree with each other.
  EXPECT_DOUBLE_EQ(model.predict(env).mean(), model.predict(slots).mean());
}

// ---------------------------------------------------------------------------
// Differential property test over random DAGs

struct Gen {
  explicit Gen(std::uint64_t seed) : rng(seed) {}

  support::Rng rng;
  std::vector<std::string> params = {"p0", "p1", "p2", "p3"};
  std::vector<ExprPtr> pool;  ///< candidates for shared-subtree reuse

  Dependence dep() {
    return rng.uniform() < 0.5 ? Dependence::kRelated
                               : Dependence::kUnrelated;
  }

  /// A leaf or a leaf-like safe denominator: a parameter (bound well away
  /// from zero) or a tight positive constant.
  ExprPtr leaf() {
    if (rng.uniform() < 0.5) {
      return param(params[rng.uniform_int(params.size())]);
    }
    const double mean = rng.uniform(0.5, 2.0);
    return constant(StochasticValue(mean, rng.uniform(0.0, 0.2 * mean)));
  }

  ExprPtr expr(int depth) {
    // Shared subtree: reuse an already-built node (DAG edge) sometimes.
    if (!pool.empty() && rng.uniform() < 0.2) {
      return pool[rng.uniform_int(pool.size())];
    }
    ExprPtr made;
    if (depth == 0 || rng.uniform() < 0.2) {
      made = leaf();
    } else {
      switch (rng.uniform_int(5)) {
        case 0: {
          std::vector<ExprPtr> terms;
          const std::size_t k = 2 + rng.uniform_int(3);
          for (std::size_t i = 0; i < k; ++i) {
            terms.push_back(expr(depth - 1));
          }
          made = sum(std::move(terms), dep());
          break;
        }
        case 1: {
          std::vector<ExprPtr> factors;
          const std::size_t k = 2 + rng.uniform_int(2);
          for (std::size_t i = 0; i < k; ++i) {
            factors.push_back(expr(depth - 1));
          }
          made = prod(std::move(factors), dep());
          break;
        }
        case 2:
          // Denominators stay leaves: parameters and constants are bound
          // well away from zero, which keeps the div/inverse
          // range-excludes-zero precondition satisfiable for arbitrary
          // nesting (a deep product's range may legally straddle zero).
          made = quotient(expr(depth - 1), leaf(), dep());
          break;
        case 3: {
          std::vector<ExprPtr> items;
          const std::size_t k = 2 + rng.uniform_int(3);
          for (std::size_t i = 0; i < k; ++i) {
            items.push_back(expr(depth - 1));
          }
          const auto policy = rng.uniform() < 0.5
                                  ? ExtremePolicy::kLargestMean
                                  : ExtremePolicy::kLargestUpper;
          made = rng.uniform() < 0.5 ? vmax(std::move(items), policy)
                                     : vmin(std::move(items), policy);
          break;
        }
        default:
          made = iterate(expr(depth - 1), 1 + rng.uniform_int(4), dep());
          break;
      }
    }
    pool.push_back(made);
    return made;
  }
};

TEST(Differential, RandomDagsAgreeAcrossAllThreeModes) {
  constexpr int kCases = 40;
  constexpr std::size_t kTrials = 200;
  for (int c = 0; c < kCases; ++c) {
    Gen gen(1000 + static_cast<std::uint64_t>(c));
    const ExprPtr e = gen.expr(4);
    const std::string label = "case " + std::to_string(c);

    Environment env;
    for (const auto& name : gen.params) {
      const double mean = gen.rng.uniform(0.5, 2.0);
      env.bind(name, StochasticValue(mean, gen.rng.uniform(0.0, 0.2 * mean)));
    }

    const ir::Program prog = compile(*e);
    const ir::SlotEnvironment slots = bind_environment(prog, env);

    expect_sv_close(prog.evaluate(slots), e->evaluate(env),
                    label + " evaluate");
    expect_close(prog.evaluate_point(slots), e->evaluate_point(env),
                 label + " evaluate_point");

    support::Rng tree_rng(7000 + static_cast<std::uint64_t>(c));
    support::Rng ir_rng(7000 + static_cast<std::uint64_t>(c));
    const StochasticValue tree_mc =
        tree_monte_carlo(*e, env, tree_rng, kTrials);
    const StochasticValue ir_mc = prog.sample_trials(
        slots, ir_rng, kTrials, ir::SampleOrder::kScalarCompat);
    expect_sv_close(ir_mc, tree_mc, label + " monte_carlo");
  }
}

}  // namespace
}  // namespace sspred::model
