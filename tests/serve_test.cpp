// Tests for the concurrent prediction service (src/serve/): metrics,
// bindings epochs, the compiled-program cache (including the concurrent
// first-compilation race), coalescing, admission control, Monte-Carlo
// fan-out, structured worker-side errors, and the nws::Service
// multi-reader contract. The concurrency tests here are the ones CI runs
// under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/platform.hpp"
#include "nws/service.hpp"
#include "serve/epoch.hpp"
#include "serve/metrics.hpp"
#include "serve/program_cache.hpp"
#include "serve/service.hpp"
#include "support/clock.hpp"
#include "support/error.hpp"

namespace sspred::serve {
namespace {

ModelSpec small_spec(std::size_t n = 200, std::size_t hosts = 2) {
  ModelSpec spec;
  spec.app = ModelSpec::App::kSor;
  spec.platform = cluster::dedicated_platform(hosts);
  spec.config.n = n;
  spec.config.iterations = 5;
  return spec;
}

std::vector<stoch::StochasticValue> loads_for(std::size_t hosts) {
  std::vector<stoch::StochasticValue> loads;
  for (std::size_t i = 0; i < hosts; ++i) {
    loads.push_back(stoch::StochasticValue(0.8 + 0.05 * double(i), 0.1));
  }
  return loads;
}

PredictRequest stochastic_request(const std::string& id,
                                  std::vector<stoch::StochasticValue> loads) {
  PredictRequest request;
  request.model_id = id;
  request.loads = std::move(loads);
  return request;
}

PredictRequest resource_request(const std::string& id,
                                std::vector<std::string> resources) {
  PredictRequest request;
  request.model_id = id;
  request.resources = std::move(resources);
  return request;
}

ServiceOptions options_with(std::size_t workers) {
  ServiceOptions options;
  options.workers = workers;
  return options;
}

TEST(ServeClock, FakeClockIsDeterministic) {
  support::FakeClock clock(10.0);
  EXPECT_DOUBLE_EQ(clock.now(), 10.0);
  clock.advance(2.5);
  EXPECT_DOUBLE_EQ(clock.now(), 12.5);
  clock.set(20.0);
  EXPECT_DOUBLE_EQ(clock.now(), 20.0);
  clock.set(5.0);  // never moves backwards
  EXPECT_DOUBLE_EQ(clock.now(), 20.0);
  clock.advance(-1.0);  // ignored
  EXPECT_DOUBLE_EQ(clock.now(), 20.0);
}

TEST(ServeClock, RealClockIsMonotonic) {
  support::RealClock clock;
  const double a = clock.now();
  const double b = clock.now();
  EXPECT_GE(b, a);
}

TEST(ServeMetrics, CountersAndGauges) {
  MetricsRegistry registry;
  registry.counter("reqs").increment();
  registry.counter("reqs").increment(4);
  EXPECT_EQ(registry.counter("reqs").value(), 5u);
  registry.gauge("depth").set(7);
  registry.gauge("depth").sub(3);
  EXPECT_EQ(registry.gauge("depth").value(), 4);
  // Addresses are stable: hot paths may cache references.
  Counter& c = registry.counter("reqs");
  EXPECT_EQ(&c, &registry.counter("reqs"));
}

TEST(ServeMetrics, LatencyQuantilesFromBuckets) {
  LatencyHistogram h(1.0, 1000);  // 1 ms buckets
  for (int i = 1; i <= 100; ++i) h.observe(double(i) / 1000.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 0.100);
  EXPECT_NEAR(h.quantile(0.50), 0.050, 0.002);
  EXPECT_NEAR(h.quantile(0.95), 0.095, 0.002);
  EXPECT_NEAR(h.quantile(0.99), 0.099, 0.002);
  EXPECT_NEAR(h.mean(), 0.0505, 1e-9);
  // Values beyond the range clamp into the top bucket, saturating p100.
  h.observe(5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
}

TEST(ServeMetrics, RegistrySnapshotNamesEverything) {
  MetricsRegistry registry;
  registry.counter("a").increment();
  registry.gauge("b").set(2);
  registry.histogram("c", 1.0, 8).observe(0.5);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a");
  EXPECT_EQ(snap[0].kind, "counter");
  EXPECT_EQ(snap[2].kind, "histogram");
  EXPECT_FALSE(registry.render().empty());
}

TEST(ServeMetrics, EmptyHistogramIsAllZeros) {
  LatencyHistogram h(1.0, 16);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  // Quantiles of an empty histogram are 0, never NaN.
  for (const double q : {0.0, 0.5, 0.95, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_FALSE(std::isnan(v));
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
  EXPECT_THROW((void)h.quantile(1.5), support::Error);
  EXPECT_THROW((void)h.quantile(-0.1), support::Error);
}

TEST(ServeMetrics, SingleSampleHistogramClampsAllQuantilesToIt) {
  LatencyHistogram h(1.0, 16);
  h.observe(0.3);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.3);
  // Every quantile of a one-sample distribution is that sample: bucket
  // interpolation must clamp to the observed extremes, not bucket edges.
  for (const double q : {0.0, 0.01, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 0.3) << "q=" << q;
  }
}

TEST(ServeMetrics, OverflowObservationsSaturateTheTopBucket) {
  LatencyHistogram h(1.0, 16);  // tracked range [0, 1)
  h.observe(0.5);
  h.observe(50.0);
  h.observe(100.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // Out-of-range values clamp into the top bucket; high quantiles
  // saturate at the exact observed max rather than the bucket edge.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  EXPECT_LE(h.quantile(0.9), 100.0);
  EXPECT_GE(h.quantile(0.9), 0.5);
  EXPECT_FALSE(std::isnan(h.quantile(0.99)));
}

TEST(ServeMetrics, RenderJsonListsEveryInstrumentWithoutNans) {
  MetricsRegistry registry;
  registry.counter("reqs").increment(3);
  registry.gauge("depth").set(-2);
  (void)registry.histogram("lat", 1.0, 8);  // deliberately left empty
  registry.histogram("sizes", 16.0, 16).observe(4.0);
  const std::string json = registry.render_json();
  EXPECT_NE(json.find("\"name\": \"reqs\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"value\": -2"), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  // An empty histogram must render as zeros, not NaN (invalid JSON).
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(ServeProgramCache, StructurallyIdenticalSpecsShareOneProgram) {
  ProgramCache cache;
  const auto a = cache.get_or_compile(small_spec());
  EXPECT_FALSE(a.hit);
  const auto b = cache.get_or_compile(small_spec());
  EXPECT_TRUE(b.hit);
  EXPECT_EQ(a.model.get(), b.model.get());
  EXPECT_EQ(cache.compile_count(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServeProgramCache, DifferentStructureMisses) {
  ProgramCache cache;
  (void)cache.get_or_compile(small_spec(200));
  const auto other = cache.get_or_compile(small_spec(400));
  EXPECT_FALSE(other.hit);
  EXPECT_EQ(cache.compile_count(), 2u);

  ModelSpec jacobi = small_spec(200);
  jacobi.app = ModelSpec::App::kJacobi;
  (void)cache.get_or_compile(jacobi);
  EXPECT_EQ(cache.compile_count(), 3u);
}

TEST(ServeProgramCache, ConcurrentFirstCompilationIsSingleFlight) {
  ProgramCache cache;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<CompiledModelPtr> models(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &models, t] {
      models[size_t(t)] = cache.get_or_compile(small_spec(300)).model;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.compile_count(), 1u);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(models[size_t(t)].get(), models[0].get());
  }
}

// A spec that cannot compile is compiled once however many threads race
// on it: every caller gets the same structured error, and the cached
// failure is rethrown later without another compile attempt.
TEST(ServeProgramCache, FailedCompilationIsSingleFlightAndCached) {
  ModelSpec bad = small_spec();
  bad.platform.hosts.clear();  // no hosts: nothing to decompose onto
  ProgramCache cache;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &bad, &errors, t] {
      try {
        (void)cache.get_or_compile(bad);
      } catch (const support::Error& e) {
        errors[size_t(t)] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.compile_count(), 1u);
  for (const auto& error : errors) {
    EXPECT_NE(error.find("model compilation failed"), std::string::npos)
        << error;
    EXPECT_EQ(error, errors[0]);
  }
  try {
    (void)cache.get_or_compile(bad);
    ADD_FAILURE() << "cached failure was not rethrown";
  } catch (const support::Error& e) {
    EXPECT_NE(std::string(e.what()).find("model compilation failed"),
              std::string::npos);
  }
  EXPECT_EQ(cache.compile_count(), 1u);
}

TEST(ServeEpoch, BridgePublishesVersionedConsistentSnapshots) {
  nws::ServiceOptions nws_options;
  nws_options.history_capacity = 64;
  nws_options.warmup = 4;
  nws::Service nws_service(nws_options);
  for (int i = 0; i < 16; ++i) {
    nws_service.observe("cpu/a", 0.8);
    nws_service.observe("cpu/b", 0.5);
  }
  NwsBridge bridge(nws_service, {"cpu/a", "cpu/b", "cpu/cold"});
  EXPECT_EQ(bridge.current(), nullptr);

  const auto first = bridge.publish();
  EXPECT_EQ(first->version(), 1u);
  EXPECT_TRUE(first->contains("cpu/a"));
  EXPECT_NEAR(first->lookup("cpu/a").mean(), 0.8, 1e-6);
  // No history yet: absent from the epoch, and lookup errors name it.
  EXPECT_FALSE(first->contains("cpu/cold"));
  EXPECT_THROW((void)first->lookup("cpu/cold"), support::Error);

  const auto second = bridge.publish();
  EXPECT_EQ(second->version(), 2u);
  EXPECT_EQ(bridge.current().get(), second.get());
  // The first epoch is immutable and still readable by in-flight work.
  EXPECT_NEAR(first->lookup("cpu/b").mean(), 0.5, 1e-6);
}

// Epoch pinning: a request must never observe bindings from two epochs,
// and must be served under exactly the epoch current at submit time.
// Every epoch version carries distinct load values, so any tearing or
// re-reading of "current" mid-evaluation produces a value that matches
// no version's expectation.
TEST(ServeEpoch, RequestsPinTheSubmitTimeEpochUnderConcurrentPublishes) {
  constexpr std::uint64_t kEpochs = 100;
  const auto spec = small_spec();

  const auto loads_for_version = [](std::uint64_t k) {
    const double base = 0.5 + 0.4 * double(k) / double(kEpochs);
    return std::vector<stoch::StochasticValue>{
        stoch::StochasticValue(base, 0.05),
        stoch::StochasticValue(base - 0.1, 0.05)};
  };

  // Reference evaluation per version, outside the service.
  const predict::SorStructuralModel direct(spec.platform, spec.config,
                                           spec.options);
  std::map<std::uint64_t, stoch::StochasticValue> expected;
  for (std::uint64_t k = 1; k <= kEpochs; ++k) {
    expected.emplace(k, direct.predict(direct.make_slot_env(
                            loads_for_version(k), stoch::StochasticValue(1.0))));
  }

  const auto epoch_for = [&](std::uint64_t k) {
    const auto loads = loads_for_version(k);
    return std::make_shared<const BindingsEpoch>(
        k, std::map<std::string, stoch::StochasticValue>{
               {"cpu/a", loads[0]}, {"cpu/b", loads[1]}});
  };

  ServiceOptions options;
  options.workers = 4;
  PredictionService service(options);
  service.register_model("sor", spec);
  service.publish_epoch(epoch_for(1));

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (std::uint64_t k = 2; k <= kEpochs && !stop.load(); ++k) {
      service.publish_epoch(epoch_for(k));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true);
  });

  constexpr int kSubmitters = 3;
  std::vector<std::thread> submitters;
  std::atomic<int> checked{0};
  std::atomic<bool> mismatch{false};
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      while (!stop.load()) {
        auto result =
            service.submit(resource_request("sor", {"cpu/a", "cpu/b"})).get();
        if (!result.ok()) continue;  // rejected under shutdown only
        const auto it = expected.find(result.epoch_version);
        if (it == expected.end() || result.value != it->second) {
          mismatch.store(true);
        }
        checked.fetch_add(1);
      }
    });
  }
  publisher.join();
  for (auto& t : submitters) t.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_GT(checked.load(), 0);
}

// Concurrent set_transform / publish / current on the bridge (TSan).
TEST(ServeEpoch, BridgeTransformInstallAndPublishAreRaceFree) {
  nws::ServiceOptions nws_options;
  nws_options.history_capacity = 64;
  nws_options.warmup = 4;
  nws::Service nws_service(nws_options);
  for (int i = 0; i < 16; ++i) {
    nws_service.observe("cpu/a", 0.8 + (i % 2 == 0 ? 0.05 : -0.05));
  }
  NwsBridge bridge(nws_service, {"cpu/a"});
  const auto base = bridge.publish()->lookup("cpu/a");

  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    for (int i = 0; i < 500; ++i) {
      bridge.set_transform(
          [](std::map<std::string, stoch::StochasticValue>& values) {
            for (auto& [name, v] : values) {
              v = stoch::StochasticValue(v.mean(), 2.0 * v.halfwidth());
            }
          });
      bridge.set_transform(nullptr);
    }
    stop.store(true);
  });
  std::thread publisher([&] {
    while (!stop.load()) (void)bridge.publish();
  });
  std::atomic<bool> bad{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const auto epoch = bridge.current();
      if (!epoch) continue;
      const auto v = epoch->lookup("cpu/a");
      // Either the raw forecast or the doubled one; nothing in between.
      if (v.mean() != base.mean() ||
          (v.halfwidth() != base.halfwidth() &&
           v.halfwidth() != 2.0 * base.halfwidth())) {
        bad.store(true);
      }
    }
  });
  flipper.join();
  publisher.join();
  reader.join();
  EXPECT_FALSE(bad.load());
}

TEST(ServeService, StochasticPredictionMatchesDirectModel) {
  const auto spec = small_spec();
  const auto loads = loads_for(2);

  PredictionService service(options_with(2));
  service.register_model("sor", spec);
  const auto result =
      service.submit(stochastic_request("sor", loads)).get();
  ASSERT_TRUE(result.ok()) << result.error;

  const predict::SorStructuralModel direct(spec.platform, spec.config,
                                           spec.options);
  const auto expected =
      direct.predict(direct.make_slot_env(loads, stoch::StochasticValue(1.0)));
  EXPECT_DOUBLE_EQ(result.value.mean(), expected.mean());
  EXPECT_DOUBLE_EQ(result.value.halfwidth(), expected.halfwidth());
}

TEST(ServeService, PointModeMatchesDirectPointPrediction) {
  const auto spec = small_spec();
  const auto loads = loads_for(2);
  PredictionService service(options_with(1));
  service.register_model("sor", spec);
  auto request = stochastic_request("sor", loads);
  request.mode = Mode::kPoint;
  const auto result = service.submit(std::move(request)).get();
  ASSERT_TRUE(result.ok()) << result.error;
  const predict::SorStructuralModel direct(spec.platform, spec.config,
                                           spec.options);
  const double expected = direct.predict_point(
      direct.make_slot_env(loads, stoch::StochasticValue(1.0)));
  EXPECT_DOUBLE_EQ(result.point, expected);
  EXPECT_DOUBLE_EQ(result.value.halfwidth(), 0.0);
}

TEST(ServeService, ChunkedMonteCarloIsDeterministicAndSane) {
  ServiceOptions options;
  options.workers = 4;
  options.mc_chunk_trials = 1000;
  PredictionService service(options);
  service.register_model("sor", small_spec());
  auto request = stochastic_request("sor", loads_for(2));
  request.mode = Mode::kMonteCarlo;
  request.trials = 8000;
  request.seed = 42;
  const auto a = service.submit(request).get();
  const auto b = service.submit(request).get();
  ASSERT_TRUE(a.ok()) << a.error;
  // Fixed (seed, chunk layout) -> identical result, independent of which
  // worker ran which chunk.
  EXPECT_DOUBLE_EQ(a.value.mean(), b.value.mean());
  EXPECT_DOUBLE_EQ(a.value.halfwidth(), b.value.halfwidth());
  EXPECT_EQ(service.metrics().counter("mc_chunks_executed").value(), 16u);

  // The sampled mean should agree with the stochastic calculus roughly.
  const auto calc =
      service.submit(stochastic_request("sor", loads_for(2))).get();
  EXPECT_NEAR(a.value.mean(), calc.value.mean(),
              0.25 * calc.value.mean() + 1e-9);
}

TEST(ServeService, ChunkedMonteCarloIsIndependentOfWorkerCount) {
  // The blocked engine samples each chunk from its own derived seed and
  // the partials combine in chunk-index order, so the result is a pure
  // function of (seed, trials, chunk size) — scheduling, worker count and
  // which worker's pooled arenas ran a chunk must all be invisible.
  auto run_with = [](std::size_t workers) {
    ServiceOptions options;
    options.workers = workers;
    options.mc_chunk_trials = 1000;
    PredictionService service(options);
    service.register_model("sor", small_spec());
    auto request = stochastic_request("sor", loads_for(2));
    request.mode = Mode::kMonteCarlo;
    request.trials = 7500;  // uneven tail chunk included
    request.seed = 1234;
    return service.submit(std::move(request)).get();
  };
  const auto one = run_with(1);
  const auto four = run_with(4);
  ASSERT_TRUE(one.ok()) << one.error;
  ASSERT_TRUE(four.ok()) << four.error;
  EXPECT_DOUBLE_EQ(one.value.mean(), four.value.mean());
  EXPECT_DOUBLE_EQ(one.value.halfwidth(), four.value.halfwidth());
}

TEST(ServeService, UnknownModelIdIsStructuredErrorAndPoolSurvives) {
  PredictionService service(options_with(2));
  service.register_model("sor", small_spec());
  const auto bad =
      service.submit(stochastic_request("nope", loads_for(2))).get();
  EXPECT_EQ(bad.status, PredictResult::Status::kError);
  EXPECT_NE(bad.error.find("unknown model id 'nope'"), std::string::npos);
  EXPECT_NE(bad.error.find("sor"), std::string::npos);  // lists registered

  // A poisoned request must not kill the pool: follow-ups still serve.
  const auto good =
      service.submit(stochastic_request("sor", loads_for(2))).get();
  EXPECT_TRUE(good.ok()) << good.error;
}

TEST(ServeService, BindingErrorsAreStructured) {
  PredictionService service(options_with(1));
  service.register_model("sor", small_spec());

  const auto wrong_count =
      service.submit(stochastic_request("sor", loads_for(3))).get();
  EXPECT_EQ(wrong_count.status, PredictResult::Status::kError);
  EXPECT_NE(wrong_count.error.find("needs 2 load bindings, got 3"),
            std::string::npos);

  const auto none = service.submit(stochastic_request("sor", {})).get();
  EXPECT_EQ(none.status, PredictResult::Status::kError);

  // Resource bindings without a published epoch.
  const auto no_epoch =
      service.submit(resource_request("sor", {"cpu/a", "cpu/b"})).get();
  EXPECT_EQ(no_epoch.status, PredictResult::Status::kError);
  EXPECT_NE(no_epoch.error.find("no bindings epoch"), std::string::npos);

  // Published epoch missing the requested resource.
  service.publish_epoch(std::make_shared<const BindingsEpoch>(
      1, std::map<std::string, stoch::StochasticValue>{
             {"cpu/a", stoch::StochasticValue(0.9, 0.1)}}));
  const auto missing =
      service.submit(resource_request("sor", {"cpu/a", "cpu/b"})).get();
  EXPECT_EQ(missing.status, PredictResult::Status::kError);
  EXPECT_NE(missing.error.find("cpu/b"), std::string::npos);
}

TEST(ServeService, CoalescingSharesOneEvaluation) {
  ServiceOptions options;
  options.workers = 2;
  options.start_paused = true;
  PredictionService service(options);
  service.register_model("sor", small_spec());
  const auto request = stochastic_request("sor", loads_for(2));

  std::vector<std::future<PredictResult>> same;
  for (int i = 0; i < 6; ++i) same.push_back(service.submit(request));
  auto different = request;
  different.loads[0] = stoch::StochasticValue(0.5, 0.2);
  auto other = service.submit(std::move(different));

  service.resume();
  for (auto& f : same) {
    const auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.batch_size, 6u);
  }
  const auto r = other.get();
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.batch_size, 1u);  // different bindings never coalesce
  EXPECT_EQ(service.metrics().counter("requests_coalesced").value(), 5u);
}

TEST(ServeService, BoundedQueueShedsOverload) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  options.start_paused = true;
  PredictionService service(options);
  service.register_model("sor", small_spec());
  // Distinct seeds so coalescing cannot merge them once resumed.
  std::vector<std::future<PredictResult>> futures;
  for (int i = 0; i < 10; ++i) {
    auto request = stochastic_request("sor", loads_for(2));
    request.mode = Mode::kMonteCarlo;
    request.trials = 16;
    request.seed = std::uint64_t(i);
    futures.push_back(service.submit(std::move(request)));
  }
  std::size_t rejected = 0;
  // Shed requests resolve immediately, while the service is still paused.
  for (int i = 4; i < 10; ++i) {
    const auto r = futures[size_t(i)].get();
    EXPECT_EQ(r.status, PredictResult::Status::kRejected);
    EXPECT_NE(r.error.find("queue full"), std::string::npos);
    ++rejected;
  }
  EXPECT_EQ(rejected, 6u);
  EXPECT_EQ(service.metrics().counter("requests_rejected").value(), 6u);
  // The shed path is attributed to its SPECIFIC reason, not just the
  // aggregate: these were capacity rejections, nothing else.
  EXPECT_EQ(service.metrics().counter("rejected_queue_full").value(), 6u);
  EXPECT_EQ(service.metrics().counter("rejected_stopped").value(), 0u);
  EXPECT_EQ(service.metrics().counter("rejected_shard_unavailable").value(),
            0u);
  EXPECT_NE(service.metrics().render_json().find(
                "\"name\": \"rejected_queue_full\", \"kind\": \"counter\", "
                "\"value\": 6"),
            std::string::npos);
  service.resume();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(futures[size_t(i)].get().ok());
  }
}

TEST(ServeService, RequestsKeepTheEpochTheyWereAdmittedUnder) {
  ServiceOptions options;
  options.workers = 1;
  options.start_paused = true;
  PredictionService service(options);
  service.register_model("sor", small_spec());
  const auto make_epoch = [](std::uint64_t version) {
    return std::make_shared<const BindingsEpoch>(
        version, std::map<std::string, stoch::StochasticValue>{
                     {"cpu/a", stoch::StochasticValue(0.9, 0.05)},
                     {"cpu/b", stoch::StochasticValue(0.7, 0.05)}});
  };
  service.publish_epoch(make_epoch(1));
  auto first = service.submit(resource_request("sor", {"cpu/a", "cpu/b"}));
  service.publish_epoch(make_epoch(2));
  auto second = service.submit(resource_request("sor", {"cpu/a", "cpu/b"}));
  service.resume();
  const auto r1 = first.get();
  const auto r2 = second.get();
  ASSERT_TRUE(r1.ok() && r2.ok()) << r1.error << r2.error;
  EXPECT_EQ(r1.epoch_version, 1u);
  EXPECT_EQ(r2.epoch_version, 2u);
  // Same bindings but different epochs: they must not have coalesced.
  EXPECT_EQ(r1.batch_size, 1u);
  EXPECT_EQ(r2.batch_size, 1u);
}

TEST(ServeService, FakeClockMakesLatencyMetricsDeterministic) {
  auto clock = std::make_shared<support::FakeClock>();
  ServiceOptions options;
  options.workers = 1;
  options.clock = clock;
  options.start_paused = true;
  PredictionService service(options);
  service.register_model("sor", small_spec());
  auto future = service.submit(stochastic_request("sor", loads_for(2)));
  clock->advance(0.25);  // the request "waits" a quarter second in queue
  service.resume();
  const auto result = future.get();
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_DOUBLE_EQ(result.latency_seconds, 0.25);
  EXPECT_DOUBLE_EQ(service.metrics().histogram("latency_seconds").max(), 0.25);
}

TEST(ServeService, CacheOffCompilesPerRequestCacheOnHitsAfterWarmup) {
  {
    ServiceOptions options;
    options.workers = 1;
    options.enable_cache = false;
    PredictionService service(options);
    service.register_model("sor", small_spec());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(service.submit(stochastic_request("sor", loads_for(2)))
                      .get()
                      .ok());
    }
    EXPECT_EQ(service.metrics().counter("cache_misses").value(), 3u);
    EXPECT_EQ(service.cache().compile_count(), 0u);
  }
  {
    PredictionService service(options_with(1));
    service.register_model("sor", small_spec());
    service.register_model("sor-alias", small_spec());  // same structure
    for (const char* id : {"sor", "sor-alias", "sor", "sor-alias"}) {
      ASSERT_TRUE(
          service.submit(stochastic_request(id, loads_for(2))).get().ok());
    }
    EXPECT_EQ(service.cache().compile_count(), 1u);
    EXPECT_EQ(service.metrics().counter("cache_misses").value(), 1u);
    EXPECT_EQ(service.metrics().counter("cache_hits").value(), 3u);
  }
}

TEST(ServeService, CacheOffMatchesCacheOnBitForBit) {
  // Cache off compiles a fresh program per batch and (fusion needing the
  // cache) runs only 1-lane batches; cache on shares one program across
  // fused lanes. Every mode must serve the same bits either way: the
  // stochastic calculus, point, fixed, precision-target and chunked
  // Monte-Carlo, with duplicates so coalescing runs on both sides.
  const auto make = [](std::size_t i) {
    auto loads = loads_for(2);
    loads[0] = stoch::StochasticValue(0.7 + 0.01 * double(i % 5), 0.1);
    PredictRequest request = stochastic_request("sor", std::move(loads));
    request.seed = 100 + i % 5;
    switch (i / 5) {
      case 0:
        break;
      case 1:
        request.mode = Mode::kPoint;
        break;
      case 2:
        request.mode = Mode::kMonteCarlo;
        request.trials = 600;
        break;
      case 3:
        request.mode = Mode::kMonteCarlo;
        request.trials = 1'500;
        request.precision = 0.05;
        request.precision_relative = true;
        break;
      default:
        request.mode = Mode::kMonteCarlo;
        request.trials = 2'500;  // > mc_chunk_trials: chunked fan-out
        break;
    }
    return request;
  };
  const auto serve_all = [&](bool cache) {
    ServiceOptions options;
    options.workers = 2;
    options.mc_chunk_trials = 1'000;
    options.enable_cache = cache;
    options.start_paused = true;
    PredictionService service(options);
    service.register_model("sor", small_spec());
    std::vector<std::future<PredictResult>> futures;
    for (int copy = 0; copy < 2; ++copy) {
      for (std::size_t i = 0; i < 25; ++i) {
        futures.push_back(service.submit(make(i)));
      }
    }
    service.resume();
    std::vector<PredictResult> results;
    for (auto& f : futures) results.push_back(f.get());
    const auto counted = [&](const char* name) {
      return service.metrics().counter(name).value();
    };
    EXPECT_GT(counted("requests_coalesced"), 0u);
    EXPECT_GT(counted("mc_chunks_executed"), 0u);
    EXPECT_EQ(counted("requests_fused") > 0, cache);
    return results;
  };
  const std::vector<PredictResult> on = serve_all(true);
  const std::vector<PredictResult> off = serve_all(false);
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < on.size(); ++i) {
    ASSERT_TRUE(on[i].ok()) << i << ": " << on[i].error;
    ASSERT_TRUE(off[i].ok()) << i << ": " << off[i].error;
    EXPECT_EQ(on[i].value.mean(), off[i].value.mean()) << i;
    EXPECT_EQ(on[i].value.halfwidth(), off[i].value.halfwidth()) << i;
    EXPECT_EQ(on[i].point, off[i].point) << i;
    EXPECT_EQ(on[i].mc_trials, off[i].mc_trials) << i;
    EXPECT_EQ(on[i].mc_ci_halfwidth, off[i].mc_ci_halfwidth) << i;
    EXPECT_EQ(on[i].precision_met, off[i].precision_met) << i;
  }
}

TEST(ServeService, DrainWaitsForQueueAndWorkers) {
  PredictionService service(options_with(2));
  service.register_model("sor", small_spec());
  std::vector<std::future<PredictResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.submit(stochastic_request("sor", loads_for(2))));
  }
  service.drain();
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  }
}

// The TSan target: concurrent submitters + an epoch publisher + a live
// nws::Service being observed while forecasted from other threads.
TEST(ServeService, ConcurrentSubmittersPublishersAndNwsReaders) {
  nws::ServiceOptions nws_options;
  nws_options.history_capacity = 64;
  nws_options.warmup = 4;
  nws::Service nws_service(nws_options);
  for (int i = 0; i < 16; ++i) {
    nws_service.observe("cpu/a", 0.85);
    nws_service.observe("cpu/b", 0.65);
  }
  NwsBridge bridge(nws_service, {"cpu/a", "cpu/b"});

  ServiceOptions options;
  options.workers = 4;
  options.mc_chunk_trials = 64;
  PredictionService service(options);
  service.register_model("sor", small_spec());
  service.publish_epoch(bridge.publish());

  std::atomic<bool> stop{false};
  // Writer: keeps observing new measurements and publishing epochs.
  std::thread publisher([&] {
    while (!stop.load()) {
      nws_service.observe("cpu/a", 0.85);
      nws_service.observe("cpu/b", 0.65);
      service.publish_epoch(bridge.publish());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Reader: concurrent forecast/history calls against the same service.
  std::thread reader([&] {
    while (!stop.load()) {
      (void)nws_service.forecast("cpu/a");
      (void)nws_service.history_size("cpu/b");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr int kSubmitters = 3;
  constexpr int kPerThread = 30;
  std::vector<std::thread> submitters;
  std::atomic<int> ok{0};
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto request = resource_request("sor", {"cpu/a", "cpu/b"});
        if (i % 5 == 0) {
          request.mode = Mode::kMonteCarlo;
          request.trials = 256;  // forces chunk fan-out
          request.seed = std::uint64_t(t * 1000 + i);
        }
        if (service.submit(std::move(request)).get().ok()) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : submitters) t.join();
  stop.store(true);
  publisher.join();
  reader.join();
  EXPECT_EQ(ok.load(), kSubmitters * kPerThread);
}

}  // namespace
}  // namespace sspred::serve
