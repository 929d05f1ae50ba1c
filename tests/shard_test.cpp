// Tests for the layered serving stack's new layers (src/serve/):
// ShardRouter (consistent-hash structure routing) and the sharded
// PredictionService — bit-exactness vs the unsharded service, exact
// admission capacity under contention, per-reason rejection
// accounting, epoch pinning under concurrent publishes to all shards,
// shard-labeled metrics aggregation, observation routing, and program-
// cache consistency under model re-registration churn. The concurrency
// tests here run under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "calib/ledger.hpp"
#include "cluster/platform.hpp"
#include "model/fingerprint.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "support/error.hpp"

namespace sspred::serve {
namespace {

ModelSpec family_spec(std::size_t n, std::size_t hosts = 2) {
  ModelSpec spec;
  spec.app = ModelSpec::App::kSor;
  spec.platform = cluster::dedicated_platform(hosts);
  spec.config.n = n;
  spec.config.iterations = 5;
  return spec;
}

std::vector<stoch::StochasticValue> loads_for(std::size_t hosts,
                                              double base = 0.8) {
  std::vector<stoch::StochasticValue> loads;
  for (std::size_t i = 0; i < hosts; ++i) {
    loads.push_back(stoch::StochasticValue(base + 0.05 * double(i), 0.1));
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

// --- ShardRouter -------------------------------------------------------

TEST(ShardRouter, DeterministicAndSpreadsKeys) {
  const ShardRouter router(4);
  std::map<std::size_t, int> per_shard;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "structure-" + std::to_string(i);
    const std::size_t shard = router.route(key);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(shard, router.route(key));  // pure function of the key
    EXPECT_EQ(shard, router.route_hash(model::hash_bytes(key)));
    per_shard[shard]++;
  }
  // 64 vnodes/shard split 1000 keys roughly evenly; no shard may be
  // starved or hog the ring.
  ASSERT_EQ(per_shard.size(), 4u);
  for (const auto& [shard, count] : per_shard) {
    EXPECT_GT(count, 100) << "shard " << shard << " starved";
    EXPECT_LT(count, 500) << "shard " << shard << " overloaded";
  }
}

TEST(ShardRouter, ConsistentHashingMovesFewKeysWhenShardJoins) {
  const ShardRouter four(4);
  const ShardRouter five(5);
  int moved = 0;
  constexpr int kKeys = 2000;
  for (int i = 0; i < kKeys; ++i) {
    const std::uint64_t h =
        model::hash_bytes("structure-" + std::to_string(i));
    const std::size_t before = four.route_hash(h);
    const std::size_t after = five.route_hash(h);
    if (after != before) {
      // A key may only move TO the new shard; surviving shards never
      // trade keys with each other (their caches stay warm).
      EXPECT_EQ(after, 4u);
      ++moved;
    }
  }
  // Expected churn is ~1/5 of the keyspace.
  EXPECT_GT(moved, kKeys / 20);
  EXPECT_LT(moved, kKeys / 2);
}

TEST(ShardRouter, SingleShardShortCircuits) {
  const ShardRouter router(1);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(router.route("k" + std::to_string(i)), 0u);
  }
}

TEST(ShardRouter, ReplicaSetsAreDistinctDeterministicAndPrimaryFirst) {
  const ShardRouter router(5);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "structure-" + std::to_string(i);
    const auto set = router.replica_set(key, 3);
    ASSERT_EQ(set.size(), 3u);
    // The primary is route()'s answer; successors are distinct shards.
    EXPECT_EQ(set.front(), router.route(key));
    const std::set<std::size_t> distinct(set.begin(), set.end());
    EXPECT_EQ(distinct.size(), set.size());
    // Deterministic: every frontend derives the same failover order.
    EXPECT_EQ(set, router.replica_set(key, 3));
    EXPECT_EQ(set, router.replica_set_hash(model::hash_bytes(key), 3));
    // Widening the set keeps the prefix (replica order nests).
    const auto wider = router.replica_set(key, 4);
    ASSERT_EQ(wider.size(), 4u);
    EXPECT_TRUE(std::equal(set.begin(), set.end(), wider.begin()));
  }
  // R caps at the shard count.
  EXPECT_EQ(router.replica_set("k", 99).size(), 5u);
  const ShardRouter one(1);
  EXPECT_EQ(one.replica_set("k", 3), std::vector<std::size_t>{0});
}

// --- Sharded service ---------------------------------------------------

// The tentpole determinism contract: with the same fixed request set,
// per-request results are BIT-exact at any shard count. Four structure
// families interleaved, all three modes (Monte-Carlo both unchunked and
// chunked), fixed seeds.
TEST(ShardedService, ResultsBitExactVsUnsharded) {
  const std::vector<std::size_t> family_n = {120, 160, 200, 240};
  const auto run = [&](std::size_t shards) {
    ServiceOptions options;
    options.shards = shards;
    options.workers = 2;
    PredictionService service(options);
    for (std::size_t f = 0; f < family_n.size(); ++f) {
      service.register_model("fam" + std::to_string(f),
                             family_spec(family_n[f]));
    }
    std::vector<std::future<PredictResult>> futures;
    for (int wave = 0; wave < 6; ++wave) {
      for (std::size_t f = 0; f < family_n.size(); ++f) {
        auto request = stochastic_request(
            "fam" + std::to_string(f),
            loads_for(2, 0.6 + 0.03 * double(wave)));
        request.mode = wave % 3 == 0   ? Mode::kStochastic
                       : wave % 3 == 1 ? Mode::kPoint
                                       : Mode::kMonteCarlo;
        request.trials = wave < 3 ? 512 : 6000;  // unchunked and chunked
        request.seed = 7 + std::uint64_t(wave);
        futures.push_back(service.submit(std::move(request)));
      }
    }
    std::vector<PredictResult> results;
    results.reserve(futures.size());
    for (auto& f : futures) results.push_back(f.get());
    return results;
  };

  const auto unsharded = run(1);
  const auto sharded = run(4);
  ASSERT_EQ(unsharded.size(), sharded.size());
  for (std::size_t i = 0; i < unsharded.size(); ++i) {
    ASSERT_TRUE(unsharded[i].ok()) << unsharded[i].error;
    ASSERT_TRUE(sharded[i].ok()) << sharded[i].error;
    EXPECT_EQ(unsharded[i].value, sharded[i].value) << "request " << i;
    EXPECT_EQ(unsharded[i].point, sharded[i].point) << "request " << i;
  }
}

TEST(ShardedService, StructureAffinityRoutesFamiliesStably) {
  ServiceOptions options;
  options.shards = 4;
  options.workers = 1;
  PredictionService service(options);
  service.register_model("a", family_spec(100));
  service.register_model("a-alias", family_spec(100));  // same structure
  service.register_model("b", family_spec(300));
  // Aliases of one structure land on one shard (that shard's cache and
  // fusion scan own the family).
  EXPECT_EQ(service.shard_of("a"), service.shard_of("a-alias"));
  // Ids encode the owning shard.
  auto result = service.submit(stochastic_request("a", loads_for(2))).get();
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(PredictionService::shard_of_id(result.request_id),
            service.shard_of("a"));
}

TEST(ShardedService, PerReasonRejectionCounters) {
  ServiceOptions options;
  options.shards = 2;
  options.workers = 1;
  options.queue_capacity = 2;
  options.start_paused = true;
  PredictionService service(options);
  service.register_model("m", family_spec(100));
  const std::size_t home = service.shard_of("m");

  // Overflow the routed shard's (paused) queue: capacity admits exactly
  // 2, the rest shed with the queue-full reason.
  std::vector<std::future<PredictResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.submit(stochastic_request("m", loads_for(2))));
  }
  std::size_t queue_full = 0;
  for (auto& f : futures) {
    // Rejections resolve synchronously at submit; admitted requests stay
    // pending behind the paused workers, so ready-now means rejected.
    if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      continue;
    }
    const auto result = f.get();
    EXPECT_EQ(result.status, PredictResult::Status::kRejected);
    EXPECT_NE(result.error.find("queue full"), std::string::npos);
    ++queue_full;
  }
  EXPECT_EQ(queue_full, 4u);
  EXPECT_EQ(service.metrics().counter("rejected_queue_full").value(), 4u);
  EXPECT_EQ(service.metrics().counter("rejected_shard_unavailable").value(),
            0u);
  // The routed shard's local registry carries the same count; the other
  // shard saw nothing.
  EXPECT_EQ(service.shard_metrics(home).counter("rejected_queue_full").value(),
            4u);
  EXPECT_EQ(service.shard_metrics(1 - home)
                .counter("rejected_queue_full")
                .value(),
            0u);

  // Routing-layer shed: mark the family's shard unavailable.
  service.set_shard_available(home, false);
  const auto unavailable =
      service.submit(stochastic_request("m", loads_for(2))).get();
  EXPECT_EQ(unavailable.status, PredictResult::Status::kRejected);
  EXPECT_NE(unavailable.error.find("unavailable"), std::string::npos);
  EXPECT_EQ(service.metrics().counter("rejected_shard_unavailable").value(),
            1u);
  service.set_shard_available(home, true);

  // Totals roll the reasons up.
  EXPECT_EQ(service.metrics().counter("requests_rejected").value(), 5u);
  service.resume();
}

// Admission control under contention: one worker drains while twice as
// many submitters as cores race it, and queue_capacity must bound the
// admitted, not-yet-dequeued backlog (the queue_depth gauge) at every
// moment a submitter looks — not only while the workers are paused.
// Submitters keep going until the worker has served kServed requests,
// so the race lasts however the scheduler treats the worker, or until
// one sees the bound broken (a backlog that outgrows the queue would
// otherwise grow without limit). Distinct loads keep requests from
// coalescing, and alternating stochastic and point mode keeps a fused
// batch from taking the whole backlog. Every future resolves exactly
// once, served or shed as queue full, and the counters account for
// every submission.
TEST(ShardedService, AdmissionCapacityBoundsBacklogUnderContention) {
  const std::size_t submitters =
      2 * std::max(1u, std::thread::hardware_concurrency());
  constexpr std::uint64_t kServed = 2000;
  for (const std::size_t capacity : {1u, 2u, 3u, 64u}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    ServiceOptions options;
    options.workers = 1;
    options.queue_capacity = capacity;
    PredictionService service(options);
    service.register_model("m", family_spec(100));
    ASSERT_TRUE(
        service.submit(stochastic_request("m", loads_for(2))).get().ok());
    const Gauge& depth = service.metrics().gauge("queue_depth");
    const Counter& served = service.metrics().counter("requests_ok");

    struct Tally {
      std::int64_t max_depth = 0;
      std::uint64_t submitted = 0, ok = 0, queue_full = 0;
      std::vector<std::string> unexpected;
      std::vector<std::uint64_t> ids;
      std::vector<std::future<PredictResult>> pending;
      void record(const PredictResult& result) {
        ids.push_back(result.request_id);
        if (result.status == PredictResult::Status::kOk) {
          ++ok;
        } else if (result.status == PredictResult::Status::kRejected &&
                   result.error.find("queue full") != std::string::npos) {
          ++queue_full;
        } else {
          unexpected.push_back(result.error);
        }
      }
    };
    std::vector<Tally> tallies(submitters);
    std::atomic<bool> overshoot{false};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < submitters; ++t) {
      threads.emplace_back([&, t] {
        Tally& tally = tallies[t];
        for (std::size_t i = 0; served.value() < kServed && !overshoot.load();
             ++i) {
          const double k = double(t + submitters * i);
          auto request = stochastic_request("m", loads_for(2, 0.3 + 1e-7 * k));
          request.mode = i % 2 == 0 ? Mode::kStochastic : Mode::kPoint;
          auto future = service.submit(std::move(request));
          ++tally.submitted;
          tally.max_depth = std::max(tally.max_depth, depth.value());
          if (tally.max_depth > static_cast<std::int64_t>(capacity)) {
            overshoot.store(true);
          }
          // Sheds resolve at submit; collecting them now keeps memory flat.
          if (future.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
            tally.record(future.get());
          } else {
            tally.pending.push_back(std::move(future));
          }
        }
      });
    }
    for (auto& t : threads) t.join();

    Tally all;
    std::set<std::uint64_t> ids;
    for (auto& tally : tallies) {
      for (auto& f : tally.pending) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(60)),
                  std::future_status::ready);
        tally.record(f.get());
      }
      all.max_depth = std::max(all.max_depth, tally.max_depth);
      all.submitted += tally.submitted;
      all.ok += tally.ok;
      all.queue_full += tally.queue_full;
      for (const auto& error : tally.unexpected) ADD_FAILURE() << error;
      ids.insert(tally.ids.begin(), tally.ids.end());
    }
    EXPECT_LE(all.max_depth, static_cast<std::int64_t>(capacity));
    EXPECT_EQ(ids.size(), all.submitted);  // one result per request id
    EXPECT_EQ(all.ok + all.queue_full, all.submitted);
    if (!overshoot.load()) {
      EXPECT_GE(all.ok, kServed - 1);  // the race ran its full length
    }

    service.drain();
    auto& m = service.metrics();
    EXPECT_EQ(m.counter("requests_total").value(), all.submitted + 1);
    EXPECT_EQ(m.counter("requests_total").value(),
              m.counter("requests_ok").value() +
                  m.counter("requests_error").value() +
                  m.counter("requests_rejected").value());
    EXPECT_EQ(m.counter("rejected_queue_full").value(), all.queue_full);
    EXPECT_EQ(depth.value(), 0);
  }
}

TEST(ShardedService, StoppedServiceRejectsQueuedWorkWithReason) {
  std::vector<std::future<PredictResult>> futures;
  std::uint64_t stopped_count = 0;
  {
    ServiceOptions options;
    options.shards = 2;
    options.workers = 1;
    options.start_paused = true;
    PredictionService service(options);
    service.register_model("m", family_spec(100));
    for (int i = 0; i < 3; ++i) {
      futures.push_back(service.submit(stochastic_request("m", loads_for(2))));
    }
    stopped_count = service.metrics().counter("rejected_stopped").value();
    EXPECT_EQ(stopped_count, 0u);
  }  // service destroyed with the queue still staged
  for (auto& f : futures) {
    const auto result = f.get();
    EXPECT_EQ(result.status, PredictResult::Status::kRejected);
    EXPECT_EQ(result.error, "service stopped");
  }
}

// Epoch layer under sharding: publishes fan out to every shard, and no
// request — whatever shard it routes to — ever observes bindings from
// two epochs. Four structure families force traffic across shards while
// a publisher races.
TEST(ShardedService, EpochPinningHoldsAcrossShardsUnderConcurrentPublish) {
  constexpr std::uint64_t kEpochs = 60;
  const std::vector<std::size_t> family_n = {120, 160, 200, 240};
  std::vector<ModelSpec> specs;
  for (const std::size_t n : family_n) specs.push_back(family_spec(n));

  const auto loads_for_version = [](std::uint64_t k) {
    const double base = 0.5 + 0.4 * double(k) / double(kEpochs);
    return std::vector<stoch::StochasticValue>{
        stoch::StochasticValue(base, 0.05),
        stoch::StochasticValue(base - 0.1, 0.05)};
  };

  // Reference evaluation per (family, version), outside the service.
  std::vector<std::map<std::uint64_t, stoch::StochasticValue>> expected(
      specs.size());
  for (std::size_t f = 0; f < specs.size(); ++f) {
    const predict::SorStructuralModel direct(specs[f].platform,
                                             specs[f].config,
                                             specs[f].options);
    for (std::uint64_t k = 1; k <= kEpochs; ++k) {
      expected[f].emplace(
          k, direct.predict(direct.make_slot_env(
                 loads_for_version(k), stoch::StochasticValue(1.0))));
    }
  }

  const auto epoch_for = [&](std::uint64_t k) {
    const auto loads = loads_for_version(k);
    return std::make_shared<const BindingsEpoch>(
        k, std::map<std::string, stoch::StochasticValue>{
               {"cpu/a", loads[0]}, {"cpu/b", loads[1]}});
  };

  ServiceOptions options;
  options.shards = 4;
  options.workers = 2;
  PredictionService service(options);
  for (std::size_t f = 0; f < specs.size(); ++f) {
    service.register_model("fam" + std::to_string(f), specs[f]);
  }
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
    submitters.emplace_back([&, t] {
      std::size_t f = static_cast<std::size_t>(t);
      while (!stop.load()) {
        f = (f + 1) % specs.size();
        PredictRequest request;
        request.model_id = "fam" + std::to_string(f);
        request.resources = {"cpu/a", "cpu/b"};
        auto result = service.submit(std::move(request)).get();
        if (!result.ok()) continue;  // rejected under shutdown only
        const auto it = expected[f].find(result.epoch_version);
        if (it == expected[f].end() || result.value != it->second) {
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

TEST(ShardedService, MetricsAggregateAcrossShardLabels) {
  ServiceOptions options;
  options.shards = 4;
  options.workers = 1;
  PredictionService service(options);
  const std::vector<std::size_t> family_n = {120, 160, 200, 240};
  for (std::size_t f = 0; f < family_n.size(); ++f) {
    service.register_model("fam" + std::to_string(f),
                           family_spec(family_n[f]));
  }
  std::vector<std::future<PredictResult>> futures;
  for (int i = 0; i < 40; ++i) {
    futures.push_back(service.submit(stochastic_request(
        "fam" + std::to_string(i % 4), loads_for(2))));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  service.drain();

  // Rolled-up total equals the sum over shard-local registries.
  std::uint64_t across = 0;
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    across += service.shard_metrics(s).counter("requests_total").value();
  }
  EXPECT_EQ(service.metrics().counter("requests_total").value(), 40u);
  EXPECT_EQ(across, 40u);

  // render_json carries both the roll-up and shard-labeled rows with
  // per-shard latency quantiles.
  const std::string json = service.metrics().render_json();
  EXPECT_NE(json.find("\"requests_total\""), std::string::npos);
  EXPECT_NE(json.find("\"shard0/requests_total\""), std::string::npos);
  EXPECT_NE(json.find("\"shard3/latency_seconds\""), std::string::npos);
  bool shard_latency_seen = false;
  for (const auto& sample : service.metrics().snapshot()) {
    if (sample.name.find("/latency_seconds") != std::string::npos &&
        sample.value > 0) {
      shard_latency_seen = true;
    }
  }
  EXPECT_TRUE(shard_latency_seen);
}

TEST(ShardedService, ObservationsRouteToTheOwningShard) {
  ServiceOptions options;
  options.shards = 4;
  options.workers = 1;
  options.ledger = std::make_shared<calib::AccuracyLedger>();
  PredictionService service(options);
  const std::vector<std::size_t> family_n = {120, 160, 200, 240};
  for (std::size_t f = 0; f < family_n.size(); ++f) {
    service.register_model("fam" + std::to_string(f),
                           family_spec(family_n[f]));
  }
  std::vector<std::future<PredictResult>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(service.submit(stochastic_request(
        "fam" + std::to_string(i % 4), loads_for(2))));
  }
  for (auto& f : futures) {
    const auto result = f.get();
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_TRUE(service.report_observation(result.request_id,
                                           result.point * 1.01));
    // A second report of the same id is unmatched (already consumed).
    EXPECT_FALSE(service.report_observation(result.request_id, 1.0));
  }
  EXPECT_EQ(service.metrics().counter("observations_recorded").value(), 16u);
  EXPECT_EQ(service.metrics().counter("observations_unmatched").value(), 16u);
  // An id encoding a nonexistent shard is rejected without touching any
  // shard's FIFO.
  EXPECT_FALSE(service.report_observation(0xff, 1.0));
  EXPECT_EQ(options.ledger->model_ids().size(), 4u);
}

// Program-cache consistency under model churn: an id re-registered to a
// NEW structure mid-flight must never be served a program compiled for
// the OLD structure key (the immutable ModelTable::Entry snapshot plus
// the single-flight cache guarantee spec/key agreement). Every kOk
// result must bit-match one of the two structures' reference values.
TEST(ShardedService, ProgramCacheNeverServesStaleStructureUnderChurn) {
  const ModelSpec spec_a = family_spec(120);
  const ModelSpec spec_b = family_spec(240);
  const auto loads = loads_for(2);

  const auto reference = [&](const ModelSpec& spec) {
    const predict::SorStructuralModel direct(spec.platform, spec.config,
                                             spec.options);
    return direct.predict(
        direct.make_slot_env(loads, stoch::StochasticValue(1.0)));
  };
  const stoch::StochasticValue expect_a = reference(spec_a);
  const stoch::StochasticValue expect_b = reference(spec_b);
  ASSERT_NE(expect_a, expect_b);

  ServiceOptions options;
  options.shards = 2;
  options.workers = 2;
  PredictionService service(options);
  service.register_model("churn", spec_a);

  std::atomic<bool> stop{false};
  std::thread churner([&] {
    for (int i = 0; i < 200; ++i) {
      service.register_model("churn", i % 2 == 0 ? spec_b : spec_a);
      std::this_thread::yield();
    }
    stop.store(true);
  });

  std::atomic<int> checked{0};
  std::atomic<bool> wrong_value{false};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&] {
      while (!stop.load()) {
        const auto result =
            service.submit(stochastic_request("churn", loads)).get();
        if (!result.ok()) continue;
        if (result.value != expect_a && result.value != expect_b) {
          wrong_value.store(true);
        }
        checked.fetch_add(1);
      }
    });
  }
  churner.join();
  for (auto& t : submitters) t.join();
  EXPECT_FALSE(wrong_value.load());
  EXPECT_GT(checked.load(), 0);
  // Both structures were compiled at most once per shard that served
  // them: churn re-keys lookups, it never recompiles a cached structure.
  std::uint64_t compiles = 0;
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    compiles += service.cache(s).compile_count();
  }
  EXPECT_LE(compiles, 2u * service.shard_count());
  EXPECT_GE(compiles, 1u);
}

}  // namespace
}  // namespace sspred::serve
