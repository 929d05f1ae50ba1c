#include "serve/service.hpp"

#include "model/fingerprint.hpp"
#include "support/error.hpp"

namespace sspred::serve {

PredictionService::PredictionService(ServiceOptions options)
    : options_(options),
      clock_(options.clock ? options.clock : support::real_clock()),
      router_(options.shards, options.router_vnodes),
      epochs_published_(metrics_.counter("epochs_published")),
      observations_unmatched_(metrics_.counter("observations_unmatched")) {
  SSPRED_REQUIRE(options_.shards >= 1 && options_.shards <= kMaxShards,
                 "service needs 1.." + std::to_string(kMaxShards) +
                     " shards");
  SSPRED_REQUIRE(options_.queue_capacity >= 1,
                 "service needs queue capacity >= 1");
  if (options_.enable_learning) {
    // Node-local learn state: filled into OUR options copy only, so a
    // caller holding the original options (e.g. a dserve node that will
    // restart() us) keeps its nulls and a replacement service starts
    // from a blank bank, re-converging from fresh observations.
    if (!options_.bank) {
      options_.bank = std::make_shared<learn::PredictorBank>();
    }
    if (!options_.arbiter) {
      options_.arbiter = std::make_shared<learn::Arbiter>();
    }
    metrics_.add_child("learn", &learn_metrics_);
  }
  shards_.reserve(options_.shards);
  available_ = std::make_unique<std::atomic<bool>[]>(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<PredictionShard>(
        s, options_, clock_, models_, metrics_, learn_metrics_));
    available_[s].store(true, std::memory_order_relaxed);
  }
  if (options_.shards > 1) {
    // With one shard the rolled-up registry IS the shard's story; the
    // per-shard breakdown only earns its render space beyond that.
    for (std::size_t s = 0; s < options_.shards; ++s) {
      metrics_.add_child("shard" + std::to_string(s),
                         &shards_[s]->metrics());
    }
  }
}

PredictionService::~PredictionService() {
  shards_.clear();  // joins every worker; shard registries die with them
  metrics_.clear_children();
}

void PredictionService::register_model(const std::string& id, ModelSpec spec) {
  models_.insert(id, std::move(spec));
}

std::vector<std::string> PredictionService::model_ids() const {
  return models_.ids();
}

std::size_t PredictionService::shard_of(const std::string& model_id) const {
  const ModelTable::EntryPtr entry = models_.find(model_id);
  return entry ? router_.route_hash(entry->key_hash)
               : router_.route(model_id);
}

std::future<PredictResult> PredictionService::submit(PredictRequest request) {
  PredictionShard::Job job;
  job.request = std::move(request);
  // Submit-time registration stamp: gives the router the structure key's
  // hash and the shard's fusion scan a table-free equality proof. Null
  // (unknown id) routes by id text — deterministically, so the shard
  // that reports the structured error is stable too.
  job.model = models_.find(job.request.model_id);
  job.enqueue_time = clock_->now();
  const std::size_t shard = job.model
                                ? router_.route_hash(job.model->key_hash)
                                : router_.route(job.request.model_id);
  job.id = (next_seq_.fetch_add(1, std::memory_order_relaxed) << kShardBits) |
           shard;
  auto future = job.promise.get_future();
  if (available_[shard].load(std::memory_order_acquire)) {
    shards_[shard]->submit(std::move(job));
  } else {
    shards_[shard]->reject_unavailable(std::move(job));
  }
  return future;
}

void PredictionService::publish_epoch(EpochPtr epoch) {
  {
    const std::lock_guard lock(epoch_mutex_);
    epoch_ = epoch;
  }
  // Fan out in shard order. A publish concurrent with submissions is
  // naturally racy per shard (a request admitted "around" the publish
  // pins either the old or the new epoch — never a mix: each job pins
  // exactly one immutable snapshot at its shard's admission).
  for (auto& shard : shards_) shard->publish_epoch(epoch);
  epochs_published_.increment();
}

EpochPtr PredictionService::current_epoch() const {
  const std::lock_guard lock(epoch_mutex_);
  return epoch_;
}

void PredictionService::pause() {
  for (auto& shard : shards_) shard->pause();
}

void PredictionService::resume() {
  for (auto& shard : shards_) shard->resume();
}

void PredictionService::drain() {
  for (auto& shard : shards_) shard->drain();
}

bool PredictionService::report_observation(std::uint64_t request_id,
                                           double observed_seconds) {
  const std::size_t shard = shard_of_id(request_id);
  if (shard >= shards_.size()) {
    observations_unmatched_.increment();
    return false;
  }
  return shards_[shard]->report_observation(request_id, observed_seconds);
}

ProgramCache& PredictionService::cache(std::size_t shard) {
  SSPRED_REQUIRE(shard < shards_.size(), "shard index out of range");
  return shards_[shard]->cache();
}

MetricsRegistry& PredictionService::shard_metrics(std::size_t shard) {
  SSPRED_REQUIRE(shard < shards_.size(), "shard index out of range");
  return shards_[shard]->metrics();
}

void PredictionService::set_shard_available(std::size_t shard,
                                            bool available) {
  SSPRED_REQUIRE(shard < shards_.size(), "shard index out of range");
  available_[shard].store(available, std::memory_order_release);
}

}  // namespace sspred::serve
