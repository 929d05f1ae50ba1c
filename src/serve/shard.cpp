#include "serve/shard.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "learn/feature.hpp"
#include "model/fingerprint.hpp"
#include "support/error.hpp"

namespace sspred::serve {

namespace {

/// Independent, deterministic RNG seed for Monte-Carlo chunk `index`:
/// fixed (request seed, index) -> fixed stream, whatever worker runs it.
[[nodiscard]] std::uint64_t chunk_seed(std::uint64_t seed,
                                       std::size_t index) noexcept {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  return support::splitmix64(state);
}

}  // namespace

// --- ModelTable --------------------------------------------------------

void ModelTable::insert(const std::string& id, ModelSpec spec) {
  auto entry = std::make_shared<Entry>();
  entry->structure_key = spec.structure_key();  // outside the lock
  entry->key_hash = model::hash_bytes(entry->structure_key);
  entry->spec = std::move(spec);
  const std::unique_lock lock(mutex_);
  models_.insert_or_assign(id, std::move(entry));
}

ModelTable::EntryPtr ModelTable::find(const std::string& id) const {
  const std::shared_lock lock(mutex_);
  const auto it = models_.find(id);
  return it == models_.end() ? nullptr : it->second;
}

std::vector<std::string> ModelTable::ids() const {
  const std::shared_lock lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(models_.size());
  for (const auto& [id, _] : models_) ids.push_back(id);
  return ids;
}

void ModelTable::throw_unknown(const std::string& id) const {
  std::ostringstream msg;
  msg << "unknown model id '" << id << "' (registered:";
  {
    const std::shared_lock lock(mutex_);
    for (const auto& [known, _] : models_) msg << ' ' << known;
  }
  msg << ')';
  throw support::Error(msg.str());
}

// --- PredictionShard ---------------------------------------------------

/// Top of the latency_seconds histogram range; slower requests clamp into
/// its last bucket.
constexpr double kLatencyRangeSeconds = 1.0;

PredictionShard::PredictionShard(std::size_t index,
                                 const ServiceOptions& options,
                                 std::shared_ptr<support::Clock> clock,
                                 const ModelTable& models,
                                 MetricsRegistry& metrics,
                                 MetricsRegistry& learn_metrics)
    : index_(index),
      options_(options),
      clock_(std::move(clock)),
      models_(models),
      requests_total_(metrics.counter("requests_total")),
      requests_ok_(metrics.counter("requests_ok")),
      requests_error_(metrics.counter("requests_error")),
      requests_rejected_(metrics.counter("requests_rejected")),
      rejected_queue_full_(metrics.counter("rejected_queue_full")),
      rejected_stopped_(metrics.counter("rejected_stopped")),
      rejected_shard_unavailable_(
          metrics.counter("rejected_shard_unavailable")),
      coalesced_(metrics.counter("requests_coalesced")),
      requests_fused_(metrics.counter("requests_fused")),
      mc_chunks_(metrics.counter("mc_chunks_executed")),
      mc_trials_saved_(metrics.counter("mc_trials_saved")),
      cache_hits_(metrics.counter("cache_hits")),
      cache_misses_(metrics.counter("cache_misses")),
      observations_recorded_(metrics.counter("observations_recorded")),
      observations_unmatched_(metrics.counter("observations_unmatched")),
      predictions_served_structural_(
          learn_metrics.counter("predictions_served_structural")),
      predictions_served_learned_(
          learn_metrics.counter("predictions_served_learned")),
      predictions_served_blended_(
          learn_metrics.counter("predictions_served_blended")),
      observations_trained_(learn_metrics.counter("observations_trained")),
      arbiter_flips_(learn_metrics.counter("arbiter_flips")),
      queue_depth_(metrics.gauge("queue_depth")),
      workers_busy_(metrics.gauge("workers_busy")),
      latency_(metrics.histogram("latency_seconds", kLatencyRangeSeconds,
                                 512)),
      batch_sizes_(metrics.histogram(
          "batch_size", static_cast<double>(options.max_batch) + 1.0,
          std::max<std::size_t>(options.max_batch, 1))),
      fused_occupancy_(metrics.histogram(
          "fused_batch_occupancy",
          static_cast<double>(options.max_batch) + 1.0,
          std::max<std::size_t>(options.max_batch, 1))),
      mc_trials_(metrics.histogram("mc_trials_executed", 32769.0, 256)) {
  SSPRED_REQUIRE(options_.workers >= 1, "shard needs at least one worker");
  SSPRED_REQUIRE(options_.mc_chunk_trials >= 2,
                 "mc_chunk_trials must be at least 2");
  paused_ = options_.start_paused;
  threads_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

PredictionShard::~PredictionShard() {
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;  // subsequent submits shed as "service stopped"
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();

  // Resolve whatever was still queued so no future is left broken
  // (workers are gone; safe without the lock).
  std::int64_t drained = 0;
  for (auto& job : queue_) {
    ++drained;
    reject(std::move(job), rejected_stopped_, "service stopped");
  }
  queue_.clear();
  queue_depth_.add(-drained);
  for (auto& chunk : chunks_) {
    auto& shared = *chunk.shared;
    const std::lock_guard lock(shared.m);
    if (shared.promises.empty()) continue;
    requests_rejected_.increment(shared.promises.size());
    rejected_stopped_.increment(shared.promises.size());
    PredictResult rejected;
    rejected.status = PredictResult::Status::kRejected;
    rejected.error = "service stopped";
    for (auto& p : shared.promises) {
      rejected.request_id = p.id;
      p.promise.set_value(rejected);
    }
    shared.promises.clear();
  }
  idle_cv_.notify_all();
}

void PredictionShard::reject(Job&& job, Counter& why, std::string reason) {
  requests_rejected_.increment();
  why.increment();
  PredictResult rejected;
  rejected.status = PredictResult::Status::kRejected;
  rejected.error = std::move(reason);
  rejected.request_id = job.id;
  job.promise.set_value(std::move(rejected));
}

void PredictionShard::submit(Job job) {
  requests_total_.increment();
  {
    // The bindings epoch is pinned here, at shard admission: the job
    // holds this one immutable snapshot for its whole life, so no
    // request can ever observe two epochs however publishes interleave.
    const std::lock_guard lock(epoch_mutex_);
    job.epoch = epoch_;
  }
  {
    std::unique_lock lock(mutex_);
    if (stop_) {
      lock.unlock();
      reject(std::move(job), rejected_stopped_, "service stopped");
      return;
    }
    if (queue_.size() >= options_.queue_capacity) {
      lock.unlock();
      reject(std::move(job), rejected_queue_full_,
             "queue full (capacity " +
                 std::to_string(options_.queue_capacity) + ")");
      return;
    }
    queue_.push_back(std::move(job));
    queue_depth_.add(1);
  }
  cv_.notify_one();
}

void PredictionShard::reject_unavailable(Job job) {
  requests_total_.increment();
  reject(std::move(job), rejected_shard_unavailable_,
         "shard " + std::to_string(index_) + " unavailable");
}

void PredictionShard::publish_epoch(EpochPtr epoch) {
  const std::lock_guard lock(epoch_mutex_);
  epoch_ = std::move(epoch);
}

EpochPtr PredictionShard::current_epoch() const {
  const std::lock_guard lock(epoch_mutex_);
  return epoch_;
}

void PredictionShard::pause() {
  const std::lock_guard lock(mutex_);
  paused_ = true;
}

void PredictionShard::resume() {
  {
    const std::lock_guard lock(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

bool PredictionShard::has_work() const {
  return !chunks_.empty() || !queue_.empty();
}

void PredictionShard::drain() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [&] { return stop_ || (!has_work() && busy_ == 0); });
}

bool PredictionShard::coalescable(const Job& a, const Job& b) const {
  const auto& ra = a.request;
  const auto& rb = b.request;
  const std::uint64_t ea = a.epoch ? a.epoch->version() : 0;
  const std::uint64_t eb = b.epoch ? b.epoch->version() : 0;
  if (ra.model_id != rb.model_id || ra.mode != rb.mode || ea != eb) {
    return false;
  }
  if (ra.loads != rb.loads || ra.resources != rb.resources ||
      ra.bwavail != rb.bwavail || ra.bwavail_resource != rb.bwavail_resource) {
    return false;
  }
  if (ra.mode == Mode::kMonteCarlo &&
      (ra.trials != rb.trials || ra.seed != rb.seed ||
       ra.precision != rb.precision ||
       ra.precision_relative != rb.precision_relative ||
       ra.min_trials != rb.min_trials)) {
    return false;
  }
  return true;
}

bool PredictionShard::fusable(const Job& a, const Job& b) const {
  const auto& ra = a.request;
  const auto& rb = b.request;
  if (ra.mode != rb.mode) return false;
  const std::uint64_t ea = a.epoch ? a.epoch->version() : 0;
  const std::uint64_t eb = b.epoch ? b.epoch->version() : 0;
  if (ea != eb) return false;
  if (ra.mode == Mode::kMonteCarlo) {
    // Each lane runs its own trial schedule (the adaptive fused sweep
    // legalizes unequal trial counts and mixed fixed-count +
    // precision-target batches; distinct seeds drive per-lane RNG
    // substreams either way). Chunked requests (trials >
    // mc_chunk_trials) keep the fan-out path — for a precision target
    // `trials` is the max clamp, so an oversized clamp runs as a 1-lane
    // batch instead — and sampling needs at least 2 trials.
    if (ra.trials < 2 || ra.trials > options_.mc_chunk_trials) return false;
    if (rb.trials < 2 || rb.trials > options_.mc_chunk_trials) return false;
  }
  if (ra.model_id == rb.model_id) return true;
  // Submit-time registration stamps prove structural equality without
  // touching the model table (unknown ids carry no stamp, never fuse).
  return a.model && b.model &&
         (a.model == b.model ||
          a.model->structure_key == b.model->structure_key);
}

void PredictionShard::worker_loop() {
  WorkerState state;
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || (!paused_ && has_work()); });
    if (stop_) return;

    if (!chunks_.empty()) {
      // Internal Monte-Carlo chunks jump the external queue: they
      // complete requests that were already admitted.
      const McChunk chunk = std::move(chunks_.front());
      chunks_.pop_front();
      ++busy_;
      workers_busy_.add(1);
      lock.unlock();
      execute_chunk(chunk, state);
    } else {
      std::vector<Lane> lanes;
      lanes.push_back(Lane{std::move(queue_.front()), {}});
      queue_.pop_front();
      std::int64_t taken = 1;
      // Dequeue-time grouping. Each queued job first tries to collapse
      // onto ANY open lane with identical bindings (one evaluation, result
      // fanned out) and only then to open a new lane of the fused sweep —
      // so mixed streams of identical and merely structure-equal requests
      // fill lanes instead of starving the fused path. Fusion needs the
      // program cache: the sweep shares one compiled program.
      const bool fuse = options_.enable_fusion && options_.enable_cache;
      if (options_.enable_coalescing || fuse) {
        for (auto it = queue_.begin(); it != queue_.end();) {
          Job& other = *it;
          bool taken_one = false;
          if (options_.enable_coalescing) {
            for (auto& lane : lanes) {
              if (lane.extra.size() + 1 < options_.max_batch &&
                  coalescable(lane.job, other)) {
                lane.extra.push_back(
                    Pending{other.id, std::move(other.promise)});
                taken_one = true;
                break;
              }
            }
          }
          if (!taken_one && fuse && lanes.size() < options_.max_batch &&
              fusable(lanes.front().job, other)) {
            lanes.push_back(Lane{std::move(other), {}});
            taken_one = true;
          }
          if (taken_one) {
            it = queue_.erase(it);
            ++taken;
          } else {
            ++it;
          }
        }
      }
      queue_depth_.add(-taken);
      ++busy_;
      workers_busy_.add(1);
      lock.unlock();
      execute(lanes, state);
    }

    lock.lock();
    --busy_;
    workers_busy_.add(-1);
    if (busy_ == 0 && !has_work()) idle_cv_.notify_all();
  }
}

CompiledModelPtr PredictionShard::resolve_program(
    const ModelTable::Entry& entry) {
  if (options_.enable_cache) {
    const auto lookup = cache_.get_or_compile(entry.spec, entry.structure_key);
    (lookup.hit ? cache_hits_ : cache_misses_).increment();
    return lookup.model;
  }
  cache_misses_.increment();
  return std::make_shared<const CompiledModel>(entry.spec);
}

void PredictionShard::resolve_bindings(
    const Job& job, const CompiledModel& model,
    std::vector<stoch::StochasticValue>& loads,
    stoch::StochasticValue& bwavail) const {
  const auto& request = job.request;
  SSPRED_REQUIRE(request.loads.empty() || request.resources.empty(),
                 "request binds loads both explicitly and by resource name");
  SSPRED_REQUIRE(!request.loads.empty() || !request.resources.empty(),
                 "request binds no loads (set loads or resources)");
  const std::size_t given =
      request.loads.empty() ? request.resources.size() : request.loads.size();
  SSPRED_REQUIRE(given == model.hosts(),
                 "model '" + request.model_id + "' needs " +
                     std::to_string(model.hosts()) + " load bindings, got " +
                     std::to_string(given));
  if (!request.loads.empty()) {
    loads = request.loads;
  } else {
    SSPRED_REQUIRE(job.epoch != nullptr,
                   "request binds loads by resource name but no bindings "
                   "epoch has been published");
    loads.clear();
    for (const auto& resource : request.resources) {
      loads.push_back(job.epoch->lookup(resource));
    }
  }
  if (!request.bwavail_resource.empty()) {
    SSPRED_REQUIRE(job.epoch != nullptr,
                   "request binds bandwidth by resource name but no bindings "
                   "epoch has been published");
    bwavail = job.epoch->lookup(request.bwavail_resource);
  } else {
    bwavail = request.bwavail;
  }
}

void PredictionShard::apply_learning(const std::string& structure_key,
                                     const std::string& model_id,
                                     PredictResult& base,
                                     LearnOverlay& overlay) {
  if (!learning_active()) return;
  overlay.active = true;
  overlay.structure_key = structure_key;
  overlay.structural = base.value;
  const std::optional<learn::LearnedPrediction> learned =
      options_.bank->predict(structure_key, overlay.features);
  learn::Source source = learn::Source::kStructural;
  if (learned.has_value()) {
    overlay.has_learned = true;
    overlay.learned = learned->value;
    source = options_.arbiter->source(model_id);
    switch (source) {
      case learn::Source::kStructural:
        break;
      case learn::Source::kLearned:
        base.value = learned->value;
        break;
      case learn::Source::kBlended:
        base.value = learn::blend(overlay.structural, learned->value,
                                  options_.arbiter->blend_weight(model_id));
        break;
    }
    base.point = base.value.mean();
  }
  base.source = static_cast<std::uint8_t>(source);
}

void PredictionShard::finish_batch(std::vector<Pending>& promises,
                                   PredictResult base, double enqueue_time,
                                   const std::string& model_id,
                                   LearnOverlay overlay) {
  base.latency_seconds = now() - enqueue_time;
  latency_.observe(base.latency_seconds);
  const auto n = static_cast<std::uint64_t>(promises.size());
  const bool ok = base.status == PredictResult::Status::kOk;
  if (ok) {
    requests_ok_.increment(n);
  } else {
    requests_error_.increment(n);
  }
  if (ok && overlay.active) {
    switch (static_cast<learn::Source>(base.source)) {
      case learn::Source::kStructural:
        predictions_served_structural_.increment(n);
        break;
      case learn::Source::kLearned:
        predictions_served_learned_.increment(n);
        break;
      case learn::Source::kBlended:
        predictions_served_blended_.increment(n);
        break;
    }
  }
  for (auto& p : promises) {
    base.request_id = p.id;
    if (ok) remember_prediction(p.id, model_id, base.value, overlay);
    p.promise.set_value(base);
  }
  promises.clear();
}

void PredictionShard::remember_prediction(std::uint64_t request_id,
                                          const std::string& model_id,
                                          const stoch::StochasticValue& value,
                                          const LearnOverlay& overlay) {
  if ((!options_.ledger && !learning_active()) ||
      options_.observation_capacity == 0) {
    return;
  }
  const std::lock_guard lock(observations_mutex_);
  if (completed_
          .emplace(request_id, CompletedPrediction{model_id, value, overlay})
          .second) {
    completed_order_.push_back(request_id);
  }
  // Bounding the FIFO bounds the map too (ids reported meanwhile are
  // already gone from the map and just fall off the deque).
  while (completed_order_.size() > options_.observation_capacity) {
    completed_.erase(completed_order_.front());
    completed_order_.pop_front();
  }
}

bool PredictionShard::report_observation(std::uint64_t request_id,
                                         double observed_seconds) {
  CompletedPrediction prediction;
  {
    const std::lock_guard lock(observations_mutex_);
    const auto it = completed_.find(request_id);
    if (it == completed_.end()) {
      observations_unmatched_.increment();
      return false;
    }
    prediction = std::move(it->second);
    completed_.erase(it);
    // completed_order_ keeps the stale id; eviction skips ids already
    // erased, so the FIFO stays bounded without a linear scan here.
  }
  // The ledger scores the SERVED value — the number a consumer actually
  // acted on, whichever candidate produced it.
  if (options_.ledger) {
    options_.ledger->record(prediction.model_id, prediction.value,
                            observed_seconds);
  }
  // The candidates are scored and the bank trained from the same
  // observation: arbitration first (scoring the prediction the bank made
  // BEFORE seeing this outcome), then the training step.
  if (learning_active() && prediction.overlay.active) {
    const bool flipped = options_.arbiter->record(
        prediction.model_id, prediction.overlay.structural,
        prediction.overlay.has_learned ? &prediction.overlay.learned : nullptr,
        observed_seconds);
    if (flipped) arbiter_flips_.increment();
    options_.bank->observe(prediction.overlay.structure_key,
                           prediction.overlay.features, observed_seconds);
    observations_trained_.increment();
  }
  observations_recorded_.increment();
  return true;
}

void PredictionShard::execute(std::span<Lane> lanes, WorkerState& state) {
  const std::size_t n = lanes.size();
  const PredictRequest& lead = lanes.front().job.request;
  const bool learning = learning_active();
  ModelTable::EntryPtr entry;
  try {
    // 1. Resolve the program once, against the CURRENT registration: an
    // id re-registered between submit and dequeue serves the new
    // structure, and the Entry snapshot guarantees spec and key agree (the
    // cache is never asked for a stale key's program). Submit-time stamps
    // only grouped the lanes, so every lane's id must still map to the
    // lead's structure for the batch to share one program.
    entry = models_.find(lead.model_id);
    if (!entry) models_.throw_unknown(lead.model_id);
    for (const Lane& lane : lanes.subspan(1)) {
      const std::string& id = lane.job.request.model_id;
      if (id == lead.model_id) continue;
      const ModelTable::EntryPtr other = models_.find(id);
      SSPRED_REQUIRE(other && other->structure_key == entry->structure_key,
                     "model '" + id + "' changed structure since submit");
    }
    const CompiledModelPtr model = resolve_program(*entry);
    if (lead.mode == Mode::kMonteCarlo && lead.precision <= 0.0 &&
        lead.trials > options_.mc_chunk_trials) {
      fan_out_chunks(lanes.front(), model, *entry, state);  // never fused
      return;
    }

    // 2. Bind every lane.
    const model::ir::Program& program = model->program();
    state.env.reset(program, n);
    if (learning) state.features.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      stoch::StochasticValue bwavail;
      resolve_bindings(lanes[k].job, *model, state.loads, bwavail);
      for (std::size_t p = 0; p < state.loads.size(); ++p) {
        state.env.bind(k, model->load_slot(p), state.loads[p]);
      }
      if (model->uses_bandwidth()) {
        state.env.bind(k, model->bwavail_slot(), bwavail);
      }
      if (learning) {
        learn::extract_features(state.loads, bwavail, model->uses_bandwidth(),
                                state.features[k]);
      }
    }

    // 3. One IR call for the whole batch.
    switch (lead.mode) {
      case Mode::kStochastic:
        state.values.resize(n);
        program.evaluate_fused(state.env, state.ws, state.values);
        break;
      case Mode::kPoint:
        state.points.resize(n);
        program.evaluate_point_fused(state.env, state.ws, state.points);
        break;
      case Mode::kMonteCarlo:
        // Every lane draws from its own seed under its own stop rule (a
        // fixed count is a fixed rule), so fixed-count and precision
        // lanes of any trial counts share the sweep. Precision targets
        // never chunk: the stop rule needs the single-stream block
        // schedule, and it typically finishes far below any clamp worth
        // chunking. Hitting the clamp with the target unmet is a
        // partial-precision kOk, never an error.
        state.rngs.clear();
        state.rules.clear();
        for (const Lane& lane : lanes) {
          state.rngs.emplace_back(lane.job.request.seed);
          state.rules.push_back(stop_rule_for(lane.job.request));
        }
        state.adaptive.resize(n);
        program.sample_adaptive_fused(state.env, state.rngs, state.rules,
                                      state.ws, state.adaptive);
        break;
    }
  } catch (const std::exception& e) {
    // 4. A batch that cannot be served as one sweep re-runs each lane as
    // its own batch: lanes are bit-exact against their 1-lane runs, so
    // this keeps per-request results and error isolation and only costs
    // the batching win.
    if (n > 1) {
      for (Lane& lane : lanes) execute({&lane, 1}, state);
      return;
    }
    PredictResult failed;
    failed.status = PredictResult::Status::kError;
    failed.error = e.what();
    finish_lane(lanes.front(), std::move(failed), LearnOverlay{});
    return;
  }

  if (n > 1) fused_occupancy_.observe(static_cast<double>(n));
  for (std::size_t k = 0; k < n; ++k) {
    Lane& lane = lanes[k];
    const PredictRequest& request = lane.job.request;
    PredictResult base;
    base.status = PredictResult::Status::kOk;
    switch (request.mode) {
      case Mode::kStochastic:
        base.value = state.values[k];
        base.point = base.value.mean();
        break;
      case Mode::kPoint:
        base.point = state.points[k];
        base.value = stoch::StochasticValue(base.point);
        break;
      case Mode::kMonteCarlo: {
        const model::ir::AdaptiveResult& mc = state.adaptive[k];
        base.value = mc.value;
        base.point = base.value.mean();
        if (request.precision > 0.0) {
          base.mc_trials = mc.trials;
          base.mc_ci_halfwidth = mc.ci_halfwidth;
          base.precision_met = mc.converged;
        } else {
          // The requested count, even when a folded point program drew
          // nothing, and the same derived width as the chunked path.
          base.mc_trials = request.trials;
          base.mc_ci_halfwidth =
              base.value.halfwidth() /
              std::sqrt(static_cast<double>(request.trials));
        }
        record_mc(request, base.mc_trials);
        break;
      }
    }
    LearnOverlay overlay;
    if (learning) {
      overlay.features = std::move(state.features[k]);
      apply_learning(entry->structure_key, request.model_id, base, overlay);
    }
    if (n > 1) requests_fused_.increment(1 + lane.extra.size());
    finish_lane(lane, std::move(base), std::move(overlay));
  }
}

std::vector<PredictionShard::Pending> PredictionShard::take_promises(
    Lane& lane) {
  if (!lane.extra.empty()) coalesced_.increment(lane.extra.size());
  batch_sizes_.observe(static_cast<double>(1 + lane.extra.size()));
  std::vector<Pending> promises;
  promises.reserve(1 + lane.extra.size());
  promises.push_back(Pending{lane.job.id, std::move(lane.job.promise)});
  for (auto& p : lane.extra) promises.push_back(std::move(p));
  return promises;
}

void PredictionShard::finish_lane(Lane& lane, PredictResult base,
                                  LearnOverlay overlay) {
  std::vector<Pending> promises = take_promises(lane);
  base.epoch_version = lane.job.epoch ? lane.job.epoch->version() : 0;
  base.batch_size = promises.size();
  finish_batch(promises, std::move(base), lane.job.enqueue_time,
               lane.job.request.model_id, std::move(overlay));
}

void PredictionShard::fan_out_chunks(Lane& lane, const CompiledModelPtr& model,
                                     const ModelTable::Entry& entry,
                                     WorkerState& state) {
  // Fan the trials out as chunk tasks; the last chunk to finish combines
  // the partials and resolves the whole lane. Chunking is NOT gated on the
  // worker count: per-chunk seeds make the result a pure function of
  // (seed, trials, chunk size), so one worker draining the chunks
  // bit-matches any pool size.
  const PredictRequest& request = lane.job.request;
  auto shared = std::make_shared<McShared>(model);
  stoch::StochasticValue bwavail;
  resolve_bindings(lane.job, *model, state.loads, bwavail);
  for (std::size_t p = 0; p < state.loads.size(); ++p) {
    shared->env.bind(model->load_slot(p), state.loads[p]);
  }
  if (model->uses_bandwidth()) shared->env.bind(model->bwavail_slot(), bwavail);
  if (learning_active()) {
    learn::extract_features(state.loads, bwavail, model->uses_bandwidth(),
                            shared->features);
  }
  shared->model_id = request.model_id;
  shared->structure_key = entry.structure_key;
  shared->seed = request.seed;
  shared->total_trials = request.trials;
  shared->epoch_version = lane.job.epoch ? lane.job.epoch->version() : 0;
  shared->enqueue_time = lane.job.enqueue_time;
  shared->promises = take_promises(lane);
  const std::size_t chunk = options_.mc_chunk_trials;
  const std::size_t chunks = (request.trials + chunk - 1) / chunk;
  shared->partials.resize(chunks);
  shared->remaining = chunks;
  {
    const std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < chunks; ++i) {
      const std::size_t begin = i * chunk;
      chunks_.push_back(
          McChunk{shared, i, std::min(chunk, request.trials - begin)});
    }
  }
  cv_.notify_all();
}

stats::StopRule PredictionShard::stop_rule_for(const PredictRequest& request) {
  stats::StopRule rule;
  rule.target = request.precision;
  rule.relative = request.precision_relative;
  rule.max_trials = request.trials;
  rule.min_trials = std::min(std::max<std::size_t>(request.min_trials, 2),
                             request.trials);
  return rule;
}

void PredictionShard::record_mc(const PredictRequest& request,
                                std::size_t executed) {
  mc_trials_.observe(static_cast<double>(executed));
  if (request.precision > 0.0 && executed < request.trials) {
    mc_trials_saved_.increment(request.trials - executed);
  }
}

void PredictionShard::execute_chunk(const McChunk& chunk, WorkerState& state) {
  auto& shared = *chunk.shared;
  mc_chunks_.increment();

  PredictResult failure;
  double sum = 0.0;
  double sum_sq = 0.0;
  try {
    support::Rng rng(chunk_seed(shared.seed, chunk.index));
    // Whole-block execution on the worker's pooled SoA arenas: after the
    // first chunk of a model's shape, the Monte-Carlo path allocates
    // nothing. Per-chunk seeds plus index-ordered combine keep the result
    // deterministic for a fixed request seed at any worker count.
    state.ws.trial_results.resize(chunk.trials);
    shared.model->program().sample_into(shared.env, rng,
                                        state.ws.trial_results, state.ws);
    for (const double x : state.ws.trial_results) {
      sum += x;
      sum_sq += x * x;
    }
  } catch (const std::exception& e) {
    failure.status = PredictResult::Status::kError;
    failure.error = e.what();
  }

  bool last = false;
  {
    const std::lock_guard lock(shared.m);
    shared.partials[chunk.index] = {sum, sum_sq};
    last = (--shared.remaining == 0);
    if (failure.status == PredictResult::Status::kError &&
        !shared.promises.empty()) {
      // First failing chunk resolves the batch; stragglers see promises
      // already cleared and just finish their arithmetic.
      failure.epoch_version = shared.epoch_version;
      failure.batch_size = shared.promises.size();
      finish_batch(shared.promises, std::move(failure), shared.enqueue_time,
                   shared.model_id, LearnOverlay{});
      return;
    }
  }
  if (!last) return;

  const std::lock_guard lock(shared.m);
  if (shared.promises.empty()) return;  // a failing chunk already resolved it
  double total = 0.0;
  double total_sq = 0.0;
  for (const auto& [s, q] : shared.partials) {
    total += s;
    total_sq += q;
  }
  const auto n = static_cast<double>(shared.total_trials);
  const double mean = total / n;
  const double var =
      std::max(0.0, (total_sq - n * mean * mean) / (n - 1.0));
  PredictResult base;
  base.status = PredictResult::Status::kOk;
  base.value = stoch::StochasticValue::from_mean_sd(mean, std::sqrt(var));
  base.point = mean;
  base.mc_trials = shared.total_trials;
  base.mc_ci_halfwidth = base.value.halfwidth() / std::sqrt(n);
  mc_trials_.observe(n);
  base.epoch_version = shared.epoch_version;
  base.batch_size = shared.promises.size();
  LearnOverlay overlay;
  if (learning_active()) {
    overlay.features = std::move(shared.features);
    apply_learning(shared.structure_key, shared.model_id, base, overlay);
  }
  finish_batch(shared.promises, std::move(base), shared.enqueue_time,
               shared.model_id, std::move(overlay));
}

}  // namespace sspred::serve
