// PredictionShard — one self-contained execution engine of the serving
// stack, plus the model table every shard reads.
//
// The layered decomposition (DESIGN.md §13): the facade
// (service.hpp) owns a ShardRouter and S PredictionShards; each shard
// owns the full per-request machinery the old monolith had — a
// bounded admission queue under the shard lock, a worker pool, a
// structure-keyed ProgramCache, dequeue-time coalescing/fusion,
// Monte-Carlo chunk fan-out, its own bindings-epoch pin and
// completed-prediction FIFO — over a *structure-affine* slice of the
// request stream: consistent-hash routing sends every request for one
// model structure to one shard, so a shard's fusion scan only ever sees
// requests that can actually fuse, and its program cache holds exactly
// the structures it serves.
//
// Determinism: a shard processes its slice exactly as the unsharded
// service processed the whole stream (same scan, same kernels, same
// chunk seeding), and routing is a pure function of the structure key —
// so for a fixed request set, per-request results are bit-exact at any
// shard count.
//
// Metrics are dual-written: every instrument bumps both the service-wide
// registry (rolled-up totals, the names tests and dashboards already
// know) and the shard's own registry (attached to the global one as
// "shard<k>/..." when there is more than one shard).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "calib/ledger.hpp"
#include "learn/arbiter.hpp"
#include "learn/bank.hpp"
#include "serve/epoch.hpp"
#include "serve/metrics.hpp"
#include "serve/program_cache.hpp"
#include "serve/request.hpp"
#include "support/clock.hpp"
#include "support/rng.hpp"

namespace sspred::serve {

/// Serving-stack configuration. Worker/queue sizes are PER SHARD: a
/// service with shards=4, workers=2 runs 8 workers and admits up to
/// 4 * queue_capacity requests. Defined here (the lowest layer that
/// consumes it); service.hpp re-exports it to API users.
struct ServiceOptions {
  std::size_t shards = 1;  ///< prediction shards (structure-affine slices)
  std::size_t workers = 4;  ///< worker threads per shard
  /// Admitted, not-yet-dequeued requests per shard: a submit that finds
  /// this many waiting is shed as "queue full". The bound holds while
  /// workers run as well as while they are paused.
  std::size_t queue_capacity = 1024;
  /// Virtual nodes per shard on the routing ring (see router.hpp).
  std::size_t router_vnodes = 64;
  /// Share compiled programs across requests/ids (the program cache).
  /// Off: every request compiles its model from scratch (bench baseline).
  bool enable_cache = true;
  /// Coalesce identical queued (model, epoch, bindings) requests into one
  /// evaluation at dequeue time.
  bool enable_coalescing = true;
  /// Fuse queued structure-equal requests with *distinct* bindings into the
  /// lanes of one request-major kernel sweep at dequeue time (bit-exact per
  /// request; see the fused entry points in model/ir.hpp). Off, every
  /// batch has one lane. Needs the program cache (fusion shares one
  /// compiled program across lanes), so enable_cache off disables it too.
  /// Like coalescing and max_batch, it only shapes batch formation: every
  /// batch runs through the same executor.
  bool enable_fusion = true;
  std::size_t max_batch = 64;  ///< coalesced/fused requests per evaluation
  /// Monte-Carlo requests with more trials than this are split into
  /// chunks executed across the shard's pool (when workers > 1).
  std::size_t mc_chunk_trials = 2048;
  /// Time source for latency metrics; null selects support::real_clock().
  std::shared_ptr<support::Clock> clock;
  /// Accuracy ledger fed by report_observation(); null disables the
  /// predict→observe feedback loop (see calib/ledger.hpp).
  std::shared_ptr<calib::AccuracyLedger> ledger;
  /// Completed predictions kept per shard (FIFO) awaiting their
  /// observation; a report arriving after eviction counts as unmatched.
  std::size_t observation_capacity = 4096;
  /// Graybox learned predictors (learn/): when true, every successful
  /// prediction also consults the predictor bank and the arbiter may
  /// swap the served value to the learned or blended candidate; every
  /// reported observation trains the bank and scores the candidates.
  /// With `bank`/`arbiter` left null the service constructs its own
  /// node-local instances — deliberately NOT stored back into a caller's
  /// options, so a restarted node starts from a blank bank and
  /// re-converges from fresh observations.
  bool enable_learning = false;
  std::shared_ptr<learn::PredictorBank> bank;
  std::shared_ptr<learn::Arbiter> arbiter;
  /// Top of the latency histogram range, seconds.
  double latency_range_seconds = 1.0;
  /// Construct with workers blocked; resume() starts processing. Lets
  /// tests (and benchmarks) stage a queue deterministically.
  bool start_paused = false;
};

/// Registered models, shared (read-mostly) by the facade and every
/// shard. Entries are immutable snapshots behind shared_ptr: a request
/// resolves its model to one Entry and can never observe a spec and a
/// structure key from two different registrations — the property the
/// program cache's stale-key guard rests on. The structure key and its
/// 64-bit routing hash are stamped once at registration, so neither the
/// submit path nor the cache ever re-serializes a spec.
class ModelTable {
 public:
  struct Entry {
    ModelSpec spec;
    std::string structure_key;
    std::uint64_t key_hash = 0;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  /// Registers (or replaces) an id. Ids are aliases: two ids with
  /// structurally identical specs share one cached program.
  void insert(const std::string& id, ModelSpec spec);

  /// Current registration of `id`; null when unknown.
  [[nodiscard]] EntryPtr find(const std::string& id) const;

  [[nodiscard]] std::vector<std::string> ids() const;

  /// Throws the structured unknown-model error for `id`.
  [[noreturn]] void throw_unknown(const std::string& id) const;

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::string, EntryPtr> models_;
};

class PredictionShard {
 public:
  /// One external request owned by the stack. The facade stamps id,
  /// enqueue_time and the submit-time model entry (null: unknown id —
  /// fuses only with its own id; its 1-lane run reports the structured
  /// error); the shard pins the bindings epoch at admission.
  struct Job {
    PredictRequest request;
    std::promise<PredictResult> promise;
    EpochPtr epoch;
    ModelTable::EntryPtr model;  ///< submit-time registration snapshot
    std::uint64_t id = 0;
    double enqueue_time = 0.0;
  };

  /// `global` is the service-wide registry every instrument dual-writes;
  /// `learn_global` is the service's learn/ subtree registry the learning
  /// instruments dual-write instead of `global`. `models` and all three
  /// referenced registries must outlive the shard.
  PredictionShard(std::size_t index, const ServiceOptions& options,
                  std::shared_ptr<support::Clock> clock,
                  const ModelTable& models, MetricsRegistry& global,
                  MetricsRegistry& learn_global);
  ~PredictionShard();

  PredictionShard(const PredictionShard&) = delete;
  PredictionShard& operator=(const PredictionShard&) = delete;

  /// Admits `job` (pinning the shard's current epoch) or sheds it with a
  /// per-reason rejection count; the job's promise is always resolved.
  /// Capacity check and enqueue happen under the shard lock, so
  /// queue_capacity is exact.
  void submit(Job job);

  /// Routing-layer shed: accounts the job against this shard
  /// (rejected_shard_unavailable) and resolves its promise.
  void reject_unavailable(Job job);

  /// Installs `epoch` for subsequently admitted requests; requests
  /// already admitted keep the epoch they were pinned with.
  void publish_epoch(EpochPtr epoch);
  [[nodiscard]] EpochPtr current_epoch() const;

  void pause();
  void resume();
  /// Blocks until the shard's queues are empty and every worker is idle.
  void drain();

  /// Feeds the configured ledger with the observation for `request_id`
  /// (an id routed to this shard); see service.hpp.
  bool report_observation(std::uint64_t request_id, double observed_seconds);

  [[nodiscard]] ProgramCache& cache() noexcept { return cache_; }
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return local_; }
  [[nodiscard]] std::size_t index() const noexcept { return index_; }

 private:
  // Dual instruments: one bump updates the rolled-up service-wide
  // instrument and the shard-local one. Both sides are lock-free.
  struct DualCounter {
    Counter& global;
    Counter& local;
    void increment(std::uint64_t by = 1) noexcept {
      global.increment(by);
      local.increment(by);
    }
  };
  struct DualGauge {
    Gauge& global;
    Gauge& local;
    // Deltas, not set(): S shards share the global gauge.
    void add(std::int64_t by) noexcept {
      global.add(by);
      local.add(by);
    }
  };
  struct DualHistogram {
    LatencyHistogram& global;
    LatencyHistogram& local;
    void observe(double v) noexcept {
      global.observe(v);
      local.observe(v);
    }
  };

  /// A promise awaiting resolution, tagged with its request id.
  struct Pending {
    std::uint64_t id = 0;
    std::promise<PredictResult> promise;
  };

  /// One lane of a batch: a distinct-bindings request plus the promises
  /// of identical requests coalesced onto it (those fan the lane's single
  /// result out).
  struct Lane {
    Job job;
    std::vector<Pending> extra;
  };

  /// Learning payload of one successful evaluation: the candidate values
  /// and feature vector carried from execute time to report_observation
  /// (where the bank trains and the arbiter scores). Inactive (and
  /// empty) when learning is disabled.
  struct LearnOverlay {
    bool active = false;
    std::string structure_key;
    std::vector<double> features;
    stoch::StochasticValue structural;  ///< candidate the model computed
    stoch::StochasticValue learned;     ///< bank candidate (has_learned)
    bool has_learned = false;
  };

  /// Shared state of one fanned-out Monte-Carlo evaluation.
  struct McShared {
    explicit McShared(CompiledModelPtr m)
        : model(std::move(m)), env(model->program().make_environment()) {}

    CompiledModelPtr model;
    /// Bound once at fan-out; chunks only read it, so they share it.
    model::ir::SlotEnvironment env;
    std::string model_id;
    std::string structure_key;     ///< bank training key (learning only)
    std::vector<double> features;  ///< learning only
    std::uint64_t seed = 0;
    std::size_t total_trials = 0;
    std::uint64_t epoch_version = 0;
    double enqueue_time = 0.0;
    std::vector<Pending> promises;  ///< whole batch

    std::mutex m;
    /// Per-chunk (sum, sum of squares); combined in index order at the
    /// end so the result is independent of worker scheduling.
    std::vector<std::pair<double, double>> partials;
    std::size_t remaining = 0;
  };

  /// One queued Monte-Carlo chunk (internal; not admission-controlled).
  struct McChunk {
    std::shared_ptr<McShared> shared;
    std::size_t index = 0;
    std::size_t trials = 0;
  };

  /// Per-worker evaluation pools, reused across batches so the warm hot
  /// path is allocation-free.
  struct WorkerState {
    model::ir::EvalWorkspace ws;
    model::ir::LaneEnvironment env;
    std::vector<stoch::StochasticValue> loads;  ///< one lane's bindings
    std::vector<stoch::StochasticValue> values;
    std::vector<double> points;
    std::vector<support::Rng> rngs;
    std::vector<stats::StopRule> rules;
    std::vector<model::ir::AdaptiveResult> adaptive;
    std::vector<std::vector<double>> features;  ///< learning only
  };

  void worker_loop();
  /// The shard's one executor: runs `lanes` (1..max_batch, pairwise
  /// fusable) as one batch — resolve the program once, bind every lane,
  /// make one fused IR call for the mode, fan each lane's result out to
  /// its promises. A multi-lane batch that cannot be served as one sweep
  /// (model churn, a binding error, an evaluation throw) re-runs each lane
  /// as its own 1-lane batch, so every request gets its solo result or
  /// error. Fixed-count Monte-Carlo above mc_chunk_trials (always a 1-lane
  /// batch) is handed to fan_out_chunks instead.
  void execute(std::span<Lane> lanes, WorkerState& state);
  /// Binds the chunked request once into a shared environment and queues
  /// its chunks; the last chunk to finish resolves the lane's promises.
  void fan_out_chunks(Lane& lane, const CompiledModelPtr& model,
                      const ModelTable::Entry& entry, WorkerState& state);
  void execute_chunk(const McChunk& chunk, WorkerState& state);
  /// The request's sequential stop rule: precision target + relative flag,
  /// `min_trials` floor, `trials` as the max clamp (a fixed rule when no
  /// target is set).
  [[nodiscard]] static stats::StopRule stop_rule_for(
      const PredictRequest& request);
  /// Observes the executed-trials histogram and, for precision targets,
  /// the trials-saved counter (clamp minus executed). Once per evaluation.
  void record_mc(const PredictRequest& request, std::size_t executed);
  /// The program of a registration snapshot: the cache's (one hit or miss
  /// per call) or, with the cache off, a fresh compile.
  [[nodiscard]] CompiledModelPtr resolve_program(
      const ModelTable::Entry& entry);
  /// True when the learned-predictor overlay participates in serving.
  [[nodiscard]] bool learning_active() const noexcept {
    return options_.enable_learning && options_.bank && options_.arbiter;
  }
  /// Consults the bank/arbiter for a successful evaluation whose
  /// structural result is already in `base.value`: fills the rest of
  /// `overlay` (whose `features` the caller extracted), may swap
  /// base.value/point to the learned or blended candidate, and stamps
  /// base.source. No-op when learning is inactive.
  void apply_learning(const std::string& structure_key,
                      const std::string& model_id, PredictResult& base,
                      LearnOverlay& overlay);
  /// Resolves load/bandwidth bindings against the job's epoch; throws
  /// support::Error with a structured message on any mismatch.
  void resolve_bindings(const Job& job, const CompiledModel& model,
                        std::vector<stoch::StochasticValue>& loads,
                        stoch::StochasticValue& bwavail) const;
  /// The lane's promises, request first, counted once into batch_size
  /// and requests_coalesced.
  [[nodiscard]] std::vector<Pending> take_promises(Lane& lane);
  /// Stamps `lane`'s epoch and batch size and fulfills its promises with
  /// `base`.
  void finish_lane(Lane& lane, PredictResult base, LearnOverlay overlay);
  /// Fulfills the batch's promises with `base` (per-promise request id);
  /// successful results are remembered for report_observation().
  void finish_batch(std::vector<Pending>& promises, PredictResult base,
                    double enqueue_time, const std::string& model_id,
                    LearnOverlay overlay);
  /// Remembers a completed prediction until its observation arrives
  /// (bounded FIFO; no-op without a ledger or learning).
  void remember_prediction(std::uint64_t request_id,
                           const std::string& model_id,
                           const stoch::StochasticValue& value,
                           const LearnOverlay& overlay);
  [[nodiscard]] bool coalescable(const Job& a, const Job& b) const;
  /// Whether two non-identical jobs can share one fused sweep: same mode
  /// and epoch version, same compiled structure (same model id or equal
  /// submit-time structure stamps), and for Monte-Carlo the same
  /// unchunked trial count (chunked requests keep the fan-out path).
  [[nodiscard]] bool fusable(const Job& a, const Job& b) const;
  /// Rejects `job` with `reason` text, bumping `why` (and the rolled-up
  /// rejection counters).
  void reject(Job&& job, DualCounter& why, std::string reason);
  [[nodiscard]] bool has_work() const;
  [[nodiscard]] double now() const noexcept { return clock_->now(); }

  std::size_t index_;
  ServiceOptions options_;
  std::shared_ptr<support::Clock> clock_;
  const ModelTable& models_;
  MetricsRegistry local_;  ///< shard-scoped registry (metrics())
  ProgramCache cache_;

  // --- Admission queue and worker-side state (guarded by mutex_) ------
  mutable std::mutex mutex_;
  std::condition_variable cv_;       ///< work available / state change
  std::condition_variable idle_cv_;  ///< queues empty + workers idle
  /// Admitted jobs, oldest first, at most options_.queue_capacity of
  /// them; the dequeue-time coalesce/fuse scan reads it in place.
  std::deque<Job> queue_;
  std::deque<McChunk> chunks_;  ///< internal MC chunks; jump the queue
  bool paused_ = false;
  bool stop_ = false;
  std::size_t busy_ = 0;

  mutable std::mutex epoch_mutex_;  ///< sharded: one per shard
  EpochPtr epoch_;

  /// Completed predictions awaiting report_observation(), FIFO-bounded
  /// by options_.observation_capacity.
  struct CompletedPrediction {
    std::string model_id;
    stoch::StochasticValue value;  ///< SERVED value (what the ledger scores)
    LearnOverlay overlay;          ///< training payload (learning only)
  };
  std::mutex observations_mutex_;
  std::map<std::uint64_t, CompletedPrediction> completed_;
  std::deque<std::uint64_t> completed_order_;

  // Dual hot-path instruments (stable addresses inside both registries).
  DualCounter requests_total_;
  DualCounter requests_ok_;
  DualCounter requests_error_;
  DualCounter requests_rejected_;
  DualCounter rejected_queue_full_;
  DualCounter rejected_stopped_;
  DualCounter rejected_shard_unavailable_;
  DualCounter coalesced_;
  DualCounter requests_fused_;
  DualCounter mc_chunks_;
  /// Trials a precision target let the engine skip (request clamp minus
  /// executed count, summed over adaptive evaluations).
  DualCounter mc_trials_saved_;
  /// Local only: the facade counts one service-wide publish, not one
  /// per shard it fanned out to.
  Counter& epochs_published_;
  DualCounter cache_hits_;
  DualCounter cache_misses_;
  DualCounter observations_recorded_;
  DualCounter observations_unmatched_;
  // Learning instruments: the "global" half lives in the service's
  // learn/ subtree registry rather than the rolled-up one.
  DualCounter predictions_served_structural_;
  DualCounter predictions_served_learned_;
  DualCounter predictions_served_blended_;
  DualCounter observations_trained_;
  DualCounter arbiter_flips_;
  DualGauge queue_depth_;
  DualGauge workers_busy_;
  DualHistogram latency_;
  DualHistogram batch_sizes_;
  DualHistogram fused_occupancy_;
  /// Monte-Carlo trials actually executed per evaluation (adaptive stops
  /// show up as mass below the requested clamp).
  DualHistogram mc_trials_;

  std::vector<std::thread> threads_;  ///< last member: joins see all state
};

}  // namespace sspred::serve
