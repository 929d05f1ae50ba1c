// ClusterFrontend — the client-facing tier of the multi-node serving
// stack (DESIGN.md §14).
//
// N ServingNode replicas sit behind per-node transports (FaultyLink over
// an in-process call; a deployment swaps in sockets). The frontend owns
// the cluster's routing and health state and gives clients the same
// vocabulary as a single service — predict / publish_epoch /
// report_observation — with availability the single node cannot offer:
//
//   placement  — structure keys consistent-hash onto nodes exactly as
//                the service hashes them onto shards (the same ring
//                construction, reused), and each key gets an R-way
//                replica SET: the primary plus its distinct ring
//                successors, a deterministic failover order every
//                frontend derives identically.
//   failover   — a replica that drops the frame (crash, link drop) is
//                marked failed and the next replica is tried in set
//                order; kDown nodes sink to the back of the order. A
//                queue-full rejection also fails over (the node is
//                healthy — only its backlog is), so an accepted request
//                is lost only when EVERY replica rejects it.
//   health     — Membership fuses heartbeat probes with per-request
//                outcomes into kUp/kSuspect/kDown (membership.hpp).
//   rebalance  — heartbeat acks carry each node's installed epoch
//                version; a node behind the cluster's published version
//                (fresh restart: version 0) gets the epoch re-pushed
//                over the wire and counts one rebalance. Requests are
//                never re-homed — replica sets already are the balanced
//                placement; what rebalances is the STATE a revived node
//                needs to serve its share again.
//   faults     — a FaultPlan keyed by the frontend's request-step
//                counter injects node crash/restart/slowdown and link
//                drop/delay deterministically mid-stream (fault.hpp).
//
// Determinism contract: the frontend stamps every result's request_id
// with its own step counter (node-local ids stay behind the curtain, the
// frontend keeps the mapping for observations). Since evaluation is
// bit-exact wherever it runs, a fixed request stream returns the SAME
// (request_id, value) set with and without mid-stream failovers — only
// the serving node differs. dserve_test.cpp pins exactly this.
//
// Thread safety: predict/report_observation/heartbeat_tick may be called
// from any thread. Fault application (scheduled or injected) and metrics
// rendering serialize on one mutex — a restart swaps a node's service
// registry, which must not race a snapshot.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dserve/fault.hpp"
#include "dserve/membership.hpp"
#include "dserve/node.hpp"
#include "dserve/transport.hpp"
#include "serve/epoch.hpp"
#include "serve/metrics.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"

namespace sspred::dserve {

struct ClusterOptions {
  std::size_t nodes = 3;
  /// Replica-set width R: nodes tried, in ring order, before a request
  /// is lost. Capped at the node count.
  std::size_t replicas = 2;
  /// Virtual nodes per ServingNode on the placement ring.
  std::size_t ring_vnodes = 64;
  /// Configuration of each node's inner PredictionService.
  serve::ServiceOptions node_options;
  // Health tuning (see membership.hpp).
  double ewma_alpha = 0.2;
  double ewma_floor = 0.5;
  std::uint64_t down_after_failures = 2;
  /// Served requests remembered for report_observation forwarding.
  std::size_t observation_capacity = 4096;
  /// Clock handed to every node; null selects the real clock.
  std::shared_ptr<support::Clock> clock;
};

/// A cluster-served prediction: the result (request_id rewritten to the
/// frontend's step counter) plus where and how hard it was to get.
struct ClusterResult {
  serve::PredictResult result;
  std::size_t node = 0;      ///< node that served (or last tried)
  std::size_t attempts = 1;  ///< transport calls spent
};

class ClusterFrontend {
 public:
  explicit ClusterFrontend(ClusterOptions options, FaultPlan plan = {});
  ~ClusterFrontend();

  ClusterFrontend(const ClusterFrontend&) = delete;
  ClusterFrontend& operator=(const ClusterFrontend&) = delete;

  /// Registers `id` on every node (and in the frontend's own table,
  /// which supplies the routing structure key).
  void register_model(const std::string& id, serve::ModelSpec spec);

  /// Serves one request through the replica set, failing over as needed.
  /// Never throws for request-level trouble: an unservable request comes
  /// back as a structured kError/kRejected result, like the service's own
  /// contract. The returned result is complete (a future would model a
  /// remote frontend's pipelining, which the in-process transport — a
  /// synchronous call — cannot overlap anyway).
  [[nodiscard]] ClusterResult predict(serve::PredictRequest request);

  /// Publishes `epoch` as the cluster's bindings epoch and fans it to
  /// every node over the wire. Nodes that miss the fan-out (crashed,
  /// dropped link) are caught up by heartbeat_tick's rebalance.
  void publish_epoch(serve::EpochPtr epoch);
  [[nodiscard]] std::uint64_t epoch_version() const;

  /// Probes every node: updates Membership liveness, and re-publishes
  /// the cluster epoch to any live node whose installed version lags
  /// (counted as rebalances_total). Returns how many nodes were
  /// rebalanced this tick.
  std::size_t heartbeat_tick();

  /// Forwards the observation for a cluster request_id (as returned in
  /// ClusterResult) to the node that served it. False — counted
  /// unmatched — for unknown/evicted ids or a node that lost the state.
  bool report_observation(std::uint64_t request_id, double observed_seconds);

  /// Applies a fault event immediately, outside any plan.
  void inject(const FaultEvent& event);

  /// Cluster metrics JSON: frontend counters plus every node's registry
  /// under "node<k>/..." (nodes' shard children nest as
  /// "node<k>/shard<j>/..."). Serialized against fault application.
  [[nodiscard]] std::string render_metrics_json() const;

  [[nodiscard]] serve::MetricsRegistry& metrics() noexcept {
    return metrics_;
  }
  [[nodiscard]] Membership& membership() noexcept { return membership_; }
  [[nodiscard]] ServingNode& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] std::size_t nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t replicas() const noexcept { return replicas_; }

  /// The failover order predict() uses for `model_id`, primary first.
  [[nodiscard]] std::vector<std::size_t> replica_set(
      const std::string& model_id) const;

 private:
  /// Transport endpoint of one node: call() == hand the node the frame.
  class NodeTransport final : public Transport {
   public:
    explicit NodeTransport(ServingNode& node) : node_(node) {}
    [[nodiscard]] std::optional<std::vector<std::uint8_t>> call(
        const std::vector<std::uint8_t>& frame) override {
      return node_.handle_frame(frame);
    }

   private:
    ServingNode& node_;
  };

  [[nodiscard]] std::uint64_t key_hash_for(const std::string& model_id) const;
  /// Fires every plan event due at `step`. Cheap no-op (one relaxed
  /// load) once the plan is exhausted.
  void apply_due_faults(std::uint64_t step);
  /// Caller holds faults_mutex_.
  void apply_fault(const FaultEvent& event);
  /// Pushes the current epoch to one node; true when the node acked.
  /// Caller holds epoch_mutex_ or otherwise owns a stable epoch snapshot.
  bool push_epoch_to(std::size_t node, const serve::EpochPtr& epoch);
  void remember_mapping(std::uint64_t step, std::size_t node,
                        std::uint64_t node_request_id);

  ClusterOptions options_;
  std::size_t replicas_;
  serve::MetricsRegistry metrics_;
  serve::ModelTable models_;
  serve::ShardRouter ring_;  ///< placement ring over NODES
  Membership membership_;

  std::vector<std::unique_ptr<ServingNode>> nodes_;
  std::vector<std::unique_ptr<NodeTransport>> transports_;
  std::vector<std::unique_ptr<FaultyLink>> links_;

  std::atomic<std::uint64_t> next_step_{1};

  mutable std::mutex faults_mutex_;  ///< plan + injection + metrics render
  FaultPlan plan_;
  std::atomic<std::size_t> plan_remaining_{0};

  mutable std::mutex epoch_mutex_;
  serve::EpochPtr epoch_;
  std::uint64_t epoch_version_ = 0;

  /// step -> (node, node-local request id), FIFO-bounded, for
  /// observation forwarding.
  mutable std::mutex observations_mutex_;
  std::map<std::uint64_t, std::pair<std::size_t, std::uint64_t>> served_;
  std::deque<std::uint64_t> served_order_;

  serve::Counter& requests_total_;
  serve::Counter& requests_ok_;
  serve::Counter& requests_error_;
  serve::Counter& requests_rejected_;
  serve::Counter& failovers_total_;
  serve::Counter& requests_retried_;
  serve::Counter& rebalances_total_;
  serve::Counter& heartbeats_total_;
  serve::Counter& heartbeat_failures_;
  serve::Counter& faults_injected_;
  serve::Counter& epochs_published_;
  serve::Counter& observations_forwarded_;
  serve::Counter& observations_unmatched_;
};

}  // namespace sspred::dserve
