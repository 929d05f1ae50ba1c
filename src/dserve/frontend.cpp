#include "dserve/frontend.hpp"

#include <utility>

#include "model/fingerprint.hpp"
#include "serve/wire.hpp"
#include "support/error.hpp"

namespace sspred::dserve {

namespace {

std::size_t clamp_replicas(const ClusterOptions& options) {
  if (options.nodes == 0) {
    throw support::Error("cluster: need at least one node");
  }
  const std::size_t r = options.replicas == 0 ? 1 : options.replicas;
  return r > options.nodes ? options.nodes : r;
}

/// Strips the 4-byte length prefix off a complete reply frame; null on a
/// frame too short to carry one.
const std::uint8_t* reply_payload(const std::vector<std::uint8_t>& reply,
                                  std::size_t& size) {
  if (reply.size() < 4) return nullptr;
  size = reply.size() - 4;
  return reply.data() + 4;
}

}  // namespace

ClusterFrontend::ClusterFrontend(ClusterOptions options, FaultPlan plan)
    : options_(std::move(options)),
      replicas_(clamp_replicas(options_)),
      ring_(options_.nodes, options_.ring_vnodes),
      membership_(options_.nodes, metrics_, options_.ewma_alpha,
                  options_.ewma_floor, options_.down_after_failures),
      plan_(std::move(plan)),
      requests_total_(metrics_.counter("requests_total")),
      requests_ok_(metrics_.counter("requests_ok")),
      requests_error_(metrics_.counter("requests_error")),
      requests_rejected_(metrics_.counter("requests_rejected")),
      failovers_total_(metrics_.counter("failovers_total")),
      requests_retried_(metrics_.counter("requests_retried")),
      rebalances_total_(metrics_.counter("rebalances_total")),
      heartbeats_total_(metrics_.counter("heartbeats_total")),
      heartbeat_failures_(metrics_.counter("heartbeat_failures")),
      faults_injected_(metrics_.counter("faults_injected")),
      epochs_published_(metrics_.counter("epochs_published")),
      observations_forwarded_(metrics_.counter("observations_forwarded")),
      observations_unmatched_(metrics_.counter("observations_unmatched")) {
  plan_remaining_.store(plan_.remaining(), std::memory_order_relaxed);
  nodes_.reserve(options_.nodes);
  transports_.reserve(options_.nodes);
  links_.reserve(options_.nodes);
  for (std::size_t k = 0; k < options_.nodes; ++k) {
    nodes_.push_back(std::make_unique<ServingNode>(k, options_.node_options,
                                                   options_.clock));
    transports_.push_back(std::make_unique<NodeTransport>(*nodes_.back()));
    links_.push_back(std::make_unique<FaultyLink>(*transports_.back()));
    metrics_.add_child("node" + std::to_string(k), &nodes_.back()->metrics());
  }
}

ClusterFrontend::~ClusterFrontend() {
  metrics_.clear_children();  // before the node registries die
}

void ClusterFrontend::register_model(const std::string& id,
                                     serve::ModelSpec spec) {
  models_.insert(id, spec);
  for (auto& node : nodes_) {
    node->register_model(id, spec);
  }
}

std::uint64_t ClusterFrontend::key_hash_for(
    const std::string& model_id) const {
  const serve::ModelTable::EntryPtr entry = models_.find(model_id);
  // Unknown ids still route deterministically (by id text), so they are
  // answered — with the structured unknown-model error — not dropped.
  return entry ? entry->key_hash : model::hash_bytes(model_id);
}

std::vector<std::size_t> ClusterFrontend::replica_set(
    const std::string& model_id) const {
  return ring_.replica_set_hash(key_hash_for(model_id), replicas_);
}

ClusterResult ClusterFrontend::predict(serve::PredictRequest request) {
  const std::uint64_t step =
      next_step_.fetch_add(1, std::memory_order_relaxed);
  apply_due_faults(step);
  requests_total_.increment();

  const std::vector<std::size_t> set =
      ring_.replica_set_hash(key_hash_for(request.model_id), replicas_);
  // Try live replicas in ring order; kDown ones sink to the back as a
  // last resort (a node the health layer wrote off may have revived).
  std::vector<std::size_t> order;
  order.reserve(set.size());
  for (std::size_t n : set) {
    if (membership_.state(n) != NodeState::kDown) order.push_back(n);
  }
  for (std::size_t n : set) {
    if (membership_.state(n) == NodeState::kDown) order.push_back(n);
  }

  const std::vector<std::uint8_t> frame = serve::encode_request(request, step);

  ClusterResult out;
  out.attempts = 0;
  out.node = order.front();
  std::optional<serve::PredictResult> last_rejection;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t n = order[i];
    ++out.attempts;
    if (out.attempts > 1) requests_retried_.increment();
    out.node = n;
    const auto failover = [&] {
      if (i + 1 < order.size()) failovers_total_.increment();
    };

    const auto reply = links_[n]->call(frame);
    if (!reply) {
      membership_.record_failure(n);
      failover();
      continue;
    }
    serve::DecodedResponse resp;
    std::size_t size = 0;
    const std::uint8_t* payload = reply_payload(*reply, size);
    try {
      if (payload == nullptr) throw support::Error("cluster: short reply");
      resp = serve::decode_response(payload, size);
      if (resp.client_tag != step) {
        throw support::Error("cluster: reply tag mismatch");
      }
    } catch (const support::Error&) {
      // A node talking garbage is as failed as one not talking at all.
      membership_.record_failure(n);
      failover();
      continue;
    }

    membership_.record_success(n);  // it answered — even a rejection
    if (resp.result.status == serve::PredictResult::Status::kRejected) {
      last_rejection = std::move(resp.result);
      failover();
      continue;
    }
    // kOk / kError are authoritative: the request was evaluated (or
    // structurally refused); retrying elsewhere would change nothing.
    if (resp.result.ok()) {
      requests_ok_.increment();
      remember_mapping(step, n, resp.result.request_id);
    } else {
      requests_error_.increment();
    }
    resp.result.request_id = step;
    out.result = std::move(resp.result);
    return out;
  }

  // Every replica dropped or shed the request.
  requests_rejected_.increment();
  if (last_rejection) {
    out.result = std::move(*last_rejection);
  } else {
    out.result.status = serve::PredictResult::Status::kRejected;
    out.result.error = "cluster: no replica available for model '" +
                       request.model_id + "'";
  }
  out.result.request_id = step;
  return out;
}

void ClusterFrontend::publish_epoch(serve::EpochPtr epoch) {
  const std::lock_guard lock(epoch_mutex_);
  epoch_ = std::move(epoch);
  epoch_version_ = epoch_ ? epoch_->version() : 0;
  epochs_published_.increment();
  if (!epoch_) return;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    push_epoch_to(n, epoch_);  // misses are healed by heartbeat rebalance
  }
}

std::uint64_t ClusterFrontend::epoch_version() const {
  const std::lock_guard lock(epoch_mutex_);
  return epoch_version_;
}

bool ClusterFrontend::push_epoch_to(std::size_t node,
                                    const serve::EpochPtr& epoch) {
  serve::EpochFrame frame;
  frame.client_tag = epoch->version();
  frame.version = epoch->version();
  frame.bindings = epoch->values();
  const auto reply = links_[node]->call(serve::encode_epoch_publish(frame));
  if (!reply) {
    membership_.record_failure(node);
    return false;
  }
  std::size_t size = 0;
  const std::uint8_t* payload = reply_payload(*reply, size);
  try {
    if (payload == nullptr) throw support::Error("cluster: short reply");
    const serve::EpochAck ack = serve::decode_epoch_ack(payload, size);
    membership_.set_epoch_version(node, ack.version);
    return ack.version == epoch->version();
  } catch (const support::Error&) {
    membership_.record_failure(node);
    return false;
  }
}

std::size_t ClusterFrontend::heartbeat_tick() {
  serve::EpochPtr epoch;
  std::uint64_t version = 0;
  {
    const std::lock_guard lock(epoch_mutex_);
    epoch = epoch_;
    version = epoch_version_;
  }
  std::size_t rebalanced = 0;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    heartbeats_total_.increment();
    const auto reply = links_[n]->call(serve::encode_heartbeat(n + 1));
    serve::HeartbeatAck ack;
    bool alive = false;
    if (reply) {
      std::size_t size = 0;
      const std::uint8_t* payload = reply_payload(*reply, size);
      try {
        if (payload == nullptr) throw support::Error("cluster: short reply");
        ack = serve::decode_heartbeat_ack(payload, size);
        alive = true;
      } catch (const support::Error&) {
      }
    }
    if (!alive) {
      heartbeat_failures_.increment();
      membership_.heartbeat_missed(n);
      continue;
    }
    membership_.heartbeat_ok(n, ack.epoch_version);
    // Epoch skew: the node is alive but serving off an older (or no)
    // bindings snapshot — a fresh restart reports version 0. Re-push the
    // cluster epoch; that is the rebalance.
    if (epoch && ack.epoch_version < version) {
      if (push_epoch_to(n, epoch)) {
        rebalances_total_.increment();
        ++rebalanced;
      }
    }
  }
  return rebalanced;
}

bool ClusterFrontend::report_observation(std::uint64_t request_id,
                                         double observed_seconds) {
  std::size_t node = 0;
  std::uint64_t node_request_id = 0;
  {
    const std::lock_guard lock(observations_mutex_);
    const auto it = served_.find(request_id);
    if (it == served_.end()) {
      observations_unmatched_.increment();
      return false;
    }
    node = it->second.first;
    node_request_id = it->second.second;
    served_.erase(it);
  }
  const bool recorded =
      nodes_[node]->report_observation(node_request_id, observed_seconds);
  (recorded ? observations_forwarded_ : observations_unmatched_).increment();
  return recorded;
}

void ClusterFrontend::remember_mapping(std::uint64_t step, std::size_t node,
                                       std::uint64_t node_request_id) {
  const std::lock_guard lock(observations_mutex_);
  served_[step] = {node, node_request_id};
  served_order_.push_back(step);
  while (served_order_.size() > options_.observation_capacity) {
    served_.erase(served_order_.front());
    served_order_.pop_front();
  }
}

void ClusterFrontend::apply_due_faults(std::uint64_t step) {
  if (plan_remaining_.load(std::memory_order_relaxed) == 0) return;
  const std::lock_guard lock(faults_mutex_);
  for (const FaultEvent& event : plan_.take_due(step)) {
    apply_fault(event);
  }
  plan_remaining_.store(plan_.remaining(), std::memory_order_relaxed);
}

void ClusterFrontend::inject(const FaultEvent& event) {
  const std::lock_guard lock(faults_mutex_);
  apply_fault(event);
}

void ClusterFrontend::apply_fault(const FaultEvent& event) {
  if (event.node >= nodes_.size()) {
    throw support::Error("fault plan: node " + std::to_string(event.node) +
                         " out of range (cluster has " +
                         std::to_string(nodes_.size()) + ")");
  }
  switch (event.kind) {
    case FaultEvent::Kind::kCrash:
      nodes_[event.node]->crash();
      break;
    case FaultEvent::Kind::kRestart:
      nodes_[event.node]->restart();
      break;
    case FaultEvent::Kind::kSlow:
      nodes_[event.node]->set_slowdown(event.param);
      break;
    case FaultEvent::Kind::kDrop:
      links_[event.node]->drop_next(
          static_cast<std::uint64_t>(event.param));
      break;
    case FaultEvent::Kind::kDelay:
      links_[event.node]->set_delay(event.param);
      break;
  }
  faults_injected_.increment();
}

std::string ClusterFrontend::render_metrics_json() const {
  // Fault application can swap a node's service registry (restart);
  // rendering walks every child, so the two serialize.
  const std::lock_guard lock(faults_mutex_);
  return metrics_.render_json();
}

}  // namespace sspred::dserve
