// ServingNode — one simulated replica of the serving stack.
//
// A node is a sharded PredictionService that speaks ONLY the wire codec:
// its entire inbound surface is handle_frame(bytes) -> bytes, demuxing
// prediction requests, heartbeat probes, and epoch fan-outs off one
// framed stream (serve/wire.hpp) exactly as a remote process would off a
// socket. The in-process transport is an optimization, not a cheat — no
// object crosses the node boundary except encoded frames, so promoting a
// node to a real process is a transport swap.
//
// Fault model (fail-stop with drain):
//   crash()   — the node stops answering: every subsequent handle_frame
//               returns nullopt, which the frontend reads as a dead
//               link. Calls already inside the node complete (their
//               futures resolve and the replies are returned) — the
//               synchronous transport is the drain boundary. State is
//               NOT lost at crash; it is lost at restart.
//   restart() — tears the service down (joining its workers) and builds
//               a fresh one: cold program caches, empty metrics, and NO
//               bindings epoch. Registered models survive (a deployment
//               reloads its model manifest on boot); the epoch does not,
//               which is exactly the skew the frontend's heartbeat
//               rebalance detects and repairs.
//
// Concurrency: handle_frame holds a shared lock for its whole round
// trip; crash/restart take the lock exclusively, so a restart never
// destroys a service mid-call. restart() also swaps the node registry's
// child pointer — callers must not snapshot node metrics concurrently
// with restart (the ClusterFrontend serializes fault application against
// its metrics rendering).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "serve/metrics.hpp"
#include "serve/service.hpp"
#include "support/clock.hpp"

namespace sspred::dserve {

class ServingNode {
 public:
  /// `options` configures the node's inner PredictionService (shards,
  /// workers, queues — a whole single-node stack per replica).
  ServingNode(std::size_t index, serve::ServiceOptions options,
              std::shared_ptr<support::Clock> clock = nullptr);
  ~ServingNode();

  ServingNode(const ServingNode&) = delete;
  ServingNode& operator=(const ServingNode&) = delete;

  /// Registers a model on the live service AND in the node's boot
  /// manifest, so restart() re-registers it.
  void register_model(const std::string& id, serve::ModelSpec spec);

  /// Serves one complete wire frame (length prefix included), returning
  /// the reply frame. nullopt: the node is crashed. A frame the codec
  /// rejects (malformed, or a type a node never receives) also yields
  /// nullopt, counted as bad_frames — a broken peer looks like a dead
  /// link, never a crashed node process.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> handle_frame(
      const std::vector<std::uint8_t>& frame);

  void crash();
  void restart();
  [[nodiscard]] bool crashed() const;

  /// Extra service time per prediction frame, seconds (a degraded
  /// machine; 0 restores full speed). Heartbeats are not slowed — a slow
  /// node is alive, and the health layer should see that.
  void set_slowdown(double seconds) noexcept;

  /// Installed bindings-epoch version (0: none, or crashed).
  [[nodiscard]] std::uint64_t epoch_version() const;

  /// Forwards an observation to the live service (see
  /// PredictionService::report_observation); false when crashed.
  bool report_observation(std::uint64_t request_id, double observed_seconds);

  /// Node-level registry: the node's own lifecycle instruments plus the
  /// live service's registry merged unprefixed, so attaching this as
  /// "node<k>" yields node<k>/requests_total and node<k>/shard<j>/...
  /// rows. Stable across crash/restart (see class comment for the
  /// snapshot-vs-restart caveat).
  [[nodiscard]] serve::MetricsRegistry& metrics() noexcept {
    return metrics_;
  }

  [[nodiscard]] std::size_t index() const noexcept { return index_; }

  /// Test/diagnostic access to the live service; null when crashed.
  /// The pointer is invalidated by restart() — don't hold it across
  /// fault events.
  [[nodiscard]] serve::PredictionService* service();

 private:
  [[nodiscard]] std::vector<std::uint8_t> serve_request(
      const std::uint8_t* payload, std::size_t size);
  [[nodiscard]] std::vector<std::uint8_t> serve_heartbeat(
      const std::uint8_t* payload, std::size_t size);
  [[nodiscard]] std::vector<std::uint8_t> serve_epoch(
      const std::uint8_t* payload, std::size_t size);

  std::size_t index_;
  serve::ServiceOptions options_;
  std::shared_ptr<support::Clock> clock_;
  serve::MetricsRegistry metrics_;  ///< stable node-level registry

  mutable std::shared_mutex mutex_;  ///< service lifetime vs crash/restart
  std::unique_ptr<serve::PredictionService> service_;
  bool crashed_ = false;
  std::vector<std::pair<std::string, serve::ModelSpec>> manifest_;

  std::atomic<std::int64_t> slowdown_ns_{0};

  serve::Counter& frames_served_;
  serve::Counter& heartbeats_served_;
  serve::Counter& epoch_installs_;
  serve::Counter& bad_frames_;
  serve::Counter& crashes_;
  serve::Counter& restarts_;
};

}  // namespace sspred::dserve
