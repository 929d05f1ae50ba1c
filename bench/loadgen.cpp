// Closed-loop load generator for the layered serving stack — the
// frontend-layer counterpart of bench_serve_throughput.
//
// Every request travels through the wire codec (encode -> FrameBuffer ->
// decode) before it reaches PredictionService::submit, and every result
// travels back the same way, so the measured path is the full stack:
// frontend codec -> facade routing -> shard admission -> fused execution.
// Two transports carry the bytes: `inproc` (frames handed between
// functions — codec cost without syscalls) and `socket` (a loopback
// AF_UNIX socket pair per client with a real server thread on the other
// end). Two arrival models drive it: closed-loop (each client keeps
// exactly one request outstanding; sustained req/s is the service rate)
// and open-loop (clients send on a fixed-rate clock regardless of
// completions; reports the service-side latency distribution under
// offered load).
//
// Self-check (the ISSUE-7 acceptance bar): on the high-fan-in workload —
// many closed-loop clients spread across four model families, every
// request carrying distinct bindings — four shards with one worker each
// must sustain >= 1.8x the req/s of one shard with four workers (equal
// total worker count). The win is horizontal: per-shard queues, rings,
// epoch locks, and staging scans replace one contended set, and each
// shard's worker runs a single family's program hot. The gate runs
// before the recorded sweep, lands its numbers in
// BENCH_sharded_serve.json, and exits non-zero on failure. The floor is
// only asserted where it is measurable: optimized builds on >= 4
// hardware threads (on fewer cores the configurations serialize onto the
// same core and wall-clock converges to total work, which is equal by
// construction — the run still records the measured ratio).
//
// --smoke runs the CI configuration: 2 shards, 2 clients, loopback
// socket transport, correctness-checked (every request answered, zero
// rejections), no timing assertions.
//
// --nodes N switches to CLUSTER mode (src/dserve/): N ServingNode
// replicas behind a ClusterFrontend, with --replicas R-way placement and
// a --faults plan injected mid-stream. The run demonstrates the dserve
// acceptance bar — healthy cluster bit-exact vs a single-node service,
// zero accepted requests lost across a node crash, epoch convergence
// after the partition heals — always asserted; the throughput rows are
// report-only (like the sharded gate, timing claims are meaningless on
// starved cores, but correctness never is). Results land in
// BENCH_cluster_serve.json. `--smoke --nodes 3` is the CI cluster check:
// 3 nodes, one injected crash + restart.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <future>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cluster/platform.hpp"
#include "dserve/fault.hpp"
#include "dserve/frontend.hpp"
#include "serve/epoch.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"

namespace {

using namespace sspred;
using Clock = std::chrono::steady_clock;

struct GenConfig {
  std::size_t shards = 4;
  std::size_t workers_total = 4;  ///< split evenly across shards
  std::size_t clients = 128;
  std::size_t requests = 40;  ///< per client
  std::size_t families = 4;
  std::size_t hosts = 8;
  std::size_t iterations = 30;
  std::size_t model_n = 600;
  std::size_t queue_capacity = 4096;  ///< per shard
  std::size_t max_batch = 16;         ///< per-sweep lane/coalesce cap
  bool socket_transport = false;
  bool open_loop = false;
  double open_rate = 500.0;  ///< req/s per client (open loop)
};

struct RunStats {
  double seconds = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  // Service-side shed attribution (per-reason counters, rolled up across
  // shards) — any client-observed rejection must be accounted to exactly
  // one of these.
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_stopped = 0;
  std::uint64_t rejected_shard_unavailable = 0;
  std::vector<double> latencies;  ///< seconds, sorted by run_once

  [[nodiscard]] double rps() const {
    return seconds > 0.0 ? double(ok) / seconds : 0.0;
  }
  /// p in [0,1] over the sorted latency sample (0 when empty).
  [[nodiscard]] double percentile(double p) const {
    if (latencies.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        p * double(latencies.size() - 1) + 0.5);
    return latencies[std::min(idx, latencies.size() - 1)];
  }
};

std::string family_id(std::size_t f) { return "family" + std::to_string(f); }

serve::ModelSpec family_spec(const GenConfig& cfg, std::size_t f) {
  serve::ModelSpec spec;
  spec.app = serve::ModelSpec::App::kSor;
  spec.platform = cluster::dedicated_platform(cfg.hosts);
  // Distinct problem size per family: four genuinely different compiled
  // programs, so routing by structure key is doing real work.
  spec.config.n = cfg.model_n + 37 * f;
  spec.config.iterations = cfg.iterations;
  return spec;
}

/// Distinct bindings per (client, sequence): nothing across clients is
/// coalescable, so merged work is the fused sweep's alone.
serve::PredictRequest make_request(const GenConfig& cfg, std::size_t client,
                                   std::size_t seq) {
  serve::PredictRequest request;
  request.model_id = family_id(client % cfg.families);
  request.loads.reserve(cfg.hosts);
  for (std::size_t h = 0; h < cfg.hosts; ++h) {
    request.loads.push_back(stoch::StochasticValue(
        0.35 + 0.0003 * double((client * 131 + seq) % 1024) +
            0.03 * double(h),
        0.08));
  }
  return request;
}

void write_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) { std::perror("loadgen: write"); std::exit(1); }
    off += static_cast<std::size_t>(n);
  }
}

void account(const serve::DecodedResponse& response, std::uint64_t want_tag,
             double latency_s, RunStats& out) {
  if (response.client_tag != want_tag) {
    ++out.errors;
    return;
  }
  switch (response.result.status) {
    case serve::PredictResult::Status::kOk:
      ++out.ok;
      out.latencies.push_back(latency_s);
      break;
    case serve::PredictResult::Status::kRejected:
      ++out.rejected;
      break;
    case serve::PredictResult::Status::kError:
      ++out.errors;
      break;
  }
}

/// One in-process frontend round trip: the request is encoded, framed,
/// decoded, served, and the result encoded and decoded back — the codec
/// sits on the hot path exactly as it would behind a socket.
serve::DecodedResponse roundtrip_inproc(serve::PredictionService& service,
                                        const serve::PredictRequest& request,
                                        std::uint64_t tag) {
  const auto wire = serve::encode_request(request, tag);
  serve::FrameBuffer frames;
  frames.feed(wire.data(), wire.size());
  auto frame = frames.take_frame();
  auto decoded = serve::decode_request(frame->data(), frame->size());
  const auto result =
      service.submit(std::move(decoded.request)).get();
  const auto reply = serve::encode_response(result, decoded.client_tag);
  serve::FrameBuffer reply_frames;
  reply_frames.feed(reply.data(), reply.size());
  auto reply_frame = reply_frames.take_frame();
  return serve::decode_response(reply_frame->data(), reply_frame->size());
}

void run_client_inproc(serve::PredictionService& service,
                       const GenConfig& cfg, std::size_t client,
                       RunStats& out) {
  for (std::size_t seq = 0; seq < cfg.requests; ++seq) {
    const auto request = make_request(cfg, client, seq);
    const std::uint64_t tag = (std::uint64_t(client) << 32) | seq;
    const auto start = Clock::now();
    const auto response = roundtrip_inproc(service, request, tag);
    const std::chrono::duration<double> dt = Clock::now() - start;
    account(response, tag, dt.count(), out);
  }
}

/// Open loop: send on a fixed-rate clock without waiting; latency is the
/// service-side submit->completion stamp (the client never blocks, so
/// there is no meaningful client-side round-trip time per request).
void run_client_open(serve::PredictionService& service, const GenConfig& cfg,
                     std::size_t client, RunStats& out) {
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / cfg.open_rate));
  std::vector<std::pair<std::uint64_t, std::future<serve::PredictResult>>>
      pending;
  pending.reserve(cfg.requests);
  auto next = Clock::now();
  for (std::size_t seq = 0; seq < cfg.requests; ++seq) {
    std::this_thread::sleep_until(next);
    next += interval;
    const auto request = make_request(cfg, client, seq);
    const std::uint64_t tag = (std::uint64_t(client) << 32) | seq;
    const auto wire = serve::encode_request(request, tag);
    serve::FrameBuffer frames;
    frames.feed(wire.data(), wire.size());
    auto frame = frames.take_frame();
    auto decoded = serve::decode_request(frame->data(), frame->size());
    pending.emplace_back(tag, service.submit(std::move(decoded.request)));
  }
  for (auto& [tag, future] : pending) {
    const auto result = future.get();
    const auto reply = serve::encode_response(result, tag);
    serve::FrameBuffer frames;
    frames.feed(reply.data(), reply.size());
    auto frame = frames.take_frame();
    const auto response =
        serve::decode_response(frame->data(), frame->size());
    account(response, tag, response.result.latency_seconds, out);
  }
}

/// Server half of one loopback connection: reassemble frames from
/// whatever read() returns, serve each request, write the response.
void serve_connection(serve::PredictionService& service, int fd,
                      std::size_t expected) {
  serve::FrameBuffer frames;
  std::uint8_t chunk[4096];
  std::size_t served = 0;
  while (served < expected) {
    const ssize_t n = read(fd, chunk, sizeof chunk);
    if (n <= 0) break;  // client hung up early (it accounts the miss)
    frames.feed(chunk, static_cast<std::size_t>(n));
    while (auto frame = frames.take_frame()) {
      auto decoded = serve::decode_request(frame->data(), frame->size());
      const auto result =
          service.submit(std::move(decoded.request)).get();
      write_all(fd, serve::encode_response(result, decoded.client_tag));
      ++served;
    }
  }
  close(fd);
}

void run_client_socket(const GenConfig& cfg, std::size_t client, int fd,
                       RunStats& out) {
  serve::FrameBuffer frames;
  std::uint8_t chunk[4096];
  for (std::size_t seq = 0; seq < cfg.requests; ++seq) {
    const auto request = make_request(cfg, client, seq);
    const std::uint64_t tag = (std::uint64_t(client) << 32) | seq;
    const auto start = Clock::now();
    write_all(fd, serve::encode_request(request, tag));
    std::optional<std::vector<std::uint8_t>> frame;
    while (!(frame = frames.take_frame())) {
      const ssize_t n = read(fd, chunk, sizeof chunk);
      if (n <= 0) { std::perror("loadgen: read"); std::exit(1); }
      frames.feed(chunk, static_cast<std::size_t>(n));
    }
    const auto response =
        serve::decode_response(frame->data(), frame->size());
    const std::chrono::duration<double> dt = Clock::now() - start;
    account(response, tag, dt.count(), out);
  }
  close(fd);
}

/// Builds the service, registers one model per family, warms every
/// family's compiled program, then releases all clients at once and
/// times until the last one finishes.
RunStats run_once(const GenConfig& cfg) {
  serve::ServiceOptions options;
  options.shards = cfg.shards;
  options.workers = std::max<std::size_t>(1, cfg.workers_total / cfg.shards);
  options.queue_capacity = cfg.queue_capacity;
  options.max_batch = cfg.max_batch;
  serve::PredictionService service(options);
  for (std::size_t f = 0; f < cfg.families; ++f) {
    service.register_model(family_id(f), family_spec(cfg, f));
  }
  for (std::size_t f = 0; f < cfg.families; ++f) {
    const auto warm = roundtrip_inproc(
        service, make_request(cfg, f, 0), 0);  // populate program caches
    if (!warm.result.ok()) {
      std::fprintf(stderr, "loadgen: warmup failed: %s\n",
                   warm.result.error.c_str());
      std::exit(1);
    }
  }

  std::vector<RunStats> per_client(cfg.clients);
  std::vector<std::thread> servers;
  std::vector<int> client_fds(cfg.clients, -1);
  if (cfg.socket_transport) {
    for (std::size_t c = 0; c < cfg.clients; ++c) {
      int fds[2];
      if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        std::perror("loadgen: socketpair");
        std::exit(1);
      }
      client_fds[c] = fds[1];
      servers.emplace_back(
          [&service, fd = fds[0], expected = cfg.requests] {
            serve_connection(service, fd, expected);
          });
    }
  }

  std::latch start(static_cast<std::ptrdiff_t>(cfg.clients) + 1);
  std::vector<std::thread> clients;
  clients.reserve(cfg.clients);
  for (std::size_t c = 0; c < cfg.clients; ++c) {
    clients.emplace_back([&, c] {
      start.arrive_and_wait();
      if (cfg.socket_transport) {
        run_client_socket(cfg, c, client_fds[c], per_client[c]);
      } else if (cfg.open_loop) {
        run_client_open(service, cfg, c, per_client[c]);
      } else {
        run_client_inproc(service, cfg, c, per_client[c]);
      }
    });
  }
  start.arrive_and_wait();
  const auto t0 = Clock::now();
  for (auto& t : clients) t.join();
  const std::chrono::duration<double> wall = Clock::now() - t0;
  for (auto& t : servers) t.join();

  if (std::getenv("LOADGEN_DEBUG")) {
    const auto& occ = service.metrics().histogram("fused_batch_occupancy");
    std::fprintf(stderr,
                 "    [debug] shards=%zu fused=%llu coalesced=%llu "
                 "occupancy_mean=%.1f sweeps=%llu\n",
                 cfg.shards,
                 (unsigned long long)service.metrics()
                     .counter("requests_fused").value(),
                 (unsigned long long)service.metrics()
                     .counter("requests_coalesced").value(),
                 occ.count() > 0 ? occ.mean() : 0.0,
                 (unsigned long long)occ.count());
  }

  RunStats total;
  total.seconds = wall.count();
  total.rejected_queue_full =
      service.metrics().counter("rejected_queue_full").value();
  total.rejected_stopped =
      service.metrics().counter("rejected_stopped").value();
  total.rejected_shard_unavailable =
      service.metrics().counter("rejected_shard_unavailable").value();
  for (auto& s : per_client) {
    total.ok += s.ok;
    total.rejected += s.rejected;
    total.errors += s.errors;
    total.latencies.insert(total.latencies.end(), s.latencies.begin(),
                           s.latencies.end());
  }
  std::sort(total.latencies.begin(), total.latencies.end());
  return total;
}

/// Best sustained req/s over `reps` fresh runs (sheds scheduler noise);
/// any rejected or failed request is fatal — the gate compares goodput
/// of fully-served workloads only.
RunStats best_of(const GenConfig& cfg, std::size_t reps,
                 const char* label) {
  RunStats best;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    RunStats stats = run_once(cfg);
    if (stats.rejected != 0 || stats.errors != 0 ||
        stats.ok != std::uint64_t(cfg.clients) * cfg.requests) {
      // Attribute the sheds to their SPECIFIC reason: the workload is
      // sized to fit the queues, so any rejection is a bug and the
      // per-reason counters say exactly which layer shed it.
      std::fprintf(stderr,
                   "loadgen: %s run incomplete: ok=%llu rejected=%llu "
                   "(queue_full=%llu stopped=%llu shard_unavailable=%llu) "
                   "errors=%llu (want %llu ok)\n",
                   label, (unsigned long long)stats.ok,
                   (unsigned long long)stats.rejected,
                   (unsigned long long)stats.rejected_queue_full,
                   (unsigned long long)stats.rejected_stopped,
                   (unsigned long long)stats.rejected_shard_unavailable,
                   (unsigned long long)stats.errors,
                   (unsigned long long)(cfg.clients * cfg.requests));
      std::exit(1);
    }
    if (stats.rejected != stats.rejected_queue_full +
                              stats.rejected_stopped +
                              stats.rejected_shard_unavailable) {
      std::fprintf(stderr,
                   "loadgen: %s shed accounting leak: %llu rejections, "
                   "%llu attributed\n",
                   label, (unsigned long long)stats.rejected,
                   (unsigned long long)(stats.rejected_queue_full +
                                        stats.rejected_stopped +
                                        stats.rejected_shard_unavailable));
      std::exit(1);
    }
    if (best.seconds == 0.0 || stats.rps() > best.rps()) {
      best = std::move(stats);
    }
  }
  return best;
}

void print_row(const char* name, const GenConfig& cfg,
               const RunStats& stats) {
  std::printf(
      "  %-26s shards=%zu workers=%zu clients=%zu  %8.0f req/s  "
      "p50 %.2fms  p95 %.2fms  p99 %.2fms\n",
      name, cfg.shards, std::max<std::size_t>(1, cfg.workers_total / cfg.shards),
      cfg.clients, stats.rps(), stats.percentile(0.50) * 1e3,
      stats.percentile(0.95) * 1e3, stats.percentile(0.99) * 1e3);
}

struct JsonRow {
  std::string name;
  GenConfig cfg;
  RunStats stats;
};

void write_json(const char* path, double rps_one, double rps_sharded,
                double ratio, double floor, bool gate_met, bool asserted,
                const std::vector<JsonRow>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) { std::perror("loadgen: fopen"); std::exit(1); }
  std::fprintf(f, "{\n  \"context\": {\n");
  std::fprintf(f, "    \"build_type\": \"%s\",\n", bench::build_type());
  std::fprintf(f, "    \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f,
               "    \"sharded_gate\": \"closed-loop high fan-in, 4 model "
               "families, distinct bindings, equal total workers\",\n");
  std::fprintf(f, "    \"sharded_gate_floor\": %.2f,\n", floor);
  std::fprintf(f, "    \"sharded_gate_one_shard_rps\": %.1f,\n", rps_one);
  std::fprintf(f, "    \"sharded_gate_four_shard_rps\": %.1f,\n",
               rps_sharded);
  std::fprintf(f, "    \"sharded_gate_ratio\": %.3f,\n", ratio);
  std::fprintf(f, "    \"sharded_gate_met\": %s,\n",
               gate_met ? "true" : "false");
  std::fprintf(f, "    \"sharded_gate_asserted\": %s\n",
               asserted ? "true" : "false");
  std::fprintf(f, "  },\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& [name, cfg, stats] = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"shards\": %zu, "
                 "\"workers_per_shard\": %zu, \"clients\": %zu, "
                 "\"requests\": %llu, \"rps\": %.1f, \"p50_ms\": %.3f, "
                 "\"p95_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                 name.c_str(), cfg.shards,
                 std::max<std::size_t>(1, cfg.workers_total / cfg.shards),
                 cfg.clients, (unsigned long long)stats.ok, stats.rps(),
                 stats.percentile(0.50) * 1e3, stats.percentile(0.95) * 1e3,
                 stats.percentile(0.99) * 1e3,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

// --- Cluster mode (src/dserve/) ---------------------------------------

struct ClusterGenConfig {
  GenConfig base;
  std::size_t nodes = 3;
  std::size_t replicas = 2;
  std::string fault_spec;  ///< empty: derive crash+restart of a primary
};

dserve::ClusterOptions cluster_options(const ClusterGenConfig& cfg) {
  dserve::ClusterOptions options;
  options.nodes = cfg.nodes;
  options.replicas = cfg.replicas;
  options.node_options.shards = cfg.base.shards;
  options.node_options.workers =
      std::max<std::size_t>(1, cfg.base.workers_total / cfg.base.shards);
  options.node_options.queue_capacity = cfg.base.queue_capacity;
  options.node_options.max_batch = cfg.base.max_batch;
  return options;
}

void register_cluster_models(dserve::ClusterFrontend& cluster,
                             const GenConfig& cfg) {
  for (std::size_t f = 0; f < cfg.families; ++f) {
    cluster.register_model(family_id(f), family_spec(cfg, f));
  }
}

/// Fixed single-threaded request stream: the determinism harness. The
/// frontend's step counter IS the request index + 1, which is what lets
/// a step-keyed fault plan reproduce the same failure history per run.
std::vector<serve::PredictResult> stream_cluster(
    dserve::ClusterFrontend& cluster, const GenConfig& cfg,
    std::size_t total) {
  std::vector<serve::PredictResult> results;
  results.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    results.push_back(
        cluster.predict(make_request(cfg, i % cfg.clients, i / cfg.clients))
            .result);
  }
  return results;
}

/// Concurrent closed-loop clients against the cluster frontend
/// (throughput row; report-only).
RunStats run_cluster_once(const ClusterGenConfig& cfg) {
  dserve::ClusterFrontend cluster(cluster_options(cfg));
  register_cluster_models(cluster, cfg.base);
  for (std::size_t f = 0; f < cfg.base.families; ++f) {
    const auto warm = cluster.predict(make_request(cfg.base, f, 0));
    if (!warm.result.ok()) {
      std::fprintf(stderr, "loadgen: cluster warmup failed: %s\n",
                   warm.result.error.c_str());
      std::exit(1);
    }
  }
  std::vector<RunStats> per_client(cfg.base.clients);
  std::latch start(static_cast<std::ptrdiff_t>(cfg.base.clients) + 1);
  std::vector<std::thread> clients;
  clients.reserve(cfg.base.clients);
  for (std::size_t c = 0; c < cfg.base.clients; ++c) {
    clients.emplace_back([&, c] {
      start.arrive_and_wait();
      for (std::size_t seq = 0; seq < cfg.base.requests; ++seq) {
        const auto t0 = Clock::now();
        const auto served =
            cluster.predict(make_request(cfg.base, c, seq)).result;
        const std::chrono::duration<double> dt = Clock::now() - t0;
        auto& out = per_client[c];
        if (served.ok()) {
          ++out.ok;
          out.latencies.push_back(dt.count());
        } else if (served.status == serve::PredictResult::Status::kRejected) {
          ++out.rejected;
        } else {
          ++out.errors;
        }
      }
    });
  }
  start.arrive_and_wait();
  const auto t0 = Clock::now();
  for (auto& t : clients) t.join();
  const std::chrono::duration<double> wall = Clock::now() - t0;

  RunStats total;
  total.seconds = wall.count();
  for (auto& s : per_client) {
    total.ok += s.ok;
    total.rejected += s.rejected;
    total.errors += s.errors;
    total.latencies.insert(total.latencies.end(), s.latencies.begin(),
                           s.latencies.end());
  }
  std::sort(total.latencies.begin(), total.latencies.end());
  return total;
}

/// Counters the fault run reports into BENCH_cluster_serve.json.
struct ClusterSummary {
  std::uint64_t failovers = 0;
  std::uint64_t requests_retried = 0;
  std::uint64_t rebalances = 0;
  std::uint64_t faults_injected = 0;
  std::string fault_plan;
  bool bit_exact = false;
  std::uint64_t lost_requests = 0;
  bool epoch_converged = false;
};

void write_cluster_json(const char* path, const ClusterGenConfig& cfg,
                        const ClusterSummary& summary, bool pass,
                        const std::vector<JsonRow>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) { std::perror("loadgen: fopen"); std::exit(1); }
  std::fprintf(f, "{\n  \"context\": {\n");
  std::fprintf(f, "    \"build_type\": \"%s\",\n", bench::build_type());
  std::fprintf(f, "    \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "    \"nodes\": %zu,\n", cfg.nodes);
  std::fprintf(f, "    \"replicas\": %zu,\n", cfg.replicas);
  std::fprintf(f, "    \"fault_plan\": \"%s\",\n",
               summary.fault_plan.c_str());
  std::fprintf(f, "    \"cluster_bit_exact\": %s,\n",
               summary.bit_exact ? "true" : "false");
  std::fprintf(f, "    \"cluster_lost_requests\": %llu,\n",
               (unsigned long long)summary.lost_requests);
  std::fprintf(f, "    \"cluster_epoch_converged\": %s,\n",
               summary.epoch_converged ? "true" : "false");
  std::fprintf(f, "    \"failovers\": %llu,\n",
               (unsigned long long)summary.failovers);
  std::fprintf(f, "    \"requests_retried\": %llu,\n",
               (unsigned long long)summary.requests_retried);
  std::fprintf(f, "    \"rebalances\": %llu,\n",
               (unsigned long long)summary.rebalances);
  std::fprintf(f, "    \"faults_injected\": %llu,\n",
               (unsigned long long)summary.faults_injected);
  std::fprintf(f, "    \"cluster_gate_met\": %s,\n", pass ? "true" : "false");
  std::fprintf(f, "    \"throughput_asserted\": false\n");
  std::fprintf(f, "  },\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& [name, row_cfg, stats] = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"clients\": %zu, "
                 "\"requests\": %llu, \"rps\": %.1f, \"p50_ms\": %.3f, "
                 "\"p95_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                 name.c_str(), row_cfg.clients,
                 (unsigned long long)stats.ok, stats.rps(),
                 stats.percentile(0.50) * 1e3, stats.percentile(0.95) * 1e3,
                 stats.percentile(0.99) * 1e3,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// Cluster mode driver: correctness gates (always asserted), then the
/// report-only throughput row, then BENCH_cluster_serve.json.
int run_cluster(const ClusterGenConfig& cfg, const char* json_path) {
  bench::banner("multi-node serving tier",
                "replicated nodes, failover, rebalancing, fault injection");
  const GenConfig& base = cfg.base;
  const std::size_t total = base.clients * base.requests;

  std::map<std::string, stoch::StochasticValue> bindings;
  for (std::size_t h = 0; h < base.hosts; ++h) {
    bindings.emplace("cpu/host" + std::to_string(h),
                     stoch::StochasticValue(0.5 + 0.02 * double(h), 0.1));
  }
  const auto epoch =
      std::make_shared<const serve::BindingsEpoch>(1, bindings);

  // --- Gate 1: healthy cluster bit-exact vs single-node service --------
  dserve::ClusterFrontend healthy(cluster_options(cfg));
  register_cluster_models(healthy, base);
  healthy.publish_epoch(epoch);
  serve::PredictionService single(cluster_options(cfg).node_options);
  for (std::size_t f = 0; f < base.families; ++f) {
    single.register_model(family_id(f), family_spec(base, f));
  }
  single.publish_epoch(epoch);
  const auto healthy_results = stream_cluster(healthy, base, total);
  ClusterSummary summary;
  summary.bit_exact = true;
  for (std::size_t i = 0; i < total; ++i) {
    const auto expected =
        single
            .submit(make_request(base, i % base.clients, i / base.clients))
            .get();
    const auto& got = healthy_results[i];
    if (!expected.ok() || !got.ok() || got.value != expected.value ||
        got.point != expected.point) {
      std::fprintf(stderr,
                   "loadgen: cluster bit-exactness broke at request %zu: "
                   "%s vs %s\n",
                   i, got.ok() ? "ok" : got.error.c_str(),
                   expected.ok() ? "ok" : expected.error.c_str());
      summary.bit_exact = false;
      break;
    }
  }

  // --- Gate 2: fault run — zero lost accepted requests -----------------
  // Default plan: crash a primary a third of the way in, restart it at
  // two thirds. Placement is deterministic, so the healthy cluster's
  // ring picks the victim for the fault run too.
  std::string spec = cfg.fault_spec;
  if (spec.empty()) {
    const std::size_t victim = healthy.replica_set(family_id(0)).front();
    spec = "crash@" + std::to_string(std::max<std::size_t>(2, total / 3)) +
           ":" + std::to_string(victim) + ",restart@" +
           std::to_string(std::max<std::size_t>(3, 2 * total / 3)) + ":" +
           std::to_string(victim);
  }
  summary.fault_plan = spec;
  dserve::ClusterFrontend faulted(cluster_options(cfg),
                                  dserve::FaultPlan::parse(spec));
  register_cluster_models(faulted, base);
  faulted.publish_epoch(epoch);
  const auto faulted_results = stream_cluster(faulted, base, total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto& got = faulted_results[i];
    if (!got.ok()) {
      ++summary.lost_requests;
    } else if (got.value != healthy_results[i].value) {
      summary.bit_exact = false;
    }
  }

  // --- Gate 3: epoch convergence after the heal ------------------------
  (void)faulted.heartbeat_tick();  // detects the restart's version skew
  summary.epoch_converged = true;
  for (std::size_t n = 0; n < faulted.nodes(); ++n) {
    if (faulted.node(n).epoch_version() != epoch->version()) {
      summary.epoch_converged = false;
    }
  }
  summary.failovers =
      faulted.metrics().counter("failovers_total").value();
  summary.requests_retried =
      faulted.metrics().counter("requests_retried").value();
  summary.rebalances =
      faulted.metrics().counter("rebalances_total").value();
  summary.faults_injected =
      faulted.metrics().counter("faults_injected").value();

  // --- Throughput rows (report-only) -----------------------------------
  std::vector<JsonRow> rows;
  const RunStats concurrent = run_cluster_once(cfg);
  rows.push_back({"cluster_closed_loop/" + std::to_string(cfg.nodes) +
                      "node",
                  base, concurrent});

  const bool pass = summary.bit_exact && summary.lost_requests == 0 &&
                    summary.epoch_converged;
  write_cluster_json(json_path, cfg, summary, pass, rows);

  std::printf(
      "\n  healthy %zu-node cluster vs single node: %s over %zu requests\n"
      "  fault run [%s]: %llu lost, %llu failovers, %llu retried\n"
      "  heal: rebalances=%llu epoch_converged=%s\n",
      cfg.nodes, summary.bit_exact ? "bit-exact" : "MISMATCH", total,
      summary.fault_plan.c_str(),
      (unsigned long long)summary.lost_requests,
      (unsigned long long)summary.failovers,
      (unsigned long long)summary.requests_retried,
      (unsigned long long)summary.rebalances,
      summary.epoch_converged ? "true" : "false");
  std::printf(
      "  concurrent throughput (report-only): %.0f req/s, p99 %.2fms\n",
      concurrent.rps(), concurrent.percentile(0.99) * 1e3);
  std::printf("=> %s (results in %s)\n", pass ? "PASS" : "FAIL", json_path);
  return pass ? 0 : 1;
}

int run_cluster_smoke(ClusterGenConfig cfg) {
  // CI configuration: 3 nodes, small models, one crash + restart.
  cfg.nodes = cfg.nodes == 0 ? 3 : cfg.nodes;
  cfg.base.shards = 2;
  cfg.base.workers_total = 4;
  cfg.base.clients = 4;
  cfg.base.requests = 12;
  cfg.base.families = 3;
  cfg.base.hosts = 4;
  cfg.base.model_n = 150;
  cfg.base.iterations = 5;
  return run_cluster(cfg, "BENCH_cluster_serve.json");
}

int run_smoke() {
  GenConfig cfg;
  cfg.shards = 2;
  cfg.workers_total = 2;
  cfg.clients = 2;
  cfg.requests = 25;
  cfg.families = 2;
  cfg.model_n = 150;
  cfg.socket_transport = true;
  const RunStats stats = run_once(cfg);
  const bool pass = stats.ok == cfg.clients * cfg.requests &&
                    stats.rejected == 0 && stats.errors == 0;
  std::printf(
      "loadgen smoke: %llu/%llu served over loopback sockets "
      "(2 shards, 2 clients), p99 %.2fms => %s\n",
      (unsigned long long)stats.ok,
      (unsigned long long)(cfg.clients * cfg.requests),
      stats.percentile(0.99) * 1e3, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  GenConfig base;
  const char* json_path = "BENCH_sharded_serve.json";
  double floor = 1.8;
  std::size_t reps = 3;
  bool smoke = false;
  std::size_t nodes = 0;
  std::size_t replicas = 2;
  std::string faults;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "loadgen: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") smoke = true;
    else if (arg == "--clients") base.clients = std::stoul(next());
    else if (arg == "--requests") base.requests = std::stoul(next());
    else if (arg == "--shards") base.shards = std::stoul(next());
    else if (arg == "--workers") base.workers_total = std::stoul(next());
    else if (arg == "--families") base.families = std::stoul(next());
    else if (arg == "--model-n") base.model_n = std::stoul(next());
    else if (arg == "--hosts") base.hosts = std::stoul(next());
    else if (arg == "--max-batch") base.max_batch = std::stoul(next());
    else if (arg == "--iterations") base.iterations = std::stoul(next());
    else if (arg == "--reps") reps = std::stoul(next());
    else if (arg == "--floor") floor = std::stod(next());
    else if (arg == "--json") json_path = next();
    else if (arg == "--nodes") nodes = std::stoul(next());
    else if (arg == "--replicas") replicas = std::stoul(next());
    else if (arg == "--faults") faults = next();
    else {
      std::fprintf(stderr,
                   "usage: loadgen [--smoke] [--clients N] [--requests N] "
                   "[--shards S] [--workers W] [--families F] [--model-n N] "
                   "[--reps R] [--floor X] [--json PATH] "
                   "[--nodes N [--replicas R] [--faults PLAN]]\n");
      return 2;
    }
  }
  if (nodes > 0) {
    ClusterGenConfig cluster_cfg;
    cluster_cfg.base = base;
    cluster_cfg.nodes = nodes;
    cluster_cfg.replicas = replicas;
    cluster_cfg.fault_spec = faults;
    if (smoke) return run_cluster_smoke(cluster_cfg);
    if (std::string(json_path) == "BENCH_sharded_serve.json") {
      json_path = "BENCH_cluster_serve.json";
    }
    // The cluster stream drives the full wire path per node; keep the
    // default single-threaded gate stream to a tractable size.
    cluster_cfg.base.clients = std::min<std::size_t>(base.clients, 16);
    cluster_cfg.base.requests = std::min<std::size_t>(base.requests, 25);
    return run_cluster(cluster_cfg, json_path);
  }
  if (smoke) return run_smoke();

  bench::banner("sharded serving stack",
                "closed-loop load generator through the wire frontend");

  // --- The gate: 1 shard x 4 workers vs 4 shards x 1 worker ------------
  GenConfig one = base;
  one.shards = 1;
  GenConfig four = base;
  four.shards = 4;
  const RunStats one_stats = best_of(one, reps, "one-shard");
  const RunStats four_stats = best_of(four, reps, "four-shard");
  const double ratio =
      one_stats.rps() > 0.0 ? four_stats.rps() / one_stats.rps() : 0.0;
  const bool gate_met = ratio >= floor;
  // The floor claims horizontal scaling, so it is only asserted where
  // that is measurable: optimized builds with enough hardware threads to
  // actually run the four shards concurrently. Elsewhere (debug or
  // sanitizer builds, single-core containers) the run records the
  // measured ratio without asserting.
  const unsigned cores = std::thread::hardware_concurrency();
  const bool asserted = bench::optimized_build() && cores >= 4;
  const bool pass = gate_met || !asserted;

  std::vector<JsonRow> rows;
  rows.push_back({"closed_loop/1shard", one, one_stats});
  rows.push_back({"closed_loop/4shard", four, four_stats});

  // --- Recorded sweep: socket transport and open-loop rows -------------
  GenConfig socket_cfg = base;
  socket_cfg.socket_transport = true;
  socket_cfg.clients = std::min<std::size_t>(base.clients, 8);
  socket_cfg.requests = std::min<std::size_t>(base.requests, 50);
  rows.push_back(
      {"closed_loop/4shard_socket", socket_cfg, run_once(socket_cfg)});

  GenConfig open_cfg = base;
  open_cfg.open_loop = true;
  open_cfg.clients = std::min<std::size_t>(base.clients, 8);
  open_cfg.requests = std::min<std::size_t>(base.requests, 50);
  open_cfg.open_rate = 200.0;
  rows.push_back({"open_loop/4shard", open_cfg, run_once(open_cfg)});

  std::printf("\n");
  for (const auto& row : rows) print_row(row.name.c_str(), row.cfg, row.stats);
  write_json(json_path, one_stats.rps(), four_stats.rps(), ratio, floor,
             gate_met, asserted, rows);

  std::printf(
      "\nsharded gate: %zu closed-loop clients, %zu families, "
      "4x1 workers %.0f req/s vs 1x4 workers %.0f req/s -> %.2fx "
      "(floor %.1fx)\n",
      base.clients, base.families, four_stats.rps(), one_stats.rps(), ratio,
      floor);
  if (!asserted) {
    if (!bench::optimized_build()) {
      std::printf("unoptimized build: reporting only, floor not asserted\n");
    } else {
      std::printf(
          "%u hardware thread(s): shards serialize onto the same core, "
          "reporting only, floor not asserted\n",
          cores);
    }
  }
  std::printf("=> %s (results in %s)\n", pass ? "PASS" : "FAIL", json_path);
  return pass ? 0 : 1;
}
