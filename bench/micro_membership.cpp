// micro_membership — elastic-membership rebuild benchmark on the
// real-thread data plane. Preloads a ThreadFabric running pool-map
// (HRW) routing, measures client-visible get latency in steady state,
// then re-measures it while drain+join transitions continuously migrate
// data underneath the readers. Prints one JSON record with both
// latency profiles, the rebalance throughput (objects and bytes
// migrated per second), and the rebuild/steady p99 ratio — the number
// the acceptance bound ("client p99 during rebuild within 3x
// steady-state") tracks PR over PR in BENCH_membership.json.
//
//   micro_membership [--servers 8] [--objects 4096] [--bytes 4096]
//                    [--readers 4] [--seconds 1.0]
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "staging/thread_fabric.hpp"

namespace {

using corec::Bytes;
using corec::ServerId;
using corec::VarId;
using corec::staging::DataObject;
using corec::staging::FabricOptions;
using corec::staging::ObjectDescriptor;
using corec::staging::StoredKind;
using corec::staging::ThreadFabric;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kBuckets = 512;
constexpr double kBucketGrowth = 1.04;

std::size_t bucket_of(double us) {
  if (us < 0) us = 0;
  const auto idx = static_cast<std::size_t>(
      std::log(us + 1.0) / std::log(kBucketGrowth));
  return idx >= kBuckets ? kBuckets - 1 : idx;
}

double bucket_floor_us(std::size_t idx) {
  return std::pow(kBucketGrowth, static_cast<double>(idx)) - 1.0;
}

double percentile_us(const std::vector<std::uint64_t>& hist,
                     std::uint64_t total, double q) {
  if (total == 0) return 0.0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(total));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += hist[i];
    if (seen > target) {
      return (bucket_floor_us(i) + bucket_floor_us(i + 1)) / 2.0;
    }
  }
  return bucket_floor_us(kBuckets);
}

struct Config {
  std::size_t servers = 8;
  std::size_t objects = 4096;
  std::size_t payload_bytes = 4096;
  std::size_t readers = 4;
  double seconds = 1.0;
};

struct Profile {
  std::uint64_t ops = 0;
  std::uint64_t retries = 0;
  std::uint64_t misses = 0;
  double p50_us = 0;
  double p99_us = 0;
};

ObjectDescriptor desc_of(std::size_t i) {
  const auto var = static_cast<VarId>(1 + i / 512);
  const auto lo = static_cast<int>((i % 512) * 8);
  return {var, 1, corec::geom::BoundingBox::line(lo, lo + 7),
          corec::staging::kWholeObject};
}

/// Runs `readers` closed-loop get threads against random preloaded
/// descriptors until `stop` flips, merging per-thread latency
/// histograms into one profile.
Profile measure_reads(ThreadFabric& fabric, const Config& cfg,
                      std::atomic<bool>& stop) {
  std::vector<std::vector<std::uint64_t>> hists(
      cfg.readers, std::vector<std::uint64_t>(kBuckets, 0));
  std::vector<std::uint64_t> ops(cfg.readers, 0);
  std::vector<std::uint64_t> retries(cfg.readers, 0);
  std::vector<std::uint64_t> misses(cfg.readers, 0);
  std::vector<std::thread> threads;
  threads.reserve(cfg.readers);
  for (std::size_t t = 0; t < cfg.readers; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t x = 0x9e3779b97f4a7c15ULL * (t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const ObjectDescriptor desc =
            desc_of(static_cast<std::size_t>(x % cfg.objects));
        // Client-visible latency: like the RPC client on a stale-map
        // redirect, a reader whose routed lookup races a concurrent
        // migration re-routes under the newer map and retries. The
        // clock keeps running across retries — that tail IS the cost
        // the rebuild imposes on clients.
        const auto t0 = Clock::now();
        bool ok = false;
        for (int attempt = 0; attempt < 8; ++attempt) {
          if (fabric.get(desc).ok()) {
            ok = true;
            break;
          }
          ++retries[t];
        }
        const auto t1 = Clock::now();
        if (!ok) ++misses[t];
        const double us =
            std::chrono::duration<double, std::micro>(t1 - t0).count();
        ++hists[t][bucket_of(us)];
        ++ops[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  Profile p;
  std::vector<std::uint64_t> merged(kBuckets, 0);
  for (std::size_t t = 0; t < cfg.readers; ++t) {
    p.ops += ops[t];
    p.retries += retries[t];
    p.misses += misses[t];
    for (std::size_t b = 0; b < kBuckets; ++b) merged[b] += hists[t][b];
  }
  p.p50_us = percentile_us(merged, p.ops, 0.50);
  p.p99_us = percentile_us(merged, p.ops, 0.99);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--servers") cfg.servers = std::strtoull(val, nullptr, 10);
    else if (flag == "--objects") cfg.objects = std::strtoull(val, nullptr, 10);
    else if (flag == "--bytes") cfg.payload_bytes = std::strtoull(val, nullptr, 10);
    else if (flag == "--readers") cfg.readers = std::strtoull(val, nullptr, 10);
    else if (flag == "--seconds") cfg.seconds = std::strtod(val, nullptr);
    else { std::fprintf(stderr, "unknown flag %s\n", flag.c_str()); return 2; }
  }

  FabricOptions fopts;
  fopts.pool_dispatch = true;
  ThreadFabric fabric(cfg.servers, fopts);

  Bytes payload(cfg.payload_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (std::size_t i = 0; i < cfg.objects; ++i) {
    auto st = fabric.put(DataObject::real(desc_of(i), payload),
                         StoredKind::kPrimary);
    if (!st.ok()) {
      std::fprintf(stderr, "preload failed: %s\n", st.to_string().c_str());
      return 1;
    }
  }

  const auto phase_ns = std::chrono::nanoseconds(
      static_cast<std::int64_t>(cfg.seconds * 1e9));

  // Phase 1: steady state — no transitions running.
  std::atomic<bool> stop{false};
  auto stopper = std::thread([&] {
    std::this_thread::sleep_for(phase_ns);
    stop.store(true, std::memory_order_relaxed);
  });
  Profile steady = measure_reads(fabric, cfg, stop);
  stopper.join();

  // Phase 2: readers race a continuous drain+join rebalance loop. Each
  // cycle drains the most recently joined server's predecessor and
  // joins a fresh one, so data keeps flowing while ids stay dense.
  stop.store(false, std::memory_order_relaxed);
  std::uint64_t transitions = 0, objects_moved = 0, bytes_moved = 0;
  double rebalance_s = 0;
  auto churn = std::thread([&] {
    const auto deadline = Clock::now() + phase_ns;
    ServerId victim = static_cast<ServerId>(cfg.servers - 1);
    while (Clock::now() < deadline) {
      const std::uint64_t out_objects = fabric.store(victim).count();
      const std::uint64_t out_bytes = fabric.store(victim).total_bytes();
      const auto t0 = Clock::now();
      if (!fabric.drain_server(victim).ok()) break;
      auto joined_or = fabric.join_server();
      if (!joined_or.ok()) break;
      const ServerId joined = *joined_or;
      const auto t1 = Clock::now();
      objects_moved += out_objects + fabric.store(joined).count();
      bytes_moved += out_bytes + fabric.store(joined).total_bytes();
      transitions += 2;
      rebalance_s += std::chrono::duration<double>(t1 - t0).count();
      victim = joined;
    }
    stop.store(true, std::memory_order_relaxed);
  });
  Profile rebuild = measure_reads(fabric, cfg, stop);
  churn.join();

  const double ratio =
      steady.p99_us > 0 ? rebuild.p99_us / steady.p99_us : 0.0;
  const double mb_moved = static_cast<double>(bytes_moved) / (1 << 20);
  std::printf("{\n");
  std::printf("\"bench\": \"membership_rebalance\",\n");
  std::printf(
      "\"config\": {\"servers\": %zu, \"objects\": %zu, \"bytes\": %zu, "
      "\"readers\": %zu, \"seconds\": %.2f},\n",
      cfg.servers, cfg.objects, cfg.payload_bytes, cfg.readers,
      cfg.seconds);
  std::printf(
      "\"steady\": {\"ops\": %llu, \"retries\": %llu, \"misses\": %llu, "
      "\"p50_us\": %.2f, \"p99_us\": %.2f},\n",
      static_cast<unsigned long long>(steady.ops),
      static_cast<unsigned long long>(steady.retries),
      static_cast<unsigned long long>(steady.misses), steady.p50_us,
      steady.p99_us);
  std::printf(
      "\"rebuild\": {\"ops\": %llu, \"retries\": %llu, \"misses\": %llu, "
      "\"p50_us\": %.2f, \"p99_us\": %.2f},\n",
      static_cast<unsigned long long>(rebuild.ops),
      static_cast<unsigned long long>(rebuild.retries),
      static_cast<unsigned long long>(rebuild.misses), rebuild.p50_us,
      rebuild.p99_us);
  std::printf(
      "\"rebalance\": {\"transitions\": %llu, \"objects_moved\": %llu, "
      "\"mb_moved\": %.2f, \"busy_seconds\": %.3f, \"mb_per_s\": %.1f},\n",
      static_cast<unsigned long long>(transitions),
      static_cast<unsigned long long>(objects_moved), mb_moved,
      rebalance_s, rebalance_s > 0 ? mb_moved / rebalance_s : 0.0);
  std::printf("\"p99_rebuild_over_steady\": %.2f,\n", ratio);
  std::printf("\"final_map_version\": %llu\n",
              static_cast<unsigned long long>(fabric.map_version()));
  std::printf("}\n");
  // With re-route retries a read can never come up empty: migration
  // publishes copies before retiring old ones, so some map version
  // always serves the object.
  if (steady.misses != 0 || rebuild.misses != 0) {
    std::fprintf(stderr, "FAIL: %llu reads missed during rebalance\n",
                 static_cast<unsigned long long>(steady.misses +
                                                 rebuild.misses));
    return 1;
  }
  return 0;
}
