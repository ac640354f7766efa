// Concurrent data-plane microbenchmarks: the lock-striped
// ShardedObjectStore under 1→8 client threads and three read/write
// mixes (50/50, 95/5 read-heavy, 10/90 put-heavy). Throughput uses real time (the contended resource
// is the lock, not the CPU); counters surface the shard layer's
// contention telemetry — lock acquisitions, the fraction that blocked,
// max shard occupancy — plus the payload-copy counters that prove the
// read path is zero-copy. bench_concurrency_json publishes the sweep
// to BENCH_concurrency.json.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/sharding.hpp"
#include "staging/sharded_store.hpp"

namespace {

using corec::Bytes;
using corec::PayloadBuffer;
using corec::Rng;
using corec::staging::DataObject;
using corec::staging::ObjectDescriptor;
using corec::staging::ShardedObjectStore;
using corec::staging::StoredKind;

constexpr int kKeys = 4096;
constexpr std::size_t kPayloadBytes = 4096;
// Fixed stripe width so the sweep is the same on every machine (default_shard_count() tracks hardware_concurrency and
// would degenerate to one stripe on a single-core CI runner).
constexpr std::size_t kBenchShards = 16;

ObjectDescriptor desc_of(int key) {
  return ObjectDescriptor{
      static_cast<corec::VarId>(1 + key % 11),
      static_cast<corec::Version>(1 + key / 11),
      corec::geom::BoundingBox::line(key * 8, key * 8 + 7),
      corec::staging::kWholeObject};
}

// Shared per-run state, created by thread 0 before the start barrier
// and read by the other threads only after it.
struct Fixture {
  std::vector<ObjectDescriptor> descs;
  std::vector<PayloadBuffer> payloads;  // CRC pre-cached

  Fixture() {
    descs.reserve(kKeys);
    payloads.reserve(kKeys);
    for (int key = 0; key < kKeys; ++key) {
      descs.push_back(desc_of(key));
      Bytes b(kPayloadBytes);
      for (std::size_t i = 0; i < b.size(); ++i) {
        b[i] = static_cast<std::uint8_t>(key * 31 + i * 7);
      }
      payloads.push_back(PayloadBuffer::wrap(std::move(b)));
      (void)payloads.back().crc32c();  // warm the generation cache
    }
  }

  void prepopulate(ShardedObjectStore* store) const {
    for (int key = 0; key < kKeys; ++key) {
      (void)store->put(DataObject::real(descs[key], payloads[key]),
                       StoredKind::kPrimary);
    }
  }
};

ShardedObjectStore* make_store() {
  return new ShardedObjectStore(/*capacity_bytes=*/0, kBenchShards);
}

// The run's store and fixture, shared by its benchmark threads.
ShardedObjectStore* g_store = nullptr;
Fixture* g_fixture = nullptr;

/// One op per iteration: `write_pct`% puts (whole-object overwrite, a
/// refcount bump — no byte copy), the rest zero-copy gets.
void BM_Sharded_Mix(benchmark::State& state) {
  const auto write_pct = static_cast<unsigned>(state.range(0));
  if (state.thread_index() == 0) {
    g_fixture = new Fixture();
    g_store = make_store();
    g_fixture->prepopulate(g_store);
  }
  Rng rng(0x9E3779B9u + 131u * static_cast<unsigned>(state.thread_index()));
  ShardedObjectStore* store = nullptr;
  const Fixture* fix = nullptr;
  std::uint64_t reads = 0, writes = 0;
  for (auto _ : state) {
    if (store == nullptr) {  // first iteration: after the start barrier
      store = g_store;
      fix = g_fixture;
    }
    const int key = static_cast<int>(rng.next_u32() % kKeys);
    if (rng.next_u32() % 100 < write_pct) {
      benchmark::DoNotOptimize(store->put(
          DataObject::real(fix->descs[key], fix->payloads[key]),
          StoredKind::kPrimary));
      ++writes;
    } else {
      auto got = store->get(fix->descs[key]);
      benchmark::DoNotOptimize(got);
      ++reads;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(reads + writes));
  state.counters["reads"] = static_cast<double>(reads);
  state.counters["writes"] = static_cast<double>(writes);
  if (state.thread_index() == 0) {
    const auto m = g_store->shard_metrics();
    state.counters["shards"] = static_cast<double>(m.shards);
    state.counters["lock_acquisitions"] =
        static_cast<double>(m.lock_acquisitions);
    state.counters["contended_pct"] = 100.0 * m.contention_rate();
    state.counters["max_shard_occupancy"] =
        static_cast<double>(m.max_shard_occupancy);
    delete g_store;
    delete g_fixture;
    g_store = nullptr;
    g_fixture = nullptr;
  }
}
BENCHMARK(BM_Sharded_Mix)
    ->ArgName("write_pct")
    ->Arg(50)  // 50/50 mix
    ->Arg(5)   // 95/5 read-heavy
    ->Arg(90)  // put-heavy
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// Acceptance probe: a read-only run must not copy a single payload
/// byte or recompute a single CRC — copied_bytes/crc counters are
/// deltas across the whole timed run (expect 0).
void BM_Sharded_ReadOnlyZeroCopy(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_fixture = new Fixture();
    g_store = make_store();
    g_fixture->prepopulate(g_store);
    corec::payload_metrics().reset();
  }
  Rng rng(17u + static_cast<unsigned>(state.thread_index()));
  ShardedObjectStore* store = nullptr;
  const Fixture* fix = nullptr;
  std::uint64_t reads = 0;
  for (auto _ : state) {
    if (store == nullptr) {
      store = g_store;
      fix = g_fixture;
    }
    const int key = static_cast<int>(rng.next_u32() % kKeys);
    auto got = store->get(fix->descs[key]);
    benchmark::DoNotOptimize(got);
    ++reads;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(reads));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(reads * kPayloadBytes));
  if (state.thread_index() == 0) {
    const auto& pm = corec::payload_metrics();
    state.counters["copied_bytes"] =
        static_cast<double>(pm.bytes_copied.load());
    state.counters["cow_detaches"] =
        static_cast<double>(pm.cow_detaches.load());
    state.counters["crc_recomputes"] =
        static_cast<double>(pm.crc_computed.load());
    const auto m = g_store->shard_metrics();
    state.counters["contended_pct"] = 100.0 * m.contention_rate();
    delete g_store;
    delete g_fixture;
    g_store = nullptr;
    g_fixture = nullptr;
  }
}
BENCHMARK(BM_Sharded_ReadOnlyZeroCopy)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
