// ThreadFabric — the real-thread dispatcher for a staging deployment
// (as opposed to the virtual-time StagingService, which is
// single-threaded by construction). It hosts one ShardedObjectStore
// per staging server plus one entity-sharded metadata directory, and
// drives put/get/erase through them from many client threads:
//
//   * synchronously — clients call put/get/erase from their own
//     threads; lock striping keeps unrelated keys contention-free and
//     reads hand back refcounted payload views (zero-copy);
//   * asynchronously — ops are dispatched onto the fabric's worker
//     pool with a completion callback, and drain() joins them.
//
// Contention health is observable: shard_metrics() aggregates lock
// acquisitions, contended acquisitions and max shard occupancy across
// every store and the directory, the real-thread companion to
// payload_metrics().
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "common/buffer.hpp"
#include "common/thread_pool.hpp"
#include "membership/pool_map.hpp"
#include "staging/sharded_store.hpp"

namespace corec::staging {

/// Construction-time configuration of a ThreadFabric.
struct FabricOptions {
  std::size_t store_shards = 0;      // per-server shards (0 = auto)
  std::size_t directory_shards = 0;  // metadata shards (0 = auto)
  std::size_t server_capacity = 0;   // bytes per server (0 = unlimited)
  std::size_t workers = 0;           // async dispatch threads (0 = auto)
  /// Route through the versioned pool map (HRW placement) instead of
  /// the static modulo hash. Required for join_server()/drain_server(),
  /// which refuse under modulo routing; off by default so existing
  /// deployments keep their byte-identical placement.
  bool pool_dispatch = false;
};

/// Operation counters (relaxed; exact at quiesce).
struct FabricStatsSnapshot {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t erases = 0;
  std::uint64_t put_failures = 0;  // capacity rejections etc.
  std::uint64_t get_misses = 0;    // NotFound reads
};

class ThreadFabric {
 public:
  explicit ThreadFabric(std::size_t num_servers,
                        FabricOptions options = {});

  ThreadFabric(const ThreadFabric&) = delete;
  ThreadFabric& operator=(const ThreadFabric&) = delete;

  // ---- synchronous ops (any client thread) ------------------------------

  Status put(ServerId server, DataObject object, StoredKind kind);

  /// Zero-copy read: the payload inside the returned entry is a
  /// refcounted view of the stored buffer.
  StatusOr<StoredObject> get(ServerId server,
                             const ObjectDescriptor& desc) const;

  bool erase(ServerId server, const ObjectDescriptor& desc);

  // ---- routed conveniences ----------------------------------------------

  /// Deterministic hash placement of a descriptor onto a server (the
  /// fabric has no SFC; simulation-faithful routing stays with
  /// StagingService).
  ServerId route(const ObjectDescriptor& desc) const;

  Status put(DataObject object, StoredKind kind);
  StatusOr<StoredObject> get(const ObjectDescriptor& desc) const;
  bool erase(const ObjectDescriptor& desc);

  // ---- async dispatch ----------------------------------------------------

  /// Dispatches the op onto the worker pool; `done` (optional) runs on
  /// the worker after the op completes.
  void async_put(ServerId server, DataObject object, StoredKind kind,
                 std::function<void(Status)> done = nullptr);
  void async_get(ServerId server, ObjectDescriptor desc,
                 std::function<void(StatusOr<StoredObject>)> done);
  void async_erase(ServerId server, ObjectDescriptor desc,
                   std::function<void(bool)> done = nullptr);

  /// Blocks until every dispatched op has completed.
  void drain() { pool_.wait_idle(); }

  // ---- elastic membership (pool_dispatch mode) ---------------------------
  //
  // Transitions are caller-serialized: run one join/drain at a time.
  // Routed ops stay live throughout — migration copies entries to their
  // new homes FIRST, publishes the new map, re-conforms whatever raced
  // in under the old map, and only then erases stale copies, so a
  // concurrent routed get never misses.

  /// Newest published map version (lock-free; the RPC server's
  /// staleness fast path).
  std::uint64_t map_version() const {
    return map_version_.load(std::memory_order_acquire);
  }

  /// Snapshot of the published map.
  membership::PoolMap pool_map_copy() const;

  /// Serialized form of the published map (for NOT_MY_SHARD redirect
  /// bodies and MAP_GET responses).
  Bytes map_blob() const;

  /// Grows the fabric by one server and rebalances the minimal set of
  /// entries onto it (JOINING -> migrate -> UP, two map versions).
  /// Returns the new server id. Fails with FailedPrecondition under
  /// modulo routing, where a new server would re-home every entry.
  StatusOr<ServerId> join_server();

  /// Migrates every entry off `target` and retires it (DRAIN ->
  /// migrate -> DOWN, two map versions). The store object stays in
  /// place (ids are dense and stable) but ends empty and unroutable.
  Status drain_server(ServerId target);

  // ---- structure access ----------------------------------------------------

  std::size_t num_servers() const {
    std::shared_lock<std::shared_mutex> lk(membership_mu_);
    return stores_.size();
  }
  ShardedObjectStore& store(ServerId server) { return *store_ptr(server); }
  const ShardedObjectStore& store(ServerId server) const {
    return *store_ptr(server);
  }
  ShardedDirectory& directory() { return directory_; }
  const ShardedDirectory& directory() const { return directory_; }
  ThreadPool& pool() { return pool_; }

  // ---- rollups (never take a lock) ---------------------------------------

  std::size_t total_objects() const;
  std::size_t total_bytes() const;
  FabricStatsSnapshot stats() const;

  /// Aggregated over every server store and the directory.
  ShardMetricsSnapshot shard_metrics() const;

 private:
  /// Store pointer lookup under the membership lock. The pointee is
  /// stable across stores_ growth (unique_ptr targets don't move), so
  /// callers may keep using the raw pointer after the lock drops.
  ShardedObjectStore* store_ptr(ServerId server) const {
    std::shared_lock<std::shared_mutex> lk(membership_mu_);
    return stores_[server].get();
  }
  /// Routed home of `desc`'s base entity under `map`.
  ServerId home_under(const membership::PoolMap& map,
                      const ObjectDescriptor& desc) const;
  /// Copies every entry whose home under `map` differs from where it
  /// sits to that home. Returns the number of entries copied.
  std::size_t conform_pass(const membership::PoolMap& map);
  /// Erases entries whose home under `map` differs from where they sit,
  /// but only once the home already holds them (idempotent, safe after
  /// conform_pass). Returns the number erased.
  std::size_t retire_pass(const membership::PoolMap& map);
  /// Publishes `next` as the routing map (unique lock + version store).
  void publish(membership::PoolMap next);

  std::vector<std::unique_ptr<ShardedObjectStore>> stores_;
  ShardedDirectory directory_;
  ThreadPool pool_;
  FabricOptions options_;
  bool pool_dispatch_;
  /// Guards stores_ growth and map_ publication; routed ops take it
  /// shared for the pointer/ranking lookup only.
  mutable std::shared_mutex membership_mu_;
  membership::PoolMap map_;
  std::atomic<std::uint64_t> map_version_{0};
  mutable std::atomic<std::uint64_t> puts_{0};
  mutable std::atomic<std::uint64_t> gets_{0};
  mutable std::atomic<std::uint64_t> erases_{0};
  mutable std::atomic<std::uint64_t> put_failures_{0};
  mutable std::atomic<std::uint64_t> get_misses_{0};
};

}  // namespace corec::staging
