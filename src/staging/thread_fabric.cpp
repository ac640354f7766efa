#include "staging/thread_fabric.hpp"

#include <thread>
#include <utility>

#include "membership/placement.hpp"

namespace corec::staging {

namespace {

std::size_t default_workers() {
  std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

}  // namespace

ThreadFabric::ThreadFabric(std::size_t num_servers, FabricOptions options)
    : directory_(options.directory_shards),
      pool_(options.workers == 0 ? default_workers() : options.workers),
      options_(options),
      pool_dispatch_(options.pool_dispatch) {
  if (num_servers == 0) num_servers = 1;
  stores_.reserve(num_servers);
  for (std::size_t s = 0; s < num_servers; ++s) {
    stores_.push_back(std::make_unique<ShardedObjectStore>(
        options.server_capacity, options.store_shards));
  }
  // Flat domain layout: the fabric has no cabinet topology, so every
  // target sits on its own node of cabinet 0.
  map_ = membership::PoolMap::initial(num_servers, num_servers, 1);
  map_version_.store(map_.version(), std::memory_order_release);
}

Status ThreadFabric::put(ServerId server, DataObject object,
                         StoredKind kind) {
  puts_.fetch_add(1, std::memory_order_relaxed);
  Status st = store_ptr(server)->put(std::move(object), kind);
  if (!st.ok()) put_failures_.fetch_add(1, std::memory_order_relaxed);
  return st;
}

StatusOr<StoredObject> ThreadFabric::get(
    ServerId server, const ObjectDescriptor& desc) const {
  gets_.fetch_add(1, std::memory_order_relaxed);
  auto found = store_ptr(server)->get(desc);
  if (!found.ok()) get_misses_.fetch_add(1, std::memory_order_relaxed);
  return found;
}

bool ThreadFabric::erase(ServerId server, const ObjectDescriptor& desc) {
  erases_.fetch_add(1, std::memory_order_relaxed);
  return store_ptr(server)->erase(desc);
}

ServerId ThreadFabric::home_under(const membership::PoolMap& map,
                                  const ObjectDescriptor& desc) const {
  return membership::place_one(
      map, membership::mix64(DescriptorHash{}(desc.base())), 0);
}

ServerId ThreadFabric::route(const ObjectDescriptor& desc) const {
  std::shared_lock<std::shared_mutex> lk(membership_mu_);
  if (pool_dispatch_) {
    ServerId home = membership::place_one(
        map_, membership::mix64(DescriptorHash{}(desc.base())), 0);
    if (home != kInvalidServer) return home;
  }
  return static_cast<ServerId>(DescriptorHash{}(desc.base()) %
                               stores_.size());
}

Status ThreadFabric::put(DataObject object, StoredKind kind) {
  ServerId s = route(object.desc);
  return put(s, std::move(object), kind);
}

StatusOr<StoredObject> ThreadFabric::get(
    const ObjectDescriptor& desc) const {
  return get(route(desc), desc);
}

bool ThreadFabric::erase(const ObjectDescriptor& desc) {
  return erase(route(desc), desc);
}

void ThreadFabric::async_put(ServerId server, DataObject object,
                             StoredKind kind,
                             std::function<void(Status)> done) {
  pool_.submit([this, server, object = std::move(object), kind,
                done = std::move(done)]() mutable {
    Status st = put(server, std::move(object), kind);
    if (done) done(std::move(st));
  });
}

void ThreadFabric::async_get(
    ServerId server, ObjectDescriptor desc,
    std::function<void(StatusOr<StoredObject>)> done) {
  pool_.submit([this, server, desc, done = std::move(done)] {
    done(get(server, desc));
  });
}

void ThreadFabric::async_erase(ServerId server, ObjectDescriptor desc,
                               std::function<void(bool)> done) {
  pool_.submit([this, server, desc, done = std::move(done)] {
    bool erased = erase(server, desc);
    if (done) done(erased);
  });
}

std::size_t ThreadFabric::total_objects() const {
  std::shared_lock<std::shared_mutex> lk(membership_mu_);
  std::size_t sum = 0;
  for (const auto& store : stores_) sum += store->count();
  return sum;
}

std::size_t ThreadFabric::total_bytes() const {
  std::shared_lock<std::shared_mutex> lk(membership_mu_);
  std::size_t sum = 0;
  for (const auto& store : stores_) sum += store->total_bytes();
  return sum;
}

FabricStatsSnapshot ThreadFabric::stats() const {
  FabricStatsSnapshot snap;
  snap.puts = puts_.load(std::memory_order_relaxed);
  snap.gets = gets_.load(std::memory_order_relaxed);
  snap.erases = erases_.load(std::memory_order_relaxed);
  snap.put_failures = put_failures_.load(std::memory_order_relaxed);
  snap.get_misses = get_misses_.load(std::memory_order_relaxed);
  return snap;
}

ShardMetricsSnapshot ThreadFabric::shard_metrics() const {
  std::shared_lock<std::shared_mutex> lk(membership_mu_);
  ShardMetricsSnapshot snap;
  for (const auto& store : stores_) snap.merge(store->shard_metrics());
  snap.merge(directory_.shard_metrics());
  return snap;
}

// ---- elastic membership ---------------------------------------------------

membership::PoolMap ThreadFabric::pool_map_copy() const {
  std::shared_lock<std::shared_mutex> lk(membership_mu_);
  return map_;
}

Bytes ThreadFabric::map_blob() const {
  Bytes blob;
  pool_map_copy().encode(&blob);
  return blob;
}

void ThreadFabric::publish(membership::PoolMap next) {
  std::unique_lock<std::shared_mutex> lk(membership_mu_);
  map_ = std::move(next);
  map_version_.store(map_.version(), std::memory_order_release);
}

std::size_t ThreadFabric::conform_pass(const membership::PoolMap& map) {
  struct Move {
    StoredObject entry;
    ServerId to;
  };
  std::size_t copied = 0;
  std::size_t n;
  {
    std::shared_lock<std::shared_mutex> lk(membership_mu_);
    n = stores_.size();
  }
  for (ServerId s = 0; s < n; ++s) {
    ShardedObjectStore* from = store_ptr(s);
    // Collect first, act after: put/erase on the shard being iterated
    // would self-deadlock on its shared lock.
    std::vector<Move> moves;
    from->for_each([&](const StoredObject& entry) {
      ServerId home = home_under(map, entry.object.desc);
      if (home != kInvalidServer && home != s)
        moves.push_back({entry, home});
    });
    for (auto& m : moves) {
      if (store_ptr(m.to)->put(m.entry.object, m.entry.kind).ok())
        ++copied;
    }
  }
  return copied;
}

std::size_t ThreadFabric::retire_pass(const membership::PoolMap& map) {
  std::size_t erased = 0;
  std::size_t n;
  {
    std::shared_lock<std::shared_mutex> lk(membership_mu_);
    n = stores_.size();
  }
  for (ServerId s = 0; s < n; ++s) {
    ShardedObjectStore* from = store_ptr(s);
    std::vector<ObjectDescriptor> stale;
    from->for_each([&](const StoredObject& entry) {
      ServerId home = home_under(map, entry.object.desc);
      if (home != kInvalidServer && home != s)
        stale.push_back(entry.object.desc);
    });
    for (const auto& desc : stale) {
      // Only retire once the new home demonstrably holds the entry —
      // idempotent and safe to re-run after an interrupted migration.
      ServerId home = home_under(map, desc);
      if (store_ptr(home)->contains(desc) && from->erase(desc)) ++erased;
    }
  }
  return erased;
}

StatusOr<ServerId> ThreadFabric::join_server() {
  membership::PoolMap next;
  ServerId id;
  {
    std::unique_lock<std::shared_mutex> lk(membership_mu_);
    if (!pool_dispatch_)
      return Status::FailedPrecondition(
          "join_server requires pool_dispatch routing");
    id = static_cast<ServerId>(stores_.size());
    stores_.push_back(std::make_unique<ShardedObjectStore>(
        options_.server_capacity, options_.store_shards));
    next = map_;
    next.add_target(/*cabinet=*/0, /*node=*/static_cast<std::uint16_t>(id));
  }
  // Copy entries to the homes the JOINING map dictates while the old
  // map still routes, publish, then re-conform whatever raced in under
  // the old map before erasing stale copies: gets never miss.
  conform_pass(next);
  publish(std::move(next));
  membership::PoolMap published = pool_map_copy();
  conform_pass(published);
  retire_pass(published);
  {
    std::unique_lock<std::shared_mutex> lk(membership_mu_);
    (void)map_.set_state(id, membership::TargetState::kUp);
    map_version_.store(map_.version(), std::memory_order_release);
  }
  return id;
}

Status ThreadFabric::drain_server(ServerId target) {
  membership::PoolMap next;
  {
    std::unique_lock<std::shared_mutex> lk(membership_mu_);
    if (!pool_dispatch_)
      return Status::FailedPrecondition(
          "drain_server requires pool_dispatch routing");
    if (target >= stores_.size())
      return Status::FailedPrecondition("unknown server");
    next = map_;
    Status st = next.set_state(target, membership::TargetState::kDrain);
    if (!st.ok()) return st;
    if (next.placement_count() == 0)
      return Status::FailedPrecondition(
          "cannot drain the last placement-eligible target");
  }
  // Same copy-publish-erase dance as join: move everything off the
  // target under the drained ranking, cut routing over, sweep
  // stragglers that landed while the copy ran, then empty the target.
  conform_pass(next);
  publish(std::move(next));
  membership::PoolMap published = pool_map_copy();
  conform_pass(published);
  retire_pass(published);
  {
    std::unique_lock<std::shared_mutex> lk(membership_mu_);
    (void)map_.set_state(target, membership::TargetState::kDown);
    map_version_.store(map_.version(), std::memory_order_release);
  }
  return Status::Ok();
}

}  // namespace corec::staging
