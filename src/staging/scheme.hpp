// Resilience-scheme plug-in interface. The staging service owns routing,
// queueing and the read path; a scheme decides how each object is made
// durable (replicas vs erasure chunks), reacts to failures/replacements,
// and runs end-of-step housekeeping (classification, pool transitions,
// recovery sweeps).
#pragma once

#include <cstddef>
#include <string>

#include "common/types.hpp"
#include "staging/object.hpp"
#include "staging/request.hpp"

namespace corec::staging {

class StagingService;

/// Base class for resilience schemes (None/Replication/Erasure/Hybrid
/// baselines and CoREC itself).
class ResilienceScheme {
 public:
  virtual ~ResilienceScheme() = default;

  /// Display name, e.g. "corec", "replication".
  virtual std::string name() const = 0;

  /// Called once by the service after construction. Records
  /// stripe_width_hint() on the service; a forwarding scheme that binds
  /// its inner scheme after itself leaves the inner hint in place.
  virtual void bind(StagingService* service);

  /// Data-shard count k of the stripes this scheme makes (1 for schemes
  /// that never stripe). The service checksums each put as k
  /// stripe-aligned pieces, so the data shards of a later stripe
  /// inherit their CRCs instead of re-reading the bytes.
  virtual std::size_t stripe_width_hint() const { return 1; }

  /// Makes `obj` durable. Called after the client's payload has arrived
  /// at `primary` at virtual time `arrived`. The scheme stores the
  /// primary representation (copy or chunks), applies redundancy,
  /// charges the involved server queues, updates the directory, and
  /// returns the time at which the write is durable.
  ///
  /// `previous` is non-null when this write updates an existing region
  /// entity (same variable and box, older version); the scheme must
  /// retire the previous representation (stores + directory).
  virtual SimTime protect(const DataObject& obj, ServerId primary,
                          const ObjectDescriptor* previous,
                          SimTime arrived, Breakdown* bd) = 0;

  /// Invoked before the service reads `desc` (recover-on-access hook).
  virtual void on_access(const ObjectDescriptor& desc, SimTime now) {
    (void)desc;
    (void)now;
  }

  /// A server died and its store was cleared.
  virtual void on_server_failed(ServerId s, SimTime now) {
    (void)s;
    (void)now;
  }

  /// An empty replacement took over the failed server's identity.
  virtual void on_server_replaced(ServerId s, SimTime now) {
    (void)s;
    (void)now;
  }

  /// End-of-time-step housekeeping at virtual time `now`.
  virtual void end_of_step(Version step, SimTime now) {
    (void)step;
    (void)now;
  }

  /// Objects still awaiting repair (0 when fully recovered).
  virtual std::size_t repair_backlog() const { return 0; }

 protected:
  StagingService* service_ = nullptr;
};

}  // namespace corec::staging
