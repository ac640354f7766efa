// Baseline resilience schemes from the paper's evaluation:
//  * NoneScheme        — plain data staging, no fault tolerance
//                        ("DataSpaces" bars in Figure 8).
//  * ReplicationScheme — every object gets N_level extra copies
//                        ("Replicate").
//  * ErasureScheme     — every object is striped k+m across its coding
//                        group, with aggressive recovery ("Erasure",
//                        "Erasure+1f/2f").
//  * RandomHybridScheme— simple hybrid erasure coding: objects flip a
//                        weighted coin between replication and erasure
//                        on every write, with no data classification
//                        ("Hybrid").
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "staging/scheme.hpp"

namespace corec::resilience {

/// No fault tolerance: a single primary copy.
class NoneScheme final : public staging::ResilienceScheme {
 public:
  std::string name() const override { return "none"; }
  SimTime protect(const staging::DataObject& obj, ServerId primary,
                  const staging::ObjectDescriptor* previous,
                  SimTime arrived, staging::Breakdown* bd) override;
};

/// N-way replication with grouped placement.
class ReplicationScheme final : public staging::ResilienceScheme {
 public:
  /// `n_level` = number of replicas = failures tolerated.
  explicit ReplicationScheme(std::size_t n_level) : n_level_(n_level) {}

  std::string name() const override { return "replication"; }
  SimTime protect(const staging::DataObject& obj, ServerId primary,
                  const staging::ObjectDescriptor* previous,
                  SimTime arrived, staging::Breakdown* bd) override;
  void on_server_replaced(ServerId s, SimTime now) override;

 private:
  std::size_t n_level_;
};

/// How an update of an already-encoded object maintains its parity.
enum class EcUpdateMode {
  /// Section II-A's baseline behaviour: read the stripe's peer chunks,
  /// re-encode, redistribute ("5 data object reads, 2 parity
  /// recomputes, 2 parity writes" in the paper's 6+2 example).
  kReconstructWrite,
  /// Fresh encode: when the writer holds the complete new payload, new
  /// parity can be computed from it directly, skipping the peer reads.
  /// Isolates how much of the erasure baseline's update cost is the
  /// read-old-data step (ablation).
  kFreshEncode,
};

/// Pure erasure coding (k data + m parity chunks per object) with an
/// aggressive recovery strategy: every lost shard is rebuilt the moment
/// a replacement server joins.
class ErasureScheme final : public staging::ResilienceScheme {
 public:
  ErasureScheme(std::size_t k, std::size_t m,
                EcUpdateMode update_mode = EcUpdateMode::kReconstructWrite)
      : k_(k), m_(m), update_mode_(update_mode) {}

  std::string name() const override { return "erasure"; }
  std::size_t stripe_width_hint() const override { return k_; }
  SimTime protect(const staging::DataObject& obj, ServerId primary,
                  const staging::ObjectDescriptor* previous,
                  SimTime arrived, staging::Breakdown* bd) override;
  void on_server_replaced(ServerId s, SimTime now) override;

 private:
  std::size_t k_;
  std::size_t m_;
  EcUpdateMode update_mode_;
};

/// Simple hybrid erasure coding: no classification; each write chooses
/// replication with probability `p_replicate` (derived from the storage
/// constraint) and erasure coding otherwise. Because the coin is
/// re-flipped on every update, objects oscillate between the two
/// representations — the switching cost the paper attributes to this
/// baseline arises naturally.
class RandomHybridScheme final : public staging::ResilienceScheme {
 public:
  RandomHybridScheme(std::size_t k, std::size_t m, std::size_t n_level,
                     double p_replicate)
      : k_(k), m_(m), n_level_(n_level), p_replicate_(p_replicate) {}

  std::string name() const override { return "hybrid-random"; }
  std::size_t stripe_width_hint() const override { return k_; }
  SimTime protect(const staging::DataObject& obj, ServerId primary,
                  const staging::ObjectDescriptor* previous,
                  SimTime arrived, staging::Breakdown* bd) override;
  void on_server_replaced(ServerId s, SimTime now) override;

  double p_replicate() const { return p_replicate_; }

 private:
  std::size_t k_;
  std::size_t m_;
  std::size_t n_level_;
  double p_replicate_;
};

}  // namespace corec::resilience
