// End-to-end integrity: CRC32C known answers and the combine /
// zero-extension algebra, one CRC pass per staged byte through put and
// demotion, the erasure/corruption property suite (every erasure
// combination within tolerance round trips; checksum-flagged shards
// repair exactly like missing ones), the scrubber detect-and-repair
// loop, and the degenerate-size regressions (zero-length and
// single-byte payloads, empty coding regions).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "common/thread_pool.hpp"
#include "core/corec_scheme.hpp"
#include "erasure/parallel.hpp"
#include "erasure/stripe.hpp"
#include "resilience/scrubber.hpp"
#include "staging/object_store.hpp"
#include "staging/service.hpp"
#include "workloads/mechanisms.hpp"

namespace corec {
namespace {

using erasure::build_stripe;
using erasure::extract_payload;
using erasure::make_reed_solomon;
using erasure::repair_stripe;
using erasure::repair_stripe_verified;
using erasure::Stripe;
using erasure::verify_stripe;
using workloads::make_scheme;
using workloads::Mechanism;

Bytes pattern(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i * 3);
  }
  return b;
}

std::size_t popcount(std::size_t mask) {
  std::size_t n = 0;
  while (mask != 0) {
    n += mask & 1u;
    mask >>= 1;
  }
  return n;
}

// ---- CRC32C --------------------------------------------------------------

TEST(Crc32c, KnownAnswers) {
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
  // The CRC32C check value (iSCSI / RFC 3720 test vector).
  const char* digits = "123456789";
  EXPECT_EQ(crc32c(reinterpret_cast<const std::uint8_t*>(digits), 9),
            0xE3069283u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  Bytes b = pattern(300, 17);
  std::uint32_t full = crc32c(b.data(), b.size());
  std::uint32_t head = crc32c(b.data(), 100);
  EXPECT_EQ(crc32c(b.data() + 100, 200, head), full);
}

TEST(Crc32c, DetectsSingleBitFlips) {
  Bytes b = pattern(64, 5);
  std::uint32_t clean = crc32c(b.data(), b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] ^= 0x40;
    EXPECT_NE(crc32c(b.data(), b.size()), clean) << "offset " << i;
    b[i] ^= 0x40;
  }
}

// crc32c_combine / crc32c_zero_extend against a direct pass over the
// concatenation, over every pair of short lengths.
TEST(Crc32c, CombineAndZeroExtendMatchDirectOverShortLengths) {
  const Bytes a_all = pattern(257, 41);
  const Bytes b_all = pattern(257, 97);
  for (std::size_t la = 0; la <= 257; ++la) {
    const std::uint32_t crc_a = crc32c(a_all.data(), la);
    Bytes joined(a_all.begin(), a_all.begin() + la);
    Bytes padded = joined;
    for (std::size_t lb = 0; lb <= 257; ++lb) {
      if (lb > 0) {
        joined.push_back(b_all[lb - 1]);
        padded.push_back(0);
      }
      const std::uint32_t crc_b = crc32c(b_all.data(), lb);
      ASSERT_EQ(crc32c_combine(crc_a, crc_b, lb),
                crc32c(joined.data(), joined.size()))
          << "la " << la << " lb " << lb;
      ASSERT_EQ(crc32c_zero_extend(crc_a, lb),
                crc32c(padded.data(), padded.size()))
          << "la " << la << " zeros " << lb;
      // The chained-seed API computes the same concatenation.
      ASSERT_EQ(crc32c(b_all.data(), lb, crc_a),
                crc32c_combine(crc_a, crc_b, lb));
    }
  }
  const Bytes zeros(300, 0);
  EXPECT_EQ(crc32c_zero_extend(0, 300), crc32c(zeros.data(), zeros.size()));
}

// Stripe-aligned pieces (w = ceil(n / k), the last short or empty)
// joined with crc32c_combine reproduce the whole CRC at every chunk
// boundary, and the tail piece zero-extends to the padded chunk's CRC.
TEST(Crc32c, PieceTagsJoinToTheWholeTagAtChunkBoundaries) {
  std::mt19937_64 rng(20180521);
  std::vector<std::size_t> sizes = {1, 2, 3, 7, 8, 9, 63, 64, 65,
                                    4095, 4096, 4097, 32768, 65536 + 3};
  for (int i = 0; i < 6; ++i) sizes.push_back(1 + rng() % (1u << 20));
  for (std::size_t n : sizes) {
    Bytes data(n);
    for (auto& byte : data) byte = static_cast<std::uint8_t>(rng());
    const std::uint32_t whole = crc32c(data.data(), n);
    for (std::size_t k = 1; k <= 16; ++k) {
      const std::size_t w = (n + k - 1) / k;
      std::uint32_t joined = 0;
      std::uint32_t chained = 0;
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t begin = std::min(i * w, n);
        const std::size_t len = std::min(w, n - begin);
        const std::uint32_t piece = crc32c(data.data() + begin, len);
        joined = crc32c_combine(joined, piece, len);
        chained = crc32c(data.data() + begin, len, chained);
        ASSERT_EQ(joined, chained) << "n " << n << " k " << k;
        if (len < w) {
          Bytes tail(data.begin() + static_cast<std::ptrdiff_t>(begin),
                     data.begin() + static_cast<std::ptrdiff_t>(begin + len));
          tail.resize(w, 0);
          ASSERT_EQ(crc32c_zero_extend(piece, w - len),
                    crc32c(tail.data(), tail.size()))
              << "n " << n << " k " << k << " piece " << i;
        }
      }
      ASSERT_EQ(joined, whole) << "n " << n << " k " << k;
      auto buf = PayloadBuffer::copy_of(data);
      ASSERT_EQ(buf.crc32c(k), whole) << "n " << n << " k " << k;
    }
  }
}

// ---- one CRC pass per staged byte -------------------------------------------

staging::ServiceOptions corec_service_options() {
  staging::ServiceOptions opts;
  opts.topology = net::Topology(4, 2, 1);
  opts.domain = geom::BoundingBox::cube(0, 0, 0, 31, 31, 31);
  opts.fit.element_size = 1;
  opts.fit.target_bytes = 64u << 10;
  return opts;
}

// RS(3+1), one replica, and a floor equal to the erasure efficiency:
// every put is demoted at the end of its step.
core::CorecOptions demote_everything() {
  core::CorecOptions o;
  o.k = 3;
  o.m = 1;
  o.n_level = 1;
  o.efficiency_floor = 0.75;
  return o;
}

struct CorecHarness {
  CorecHarness()
      : scheme(new core::CorecScheme(demote_everything())),
        service(corec_service_options(), &sim,
                std::unique_ptr<staging::ResilienceScheme>(scheme)) {}

  std::pair<staging::ObjectDescriptor, staging::ObjectLocation> only() {
    std::pair<staging::ObjectDescriptor, staging::ObjectLocation> out;
    std::size_t n = 0;
    service.directory().for_each([&](const staging::ObjectDescriptor& d,
                                     const staging::ObjectLocation& l) {
      out = {d, l};
      ++n;
    });
    EXPECT_EQ(n, 1u);
    return out;
  }

  // Every stored shard matches its recorded CRC, and the data shards
  // hold exactly `payload`.
  void expect_stripe_holds(const Bytes& payload) {
    auto [desc, loc] = only();
    ASSERT_EQ(loc.protection, staging::Protection::kEncoded);
    EXPECT_EQ(loc.object_checksum, crc32c(payload.data(), payload.size()));
    Bytes data;
    for (std::size_t i = 0; i < loc.k + loc.m; ++i) {
      const auto* stored =
          service.server(loc.stripe_servers[i])
              .store.find(desc.shard_of(static_cast<staging::ShardIndex>(
                  1 + i)));
      ASSERT_NE(stored, nullptr) << "shard " << i;
      EXPECT_EQ(crc32c(stored->object.data.span()),
                staging::shard_checksum(loc, i))
          << "shard " << i;
      EXPECT_EQ(stored->object.checksum, staging::shard_checksum(loc, i));
      if (i < loc.k) {
        auto span = stored->object.data.span();
        data.insert(data.end(), span.begin(), span.end());
      }
    }
    data.resize(payload.size());
    EXPECT_EQ(data, payload);
  }

  sim::Simulation sim;
  core::CorecScheme* scheme;  // owned by service
  staging::StagingService service;
};

TEST(CrcOnePass, PutAndDemotionReadEachLogicalByteOnce) {
  CorecHarness h;
  const auto box = geom::BoundingBox::cube(0, 0, 0, 31, 31, 31);
  const Bytes payload = pattern(32u << 10, 11);
  ASSERT_EQ(box.volume(), payload.size());

  payload_metrics().reset();
  ASSERT_TRUE(h.service.put(1, 0, box, payload).status.ok());
  EXPECT_EQ(payload_metrics().crc_bytes.load(), payload.size());
  h.service.end_time_step(0);
  ASSERT_EQ(h.scheme->stats().demotions, 1u);

  // The put's single pass plus the parity; the data shards (two views
  // and a zero-padded tail) inherit their tags from the put.
  auto [desc, loc] = h.only();
  ASSERT_EQ(loc.protection, staging::Protection::kEncoded);
  EXPECT_EQ(payload_metrics().crc_bytes.load(),
            payload.size() + loc.m * loc.chunk_size);
  EXPECT_EQ(h.service.integrity().quarantined, 0u);
  h.expect_stripe_holds(payload);

  Bytes out;
  ASSERT_TRUE(h.service.get(1, 0, box, &out).status.ok());
  EXPECT_EQ(out, payload);
}

TEST(CrcOnePass, FlippedPrimaryIsQuarantinedNotStamped) {
  CorecHarness h;
  const auto box = geom::BoundingBox::cube(0, 0, 0, 31, 31, 31);
  const Bytes payload = pattern(32u << 10, 29);
  ASSERT_TRUE(h.service.put(1, 0, box, payload).status.ok());
  auto [desc, loc] = h.only();
  ASSERT_EQ(loc.protection, staging::Protection::kReplicated);
  // Corrupt the first data chunk's bytes on the primary: its put-time
  // piece tags must die with the mutation.
  ASSERT_TRUE(h.service.corrupt_at(loc.primary, desc, 100));

  h.service.end_time_step(0);
  ASSERT_EQ(h.scheme->stats().demotions, 1u);
  EXPECT_EQ(h.service.integrity().quarantined, 1u);
  EXPECT_EQ(h.service.integrity().mismatches, 1u);
  // The stripe was built from the clean replica.
  h.expect_stripe_holds(payload);
  Bytes out;
  ASSERT_TRUE(h.service.get(1, 0, box, &out).status.ok());
  EXPECT_EQ(out, payload);
}

// ---- property: all erasure combinations within tolerance -----------------

TEST(IntegrityProperty, EveryErasureComboWithinToleranceRoundTrips) {
  struct Config {
    std::size_t k, m;
  };
  for (Config c : std::vector<Config>{{2, 1}, {3, 1}, {3, 2}, {4, 2},
                                      {6, 3}}) {
    auto codec_or = make_reed_solomon(c.k, c.m);
    ASSERT_TRUE(codec_or.ok());
    const auto& codec = *codec_or.value();
    std::vector<Bytes> payloads;
    std::vector<ByteSpan> spans;
    for (std::size_t i = 0; i < c.k; ++i) {
      payloads.push_back(
          pattern(40 + 13 * i, static_cast<std::uint8_t>(i + 1)));
    }
    for (const auto& p : payloads) spans.emplace_back(p);
    auto stripe_or = build_stripe(codec, spans);
    ASSERT_TRUE(stripe_or.ok());
    const Stripe& base = stripe_or.value();
    const std::size_t n = c.k + c.m;

    for (std::size_t mask = 1; mask < (std::size_t{1} << n); ++mask) {
      if (popcount(mask) > c.m) continue;
      Stripe s = base;
      std::vector<std::size_t> erased;
      for (std::size_t i = 0; i < n; ++i) {
        if ((mask >> i) & 1u) {
          erased.push_back(i);
          std::fill(s.blocks[i].begin(), s.blocks[i].end(), 0xAA);
        }
      }
      ASSERT_TRUE(repair_stripe(codec, &s, erased).ok())
          << "k=" << c.k << " m=" << c.m << " mask=" << mask;
      for (std::size_t i = 0; i < c.k; ++i) {
        auto p = extract_payload(s, i);
        ASSERT_TRUE(p.ok());
        EXPECT_EQ(p.value(), payloads[i])
            << "k=" << c.k << " m=" << c.m << " mask=" << mask
            << " payload " << i;
      }
    }
  }
}

TEST(IntegrityProperty, ChecksumFlaggedShardsRepairLikeMissing) {
  auto codec_or = make_reed_solomon(4, 2);
  ASSERT_TRUE(codec_or.ok());
  const auto& codec = *codec_or.value();
  std::vector<Bytes> payloads;
  std::vector<ByteSpan> spans;
  for (std::size_t i = 0; i < 4; ++i) {
    payloads.push_back(pattern(70 + i, static_cast<std::uint8_t>(i + 9)));
  }
  for (const auto& p : payloads) spans.emplace_back(p);
  auto base_or = build_stripe(codec, spans);
  ASSERT_TRUE(base_or.ok());
  const Stripe& base = base_or.value();
  const std::size_t n = base.n();

  // Silently corrupt every pair of blocks: verify flags exactly those
  // two, and verified repair restores every payload.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      Stripe s = base;
      s.blocks[i][3] ^= 0xFF;
      s.blocks[j][7] ^= 0x01;
      EXPECT_EQ(verify_stripe(s), (std::vector<std::size_t>{i, j}));
      ASSERT_TRUE(repair_stripe_verified(codec, &s, {}).ok())
          << "corrupt pair " << i << "," << j;
      EXPECT_TRUE(verify_stripe(s).empty());
      for (std::size_t p = 0; p < 4; ++p) {
        auto got = extract_payload(s, p);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value(), payloads[p]);
      }
    }
  }

  // Mixed: one silent corruption plus one explicit erasure.
  {
    Stripe s = base;
    s.blocks[1][0] ^= 0x40;
    std::fill(s.blocks[4].begin(), s.blocks[4].end(), 0);
    ASSERT_TRUE(repair_stripe_verified(codec, &s, {4}).ok());
    for (std::size_t p = 0; p < 4; ++p) {
      EXPECT_EQ(extract_payload(s, p).value(), payloads[p]);
    }
  }

  // Beyond tolerance: two corruptions plus an erasure is three losses
  // against m=2 — the repair must refuse, exactly like three erasures.
  {
    Stripe s = base;
    s.blocks[0][1] ^= 0x10;
    s.blocks[2][2] ^= 0x20;
    EXPECT_FALSE(repair_stripe_verified(codec, &s, {5}).ok());
  }
}

// ---- scrubber: detect + repair injected bit flips ------------------------

staging::ServiceOptions scrub_service_options() {
  auto opts = workloads::table1_service_options();
  opts.domain = geom::BoundingBox::cube(0, 0, 0, 31, 31, 31);
  opts.fit.target_bytes = 4096;
  return opts;
}

TEST(Scrubber, DetectsAndRepairsInjectedBitFlips) {
  sim::Simulation sim;
  staging::StagingService service(scrub_service_options(), &sim,
                                  make_scheme(Mechanism::kErasure));
  auto box = geom::BoundingBox::cube(0, 0, 0, 15, 15, 15);
  std::vector<Bytes> payloads;
  for (VarId var = 1; var <= 3; ++var) {
    payloads.push_back(pattern(static_cast<std::size_t>(box.volume()),
                               static_cast<std::uint8_t>(var * 31)));
    ASSERT_TRUE(service.put(var, 0, box, payloads.back()).status.ok());
  }

  // Flip a byte in the first data shard of every encoded entity.
  std::size_t injected = 0;
  service.directory().for_each(
      [&](const staging::ObjectDescriptor& desc,
          const staging::ObjectLocation& loc) {
        if (loc.protection != staging::Protection::kEncoded) return;
        if (service.corrupt_at(loc.stripe_servers[0], desc.shard_of(1),
                               5)) {
          ++injected;
        }
      });
  ASSERT_GE(injected, 1u);

  resilience::Scrubber scrub(
      &service,
      {.mtbf_seconds = 0.4, .batches = 4, .repair = true,
       .continuous = false});
  scrub.run_pass(sim.now());
  EXPECT_EQ(scrub.stats().corruptions_found, injected);
  EXPECT_GE(scrub.stats().repairs_triggered, injected);
  EXPECT_EQ(service.integrity().mismatches, injected);
  EXPECT_EQ(service.integrity().quarantined, injected);

  // Every read after the scrub serves pristine bytes.
  for (VarId var = 1; var <= 3; ++var) {
    Bytes out;
    ASSERT_TRUE(service.get(var, 0, box, &out).status.ok());
    EXPECT_EQ(out, payloads[static_cast<std::size_t>(var - 1)]);
  }

  // A second pass over the repaired stores finds nothing new.
  const auto found_before = scrub.stats().corruptions_found;
  const auto missing_before = scrub.stats().missing_found;
  scrub.run_pass(sim.now());
  EXPECT_EQ(scrub.stats().corruptions_found, found_before);
  EXPECT_EQ(scrub.stats().missing_found, missing_before);
}

TEST(Scrubber, DetectOnlyModeCountsWithoutRepair) {
  sim::Simulation sim;
  staging::StagingService service(scrub_service_options(), &sim,
                                  make_scheme(Mechanism::kErasure));
  auto box = geom::BoundingBox::cube(0, 0, 0, 15, 15, 15);
  ASSERT_TRUE(service
                  .put(1, 0, box,
                       pattern(static_cast<std::size_t>(box.volume()), 77))
                  .status.ok());
  std::size_t injected = 0;
  service.directory().for_each(
      [&](const staging::ObjectDescriptor& desc,
          const staging::ObjectLocation& loc) {
        if (loc.protection != staging::Protection::kEncoded) return;
        if (service.corrupt_at(loc.stripe_servers[0], desc.shard_of(1),
                               9)) {
          ++injected;
        }
      });
  ASSERT_GE(injected, 1u);
  resilience::Scrubber scrub(
      &service,
      {.mtbf_seconds = 0.4, .batches = 1, .repair = false,
       .continuous = false});
  scrub.run_pass(sim.now());
  EXPECT_EQ(scrub.stats().corruptions_found, injected);
  EXPECT_EQ(scrub.stats().repairs_triggered, 0u);
}

// ---- degenerate sizes ----------------------------------------------------

TEST(IntegrityEdge, EmptyPayloadChecksumIsSentinelFree) {
  // A zero-length real object's CRC is 0 — the "nothing recorded"
  // sentinel — so verification is skipped rather than tripped.
  staging::ObjectDescriptor desc{1, 0,
                                 geom::BoundingBox::cube(0, 0, 0, 0, 0, 0),
                                 staging::kWholeObject};
  auto obj = staging::DataObject::real(desc, Bytes{});
  EXPECT_EQ(obj.checksum, 0u);

  staging::ObjectStore store(0);
  ASSERT_TRUE(store.put(std::move(obj), staging::StoredKind::kPrimary).ok());
  // Nothing to corrupt in an empty payload.
  EXPECT_FALSE(store.flip_byte(desc, 0));
}

TEST(IntegrityEdge, ZeroLengthPayloadsThroughStripe) {
  auto codec_or = make_reed_solomon(3, 2);
  ASSERT_TRUE(codec_or.ok());
  const auto& codec = *codec_or.value();
  Bytes empty;
  Bytes one{0x5A};
  auto stripe_or =
      build_stripe(codec, {ByteSpan(empty), ByteSpan(one), ByteSpan(empty)});
  ASSERT_TRUE(stripe_or.ok());
  Stripe s = std::move(stripe_or).value();
  EXPECT_EQ(s.block_size, 1u);
  EXPECT_TRUE(verify_stripe(s).empty());

  std::fill(s.blocks[1].begin(), s.blocks[1].end(), 0);
  ASSERT_TRUE(repair_stripe_verified(codec, &s, {1}).ok());
  EXPECT_TRUE(extract_payload(s, 0).value().empty());
  EXPECT_EQ(extract_payload(s, 1).value(), one);
  EXPECT_TRUE(extract_payload(s, 2).value().empty());
}

TEST(IntegrityEdge, SingleByteObjectThroughServiceAndScrub) {
  sim::Simulation sim;
  staging::StagingService service(scrub_service_options(), &sim,
                                  make_scheme(Mechanism::kErasure));
  auto box = geom::BoundingBox::cube(0, 0, 0, 0, 0, 0);
  Bytes payload{0x5A};
  ASSERT_TRUE(service.put(1, 0, box, payload).status.ok());
  Bytes out;
  ASSERT_TRUE(service.get(1, 0, box, &out).status.ok());
  EXPECT_EQ(out, payload);

  std::size_t injected = 0;
  service.directory().for_each(
      [&](const staging::ObjectDescriptor& desc,
          const staging::ObjectLocation& loc) {
        if (loc.protection != staging::Protection::kEncoded) return;
        if (service.corrupt_at(loc.stripe_servers[0], desc.shard_of(1),
                               0)) {
          ++injected;
        }
      });
  ASSERT_GE(injected, 1u);
  resilience::Scrubber scrub(
      &service,
      {.mtbf_seconds = 0.4, .batches = 1, .repair = true,
       .continuous = false});
  scrub.run_pass(sim.now());
  EXPECT_GE(scrub.stats().corruptions_found, 1u);
  out.clear();
  ASSERT_TRUE(service.get(1, 0, box, &out).status.ok());
  EXPECT_EQ(out, payload);
}

TEST(IntegrityEdge, ParallelCoderOnEmptyRegions) {
  auto codec_or = make_reed_solomon(3, 2);
  ASSERT_TRUE(codec_or.ok());
  ThreadPool pool(2);
  erasure::ParallelCoder parallel(*codec_or.value(), &pool);

  // Zero-length blocks: encode and decode must both be clean no-ops.
  std::vector<Bytes> data_bufs(3);
  std::vector<Bytes> parity_bufs(2);
  std::vector<ByteSpan> data;
  std::vector<MutableByteSpan> parity;
  for (auto& d : data_bufs) data.emplace_back(d);
  for (auto& p : parity_bufs) parity.emplace_back(p);
  EXPECT_TRUE(parallel.encode(data, parity).ok());

  std::vector<Bytes> blocks_bufs(5);
  std::vector<MutableByteSpan> blocks;
  for (auto& b : blocks_bufs) blocks.emplace_back(b);
  EXPECT_TRUE(parallel.decode(blocks, {1}).ok());
}

}  // namespace
}  // namespace corec
