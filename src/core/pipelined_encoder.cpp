#include "core/pipelined_encoder.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

#include "common/failpoint.hpp"
#include "resilience/primitives.hpp"

namespace corec::core {

using resilience::place_encoded;
using resilience::register_encoded;
using resilience::store_stripe_shard;
using resilience::stripe_layout;
using resilience::StripePayload;
using staging::Breakdown;
using staging::DataObject;
using staging::ShardIndex;

PipelinedEncoder::PipelinedEncoder(staging::StagingService* service,
                                   EncodingWorkflow* workflow, std::size_t k,
                                   std::size_t m,
                                   const PipelineOptions& options)
    : service_(service),
      workflow_(workflow),
      k_(std::max<std::size_t>(k, 1)),
      m_(m),
      options_(options) {}

std::size_t PipelinedEncoder::encoded_footprint(std::size_t logical) const {
  const std::size_t chunk = (logical + k_ - 1) / k_;
  return chunk * (k_ + m_);
}

void PipelinedEncoder::enqueue(DataObject obj, ServerId primary,
                               std::vector<ServerId> holders) {
  pending_encoded_bytes_ += encoded_footprint(obj.logical_size);
  queue_.push_back(Pending{std::move(obj), primary, std::move(holders)});
}

SimTime PipelinedEncoder::drain(SimTime now, Breakdown* bd) {
  if (queue_.empty()) return now;
  std::vector<Pending> work;
  work.swap(queue_);
  pending_encoded_bytes_ = 0;

  SimTime last_durable = now;
  for (Pending& p : work) {
    last_durable = std::max(last_durable, encode_one(p, now, bd));
  }
  return last_durable;
}

SimTime PipelinedEncoder::encode_one(Pending& p, SimTime now,
                                     Breakdown* bd) {
  const auto& cost = service_->cost();
  const DataObject& obj = p.obj;
  const std::size_t n = k_ + m_;
  const std::size_t chunk =
      (obj.logical_size + k_ - 1) / std::max<std::size_t>(k_, 1);

  // Source CRC verification, as on the per-object and batched paths:
  // never re-encode bytes that no longer match their recorded checksum.
  SimTime ready = now;
  if (!obj.phantom) {
    SimTime verify = cost.copy_time(obj.logical_size);
    bd->copy += verify;
    ready += verify;
    if (obj.checksum != 0 && obj.data.crc32c() != obj.checksum) {
      ++stats_.verify_skipped_corrupt;
      return now;
    }
  }

  // The ring: live holders (primary first), clamped to the requested
  // hop limit and to k — with more hops than data chunks some hop
  // would have an empty coefficient run.
  std::vector<ServerId> ring;
  for (ServerId h : p.holders) {
    if (service_->alive(h) &&
        std::find(ring.begin(), ring.end(), h) == ring.end()) {
      ring.push_back(h);
    }
  }
  std::size_t max_ring = k_;
  if (options_.max_hops != 0) max_ring = std::min(max_ring, options_.max_hops);
  if (ring.size() > max_ring) ring.resize(max_ring);

  if (ring.empty()) {
    // Every holder is gone; the payload survives only in this buffer.
    // Encode centrally from any live server (no ring, no token group
    // preference worth honoring).
    ServerId fb = kInvalidServer;
    for (std::size_t s = 0; s < service_->num_servers(); ++s) {
      if (service_->alive(static_cast<ServerId>(s))) {
        fb = static_cast<ServerId>(s);
        break;
      }
    }
    if (fb == kInvalidServer) return now;  // total cluster loss
    SimTime t0 = workflow_->acquire(fb, ready);
    ++stats_.token_acquires;
    SimTime encode_done = t0;
    SimTime durable = place_encoded(*service_, obj, p.primary, k_, m_, fb,
                                    t0, bd, &encode_done, nullptr);
    workflow_->release(fb, encode_done);
    ++stats_.fallbacks;
    ++stats_.objects;
    stats_.payload_bytes += obj.logical_size;
    return durable;
  }

  const std::size_t R = ring.size();
  // Contiguous coefficient runs: hop j folds chunks
  // [run_start[j], run_start[j] + run_len[j]).
  std::vector<std::size_t> run_len(R), run_start(R);
  {
    const std::size_t base = k_ / R;
    const std::size_t extra = k_ % R;
    std::size_t at = 0;
    for (std::size_t j = 0; j < R; ++j) {
      run_start[j] = at;
      run_len[j] = base + (j < extra ? 1 : 0);
      at += run_len[j];
    }
  }

  // Real bytes: the data shards exactly as make_stripe_payload builds
  // them (zero concatenation, put-time CRC pieces inherited, only a
  // padded tail materializes) plus one shared parity allocation the
  // ring hops accumulate into.
  StripePayload stripe_payload;
  stripe_payload.chunk_size = chunk;
  std::vector<ByteSpan> data_spans(k_);
  PayloadBuffer parity;
  std::vector<MutableByteSpan> parity_spans(m_);
  if (!obj.phantom) {
    stripe_payload.shards.reserve(n);
    resilience::stripe_data_shards(obj, k_, chunk, &stripe_payload.shards);
    for (std::size_t i = 0; i < k_; ++i) {
      data_spans[i] = stripe_payload.shards[i].data.span();
    }
    parity = PayloadBuffer::zeros(chunk * m_);
    MutableByteSpan parity_all = parity.mutable_span();
    for (std::size_t j = 0; j < m_; ++j) {
      parity_spans[j] = parity_all.subspan(j * chunk, chunk);
    }
  }

  // One token hold covers the whole ring (the front hop's group): the
  // ring replaces the single-encoder critical section, it does not
  // escape the workflow's conflict avoidance.
  const SimTime start = workflow_->acquire(ring.front(), ready);
  ++stats_.token_acquires;

  const erasure::Codec& codec = service_->codec(
      static_cast<std::uint32_t>(k_), static_cast<std::uint32_t>(m_));

  // Per-drain per-node attribution, folded into the stats maxima below.
  std::map<ServerId, std::uint64_t> node_bytes;
  std::map<ServerId, SimTime> node_cpu;

  // ---- the ring ----------------------------------------------------
  // Hop j: receive + CRC-check the partial-parity frame, fold its
  // coefficient run with the fused partial kernels, forward. Timing and
  // real bytes advance together; nothing is stored until the ring
  // completes, so an abort leaves no partial stripe behind.
  std::vector<SimTime> hop_done(R, start);
  bool aborted = false;
  bool pending_corrupt = false;  // in-flight frame damaged last hop
  SimTime abort_time = start;
  SimTime hop_ready = start;
  std::size_t hops_run = 0;
  for (std::size_t j = 0; j < R && !aborted; ++j) {
    if (j > 0) {
      // Frame receive: request overhead plus the CRC sweep over the
      // m partial-parity chunks. The frame CRC was computed by the
      // sender before any in-flight damage, so a mismatch is certain
      // to be caught here.
      SimTime vfy = cost.copy_time(m_ * chunk);
      bd->copy += vfy;
      hop_ready = service_->serve_at(
          ring[j], hop_ready + cost.request_overhead, vfy);
      if (pending_corrupt) {
        ++stats_.corrupt_partials;
        aborted = true;
        abort_time = hop_ready;
        break;
      }
    }
    if (auto fp = COREC_FAILPOINT("pipeline.hop.kill");
        fp && service_->num_alive() > 1) {
      service_->kill_server(ring[j]);
      aborted = true;
      abort_time = hop_ready;
      break;
    }
    // Fold this hop's run into the partial parity.
    SimTime enc = cost.encode_time(run_len[j], m_, chunk);
    bd->encode += enc;
    SimTime done = service_->serve_at(ring[j], hop_ready, enc);
    hop_done[j] = done;
    node_cpu[ring[j]] += enc;
    ++hops_run;
    if (!obj.phantom && chunk > 0 && m_ > 0 && run_len[j] > 0) {
      Status st = codec.encode_partial_view(
          &data_spans[run_start[j]], run_start[j], run_len[j],
          parity_spans.data(), m_, /*accumulate=*/j > 0);
      assert(st.ok());
      (void)st;
    }
    if (j + 1 < R) {
      // Forward the accumulated parity frame to the next hop.
      if (auto fp = COREC_FAILPOINT("pipeline.hop.corrupt_partial")) {
        if (!obj.phantom && chunk * m_ > 0) {
          std::size_t off = static_cast<std::size_t>(fp.rng) % (chunk * m_);
          parity.mutable_span()[off] ^= 0x01;
        }
        pending_corrupt = true;
      }
      SimTime ptx = cost.transfer_time(m_ * chunk);
      bd->transport += ptx;
      node_bytes[ring[j]] += static_cast<std::uint64_t>(m_) * chunk;
      hop_ready = done + ptx;
    }
  }
  stats_.hops += hops_run;

  if (aborted) {
    // Mid-ring failure: fall back to the centralized encoder over the
    // surviving holders (any live server if none survive), under the
    // same token hold. place_encoded re-derives parity from the source
    // buffer, so a corrupted partial frame is simply discarded.
    std::vector<ServerId> survivors;
    for (ServerId h : p.holders) {
      if (service_->alive(h)) survivors.push_back(h);
    }
    ServerId fb = kInvalidServer;
    if (!survivors.empty()) {
      fb = workflow_->pick_encoder(survivors, abort_time);
    } else {
      for (std::size_t s = 0; s < service_->num_servers(); ++s) {
        if (service_->alive(static_cast<ServerId>(s))) {
          fb = static_cast<ServerId>(s);
          break;
        }
      }
    }
    if (fb == kInvalidServer) {
      workflow_->release(ring.front(), abort_time);
      return now;  // total cluster loss
    }
    SimTime encode_done = abort_time;
    SimTime durable = place_encoded(*service_, obj, p.primary, k_, m_, fb,
                                    abort_time, bd, &encode_done, nullptr);
    workflow_->release(ring.front(), encode_done);
    node_bytes[fb] += static_cast<std::uint64_t>(n - 1) * chunk;
    for (auto& [s, b] : node_bytes) {
      (void)s;
      stats_.max_node_bytes_moved = std::max(stats_.max_node_bytes_moved, b);
    }
    for (auto& [s, t] : node_cpu) {
      (void)s;
      stats_.max_node_cpu = std::max(stats_.max_node_cpu, t);
    }
    ++stats_.fallbacks;
    ++stats_.objects;
    stats_.payload_bytes += obj.logical_size;
    return durable;
  }

  const SimTime t_parity = hop_done[R - 1];

  // Parity shards: views into the accumulated buffer, CRC-stamped like
  // make_stripe_payload's output (bit-identical bytes, so identical
  // CRCs and directory records).
  if (!obj.phantom) {
    for (std::size_t j = 0; j < m_; ++j) {
      stripe_payload.shards.push_back(DataObject::real(
          obj.desc.shard_of(static_cast<ShardIndex>(1 + k_ + j)),
          parity.slice(j * chunk, chunk)));
    }
  }

  // ---- shard distribution ------------------------------------------
  // Each hop sends its own chunk run from its own link as soon as its
  // fold completes (overlapping later hops' compute); the final hop
  // additionally distributes the m parity shards once the ring is
  // done. Per-hop link serialization: the parity forward occupies the
  // sender's link first, then its data chunks serialize behind it.
  std::vector<ServerId> stripe =
      stripe_layout(*service_, obj.desc.box, p.primary, n);
  std::vector<std::uint32_t> shard_crcs(n, 0);
  SimTime durable = t_parity;
  const StripePayload* sp = obj.phantom ? nullptr : &stripe_payload;
  for (std::size_t j = 0; j < R; ++j) {
    SimTime serialized =
        j + 1 < R ? cost.transfer_time(m_ * chunk) - cost.link_latency : 0;
    auto send_shard = [&](std::size_t i, SimTime from) {
      ServerId target = stripe[i];
      store_stripe_shard(*service_, obj, sp, i, k_, chunk, target,
                         &shard_crcs);
      SimTime arrival = from;
      if (target != ring[j]) {
        serialized += cost.transfer_time(chunk) - cost.link_latency;
        bd->transport += cost.transfer_time(chunk);
        node_bytes[ring[j]] += chunk;
        arrival = from + cost.link_latency + serialized;
      }
      SimTime service_time = cost.copy_time(chunk);
      bd->copy += service_time;
      durable = std::max(durable,
                         service_->serve_at(target, arrival, service_time));
    };
    for (std::size_t c = 0; c < run_len[j]; ++c) {
      send_shard(run_start[j] + c, hop_done[j]);
    }
    if (j + 1 == R) {
      for (std::size_t pI = 0; pI < m_; ++pI) {
        send_shard(k_ + pI, t_parity);
      }
    }
  }
  workflow_->release(ring.front(), t_parity);

  SimTime total =
      register_encoded(*service_, obj, p.primary, std::move(stripe), k_, m_,
                       chunk, std::move(shard_crcs), durable, bd);

  for (auto& [s, b] : node_bytes) {
    (void)s;
    stats_.max_node_bytes_moved = std::max(stats_.max_node_bytes_moved, b);
  }
  for (auto& [s, t] : node_cpu) {
    (void)s;
    stats_.max_node_cpu = std::max(stats_.max_node_cpu, t);
  }
  ++stats_.ring_encodes;
  ++stats_.objects;
  stats_.payload_bytes += obj.logical_size;
  return total;
}

}  // namespace corec::core
