// The staged-object model: descriptors identify a (variable, version,
// region, shard) tuple — the DataSpaces object naming scheme extended
// with a shard index so erasure-coded chunk placement can reuse the same
// storage plumbing as whole objects.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/buffer.hpp"
#include "common/checksum.hpp"
#include "common/types.hpp"
#include "geom/bbox.hpp"

namespace corec::staging {

/// Shard index semantics: 0 = the whole object; 1..k = erasure data
/// chunk (i-1); k+1..k+m = parity chunk (i-k-1).
using ShardIndex = std::uint16_t;
inline constexpr ShardIndex kWholeObject = 0;

/// Unique name of a staged object (or one shard of it).
struct ObjectDescriptor {
  VarId var = 0;
  Version version = 0;
  geom::BoundingBox box;
  ShardIndex shard = kWholeObject;

  /// The same object without shard qualification.
  ObjectDescriptor base() const {
    return {var, version, box, kWholeObject};
  }

  /// Descriptor of shard `i` of this object.
  ObjectDescriptor shard_of(ShardIndex i) const {
    return {var, version, box, i};
  }

  std::string to_string() const;

  friend bool operator==(const ObjectDescriptor& a,
                         const ObjectDescriptor& b) {
    return a.var == b.var && a.version == b.version &&
           a.shard == b.shard && a.box == b.box;
  }
};

/// Hash functor for descriptor-keyed maps.
struct DescriptorHash {
  std::size_t operator()(const ObjectDescriptor& d) const;
};

/// A staged payload. Real payloads carry bytes; *phantom* payloads carry
/// only a size, letting the discrete-event substrate run paper-scale
/// volumes (hundreds of GB) without allocating them.
///
/// `data` is a refcounted view: copying a DataObject (replica placement,
/// store reads) shares the backing allocation, and mutation paths
/// (corruption injection) detach via copy-on-write.
struct DataObject {
  ObjectDescriptor desc;
  PayloadBuffer data;             // empty when phantom
  std::size_t logical_size = 0;   // always the true payload size
  std::uint32_t checksum = 0;     // CRC32C of `data` at creation; 0 if phantom
  bool phantom = false;

  /// Real-payload constructor; stamps the payload's CRC32C so every
  /// downstream copy carries its integrity tag.
  static DataObject real(ObjectDescriptor d, Bytes bytes) {
    return real(d, PayloadBuffer::wrap(std::move(bytes)));
  }

  /// Real payload from an existing (possibly shared) buffer. The CRC is
  /// computed through the buffer's generation-checked cache, so stamping
  /// a shard view whose tag was already computed costs nothing.
  /// `crc_pieces` > 1 also caches the tags of that many stripe-aligned
  /// pieces (see PayloadBuffer::crc32c), so a later k = crc_pieces
  /// stripe of this object stamps its data shards without re-reading
  /// them.
  static DataObject real(ObjectDescriptor d, PayloadBuffer buffer,
                         std::size_t crc_pieces = 1) {
    DataObject o;
    o.desc = d;
    o.logical_size = buffer.size();
    o.checksum = buffer.crc32c(crc_pieces);
    o.data = std::move(buffer);
    return o;
  }

  /// Real payload with a CRC the caller already knows (e.g. the
  /// directory-recorded tag during materialization). Skips the fresh
  /// CRC pass; the buffer cache stays unseeded so quarantine probes
  /// still genuinely verify the bytes. A zero tag on a non-empty
  /// payload falls back to computing one.
  static DataObject with_checksum(ObjectDescriptor d, PayloadBuffer buffer,
                                  std::uint32_t crc) {
    if (crc == 0) return real(d, std::move(buffer));
    DataObject o;
    o.desc = d;
    o.logical_size = buffer.size();
    o.checksum = crc;
    o.data = std::move(buffer);
    return o;
  }

  /// Phantom-payload constructor (size-only).
  static DataObject make_phantom(ObjectDescriptor d, std::size_t size) {
    DataObject o;
    o.desc = d;
    o.logical_size = size;
    o.phantom = true;
    return o;
  }
};

}  // namespace corec::staging
