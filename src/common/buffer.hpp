// Byte buffers and a small binary serialization layer used by the staging
// transport for message payloads and metadata records.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/slab.hpp"
#include "common/status.hpp"

namespace corec {

/// Owned byte payload of a staged object or wire message.
using Bytes = std::vector<std::uint8_t>;

/// Read-only view over bytes (non-owning).
using ByteSpan = std::span<const std::uint8_t>;

/// Mutable view over bytes (non-owning).
using MutableByteSpan = std::span<std::uint8_t>;

/// Process-wide counters for payload-buffer traffic. The benches read
/// these to prove replication is O(1) allocations per object and that
/// unmutated reads skip CRC recompute; tests reset() them per case.
struct PayloadMetrics {
  std::atomic<std::uint64_t> allocations{0};    // backing stores created
  std::atomic<std::uint64_t> bytes_copied{0};   // bytes memcpy'd into them
  std::atomic<std::uint64_t> cow_detaches{0};   // private copies on mutate
  std::atomic<std::uint64_t> crc_computed{0};   // full CRC32C passes
  std::atomic<std::uint64_t> crc_bytes{0};      // bytes those passes read
  std::atomic<std::uint64_t> crc_cache_hits{0}; // recomputes avoided

  // Slab-pool traffic (maintained by corec::slab). outstanding_bytes is
  // a gauge (live block capacity), so reset() leaves it alone —
  // zeroing it while blocks are live would corrupt the accounting.
  std::atomic<std::uint64_t> pool_hits{0};      // served from a free list
  std::atomic<std::uint64_t> pool_misses{0};    // fresh heap carve
  std::atomic<std::uint64_t> pool_oversize{0};  // above largest class
  std::atomic<std::int64_t> pool_outstanding_bytes{0};

  void reset() {
    allocations.store(0, std::memory_order_relaxed);
    bytes_copied.store(0, std::memory_order_relaxed);
    cow_detaches.store(0, std::memory_order_relaxed);
    crc_computed.store(0, std::memory_order_relaxed);
    crc_bytes.store(0, std::memory_order_relaxed);
    crc_cache_hits.store(0, std::memory_order_relaxed);
    pool_hits.store(0, std::memory_order_relaxed);
    pool_misses.store(0, std::memory_order_relaxed);
    pool_oversize.store(0, std::memory_order_relaxed);
  }
};

PayloadMetrics& payload_metrics();

/// Refcounted, logically-immutable byte buffer with cheap slicing.
///
/// Copying a PayloadBuffer bumps a refcount on the shared backing store;
/// N-way replica placement therefore costs N pointer copies, not N
/// payload copies. `slice()` produces views into the same store, so
/// erasure transitions can feed chunk views straight into encode_view
/// with zero concatenation. Mutation goes through `mutable_span()`,
/// which takes a private copy first when the store is shared
/// (copy-on-write) — fault injection on one replica can never alias
/// into its siblings.
///
/// Each mutation bumps the store's generation counter; `crc32c()`
/// caches the last computed tag against that generation, so unmutated
/// reads skip recompute while a corrupted buffer always re-checksums.
/// The cache only ever holds values computed from the bytes themselves
/// (by this view, or by the view it was sliced or copied from) —
/// claimed tags from the wire never seed it.
///
/// `crc32c(pieces)` fills the cache with the CRCs of `pieces`
/// stripe-aligned pieces as well as the whole tag (joined with
/// crc32c_combine, one read of every byte). A slice that is exactly one
/// such piece inherits its tag, and padded_copy() of the short tail
/// piece zero-extends it, so striping a checksummed object never
/// re-reads its data bytes.
///
/// Thread-safety: the refcount and generation are atomic, so distinct
/// views may be copied/read concurrently (ParallelCoder workers read
/// shared views). Mutating a view, or calling crc32c() on the *same*
/// view from two threads, requires external synchronization — the
/// simulator is single-threaded, and ShardedObjectStore holds its
/// per-shard writer lock across mutations, which satisfies this.
class PayloadBuffer {
 public:
  PayloadBuffer() = default;

  /// Takes ownership of `bytes` as a new backing store (one allocation,
  /// zero copies).
  static PayloadBuffer wrap(Bytes bytes);

  /// Takes ownership of a slab block as a new backing store; the view
  /// covers the block's requested size. Zero copies; the block returns
  /// to the pool when the last view drops.
  static PayloadBuffer adopt(slab::Block block);

  /// A fresh pool-backed store of `size` uninitialized bytes.
  static PayloadBuffer from_pool(std::size_t size);

  /// Copies `data` into a fresh pool-backed store.
  static PayloadBuffer copy_of(ByteSpan data);

  /// A fresh zero-filled pool-backed store of `size` bytes.
  static PayloadBuffer zeros(std::size_t size);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::uint8_t* data() const {
    return rep_ == nullptr ? nullptr : rep_->base + offset_;
  }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }
  ByteSpan span() const { return {data(), size_}; }
  ByteSpan subspan(std::size_t offset, std::size_t length) const {
    return span().subspan(offset, length);
  }

  /// View of `[offset, offset+length)` sharing this backing store. An
  /// identical view inherits the cached tag, and a view that is exactly
  /// one cached stripe piece inherits that piece's tag.
  PayloadBuffer slice(std::size_t offset, std::size_t length) const;

  /// A fresh pool-backed store of `padded` bytes: this view's bytes
  /// from `offset` (as many as exist, up to `padded`) followed by
  /// zeros. When the copied bytes are exactly one cached stripe piece
  /// (the short tail of a stripe), the copy's tag is that piece's CRC
  /// zero-extended, so the padded shard is not re-read.
  PayloadBuffer padded_copy(std::size_t offset, std::size_t padded) const;

  /// View of the first `length` bytes sharing this backing store.
  PayloadBuffer prefix(std::size_t length) const { return slice(0, length); }

  /// True when both views share one backing store.
  bool shares_with(const PayloadBuffer& other) const {
    return rep_ != nullptr && rep_ == other.rep_;
  }

  /// Number of views over this backing store (0 for the empty buffer).
  long use_count() const { return rep_ == nullptr ? 0 : rep_.use_count(); }

  /// True when this is the only view over its backing store. Unlike
  /// use_count() == 1 (a relaxed load), a true result also orders every
  /// other view's release — and its reads of the bytes — before the
  /// return, so the caller may then overwrite the store in place.
  bool sole_owner() const;

  /// Bytes of backing store this view keeps alive (>= size() for a
  /// slice). The serving path uses this to decide when a small view is
  /// parking a large read buffer and should be compacted instead.
  std::size_t store_size() const { return rep_ == nullptr ? 0 : rep_->len; }

  /// Returns *this when the view wastes at most `max_waste_bytes` of
  /// backing store, otherwise a compact pool-backed copy — releasing
  /// the large store once all other views drop.
  PayloadBuffer compacted(std::size_t max_waste_bytes) const;

  /// Mutation epoch of the backing store; bumps on every mutable_span().
  std::uint64_t generation() const {
    return rep_ == nullptr
               ? 0
               : rep_->generation.load(std::memory_order_relaxed);
  }

  /// Writable access. Detaches to a private copy first when the store
  /// is shared or this view covers only part of it; always bumps the
  /// generation so cached CRC tags are invalidated.
  MutableByteSpan mutable_span();

  /// CRC32C of this view, cached per (view, generation). With
  /// `pieces` > 1 a fresh computation also caches the CRCs of the
  /// pieces [i*w, min((i+1)*w, size())), w = ceil(size() / pieces) —
  /// the data chunks of a k = `pieces` stripe — for slice() and
  /// padded_copy() to inherit. The whole tag is the same either way.
  std::uint32_t crc32c(std::size_t pieces = 1) const;

  /// Materializes an owned copy of this view's bytes.
  Bytes to_bytes() const;

  friend bool operator==(const PayloadBuffer& a, const PayloadBuffer& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 ||
            std::memcmp(a.data(), b.data(), a.size_) == 0);
  }
  friend bool operator==(const PayloadBuffer& a, const Bytes& b) {
    return a.size_ == b.size() &&
           (a.size_ == 0 ||
            std::memcmp(a.data(), b.data(), a.size_) == 0);
  }

 private:
  // Backing store: either an owned Bytes vector (wrap()) or a slab
  // block (from_pool()/adopt()). base/len describe the store
  // uniformly; neither backing ever reallocates, so raw pointers into
  // the store stay valid for the Rep's lifetime.
  struct Rep {
    Bytes bytes;
    slab::Block block;
    std::uint8_t* base = nullptr;
    std::size_t len = 0;
    std::atomic<std::uint64_t> generation{0};
  };

  // Stripe widths up to this keep their piece tags; wider stripes fall
  // back to reading their data shards. Inline, so tagging a put adds
  // no allocation.
  static constexpr std::size_t kMaxCrcPieces = 8;

  static std::shared_ptr<Rep> make_rep(Bytes bytes);
  static std::shared_ptr<Rep> make_rep(slab::Block block);

  // Cached tag of the piece starting at `offset` if it spans exactly
  // `length` bytes and the cache is current; false otherwise.
  bool cached_piece(std::size_t offset, std::size_t length,
                    std::uint32_t* crc) const;

  std::shared_ptr<Rep> rep_;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
  // Last CRC this view computed, valid while the store's generation
  // still matches crc_gen_, with the tags of its piece_count_ stripe
  // pieces (0: none; piece width ceil(size_ / piece_count_)).
  // Mutable: crc32c() is logically const.
  mutable std::uint32_t crc_ = 0;
  mutable bool crc_valid_ = false;
  mutable std::uint8_t piece_count_ = 0;
  mutable std::uint64_t crc_gen_ = 0;
  mutable std::uint32_t piece_crc_[kMaxCrcPieces] = {};
};

/// Appends POD values and length-prefixed blobs to a growing byte vector.
/// Little-endian fixed-width encoding: deterministic across platforms we
/// target and trivially fast.
class BufferWriter {
 public:
  explicit BufferWriter(Bytes* out) : out_(out) {}

  /// Pre-sizes for `extra` more bytes. Encoders that know their output
  /// length call this once up front instead of growing per-field.
  void reserve(std::size_t extra) { out_->reserve(out_->size() + extra); }

  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    out_->insert(out_->end(), p, p + sizeof(T));
  }

  void put_bytes(ByteSpan data) {
    put<std::uint64_t>(data.size());
    out_->insert(out_->end(), data.begin(), data.end());
  }

  void put_string(const std::string& s) {
    put<std::uint64_t>(s.size());
    out_->insert(out_->end(), s.begin(), s.end());
  }

 private:
  Bytes* out_;
};

/// Default ceiling on a single length-prefixed blob/string a
/// BufferReader will accept. Network-facing decoders pass a tighter
/// limit; the default guards even trusted-file paths against a corrupt
/// length field turning into a giant allocation.
inline constexpr std::size_t kDefaultMaxBlobBytes = 256u << 20;

/// Sequentially decodes values previously written by BufferWriter.
///
/// Hardened against hostile input (frames come off the network): every
/// read is bounds-checked in overflow-safe form (`n > remaining()`
/// rather than `pos_ + n > size()`, which wraps for huge declared
/// lengths), and length-prefixed fields are rejected before allocation
/// when the declared length exceeds either the bytes actually present
/// or the configured `max_blob` ceiling.
class BufferReader {
 public:
  explicit BufferReader(ByteSpan data,
                        std::size_t max_blob = kDefaultMaxBlobBytes)
      : data_(data), max_blob_(max_blob) {}

  template <typename T>
  Status get(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (sizeof(T) > remaining()) {
      return Status::InvalidArgument("buffer underrun");
    }
    std::memcpy(v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::Ok();
  }

  Status get_bytes(Bytes* out) {
    std::uint64_t n = 0;
    COREC_RETURN_IF_ERROR(check_blob_length(&n, "blob"));
    out->assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return Status::Ok();
  }

  Status get_string(std::string* out) {
    std::uint64_t n = 0;
    COREC_RETURN_IF_ERROR(check_blob_length(&n, "string"));
    out->assign(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return Status::Ok();
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t max_blob() const { return max_blob_; }

 private:
  /// Reads a length prefix and validates it against both the bytes
  /// remaining and the blob ceiling, without ever computing pos_ + n.
  Status check_blob_length(std::uint64_t* n, const char* what) {
    COREC_RETURN_IF_ERROR(get(n));
    if (*n > max_blob_) {
      return Status::InvalidArgument(
          std::string("declared ") + what + " length exceeds max");
    }
    if (*n > remaining()) {
      return Status::InvalidArgument(std::string("buffer underrun (") +
                                     what + ")");
    }
    return Status::Ok();
  }

  ByteSpan data_;
  std::size_t pos_ = 0;
  std::size_t max_blob_;
};

/// FNV-1a 64-bit content hash; used for integrity checks in tests and for
/// deterministic payload generation fingerprints.
inline std::uint64_t fnv1a(ByteSpan data) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace corec
