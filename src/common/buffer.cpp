#include "common/buffer.hpp"

#include <algorithm>
#include <utility>

#include "common/checksum.hpp"

namespace corec {

PayloadMetrics& payload_metrics() {
  static PayloadMetrics metrics;
  return metrics;
}

std::shared_ptr<PayloadBuffer::Rep> PayloadBuffer::make_rep(Bytes bytes) {
  auto rep = std::make_shared<Rep>();
  rep->bytes = std::move(bytes);
  rep->base = rep->bytes.data();
  rep->len = rep->bytes.size();
  payload_metrics().allocations.fetch_add(1, std::memory_order_relaxed);
  return rep;
}

std::shared_ptr<PayloadBuffer::Rep> PayloadBuffer::make_rep(
    slab::Block block) {
  auto rep = std::make_shared<Rep>();
  rep->block = std::move(block);
  rep->base = rep->block.data();
  rep->len = rep->block.size();
  payload_metrics().allocations.fetch_add(1, std::memory_order_relaxed);
  return rep;
}

PayloadBuffer PayloadBuffer::wrap(Bytes bytes) {
  PayloadBuffer buf;
  if (bytes.empty()) return buf;
  buf.size_ = bytes.size();
  buf.rep_ = make_rep(std::move(bytes));
  return buf;
}

PayloadBuffer PayloadBuffer::adopt(slab::Block block) {
  PayloadBuffer buf;
  if (block.empty()) return buf;
  buf.size_ = block.size();
  buf.rep_ = make_rep(std::move(block));
  return buf;
}

PayloadBuffer PayloadBuffer::from_pool(std::size_t size) {
  return adopt(slab::allocate(size));
}

PayloadBuffer PayloadBuffer::copy_of(ByteSpan data) {
  PayloadBuffer buf = from_pool(data.size());
  if (!data.empty()) {
    std::memcpy(buf.rep_->base, data.data(), data.size());
    payload_metrics().bytes_copied.fetch_add(data.size(),
                                             std::memory_order_relaxed);
  }
  return buf;
}

PayloadBuffer PayloadBuffer::zeros(std::size_t size) {
  PayloadBuffer buf = from_pool(size);
  if (size > 0) std::memset(buf.rep_->base, 0, size);
  return buf;
}

PayloadBuffer PayloadBuffer::slice(std::size_t offset,
                                   std::size_t length) const {
  PayloadBuffer view;
  if (length == 0 || rep_ == nullptr || offset >= size_) return view;
  if (length > size_ - offset) length = size_ - offset;
  view.rep_ = rep_;
  view.offset_ = offset_ + offset;
  view.size_ = length;
  // An identical view inherits the cached tags; a sub-range inherits
  // only when it is exactly one cached stripe piece, and must
  // recompute otherwise.
  if (offset == 0 && length == size_ && crc_valid_) {
    view.crc_ = crc_;
    view.crc_gen_ = crc_gen_;
    view.crc_valid_ = true;
    view.piece_count_ = piece_count_;
    std::copy_n(piece_crc_, piece_count_, view.piece_crc_);
  } else if (cached_piece(offset, length, &view.crc_)) {
    view.crc_gen_ = crc_gen_;
    view.crc_valid_ = true;
  }
  return view;
}

PayloadBuffer PayloadBuffer::padded_copy(std::size_t offset,
                                         std::size_t padded) const {
  const std::size_t have =
      offset < size_ ? std::min(padded, size_ - offset) : 0;
  PayloadBuffer copy = from_pool(padded);
  if (padded == 0) return copy;
  if (have > 0) {
    std::memcpy(copy.rep_->base, data() + offset, have);
    payload_metrics().bytes_copied.fetch_add(have,
                                             std::memory_order_relaxed);
  }
  std::memset(copy.rep_->base + have, 0, padded - have);
  std::uint32_t piece = 0;
  if (cached_piece(offset, have, &piece)) {
    copy.crc_ = crc32c_zero_extend(piece, padded - have);
    copy.crc_gen_ = copy.generation();
    copy.crc_valid_ = true;
  }
  return copy;
}

bool PayloadBuffer::cached_piece(std::size_t offset, std::size_t length,
                                 std::uint32_t* crc) const {
  if (!crc_valid_ || piece_count_ == 0 || crc_gen_ != generation()) {
    return false;
  }
  const std::size_t w = (size_ + piece_count_ - 1) / piece_count_;
  if (offset % w != 0 || offset / w >= piece_count_) return false;
  const std::size_t piece_len = offset < size_ ? std::min(w, size_ - offset)
                                              : 0;
  if (length != piece_len) return false;
  *crc = piece_crc_[offset / w];
  return true;
}

bool PayloadBuffer::sole_owner() const {
  if (rep_ == nullptr || rep_.use_count() != 1) return false;
  // The count was last written by the releasing view's acq_rel
  // decrement. Copying and dropping the pointer are acq_rel
  // read-modify-writes of that count, so they synchronize with it —
  // which a fence after the relaxed load would too, but a race
  // detector that does not model fences cannot see.
  std::shared_ptr<Rep> acquire = rep_;
  return true;
}

MutableByteSpan PayloadBuffer::mutable_span() {
  if (rep_ == nullptr || size_ == 0) return {};
  auto& metrics = payload_metrics();
  const bool shared = !sole_owner();
  const bool partial = offset_ != 0 || size_ != rep_->len;
  if (shared || partial) {
    auto priv = make_rep(slab::allocate(size_));
    std::memcpy(priv->base, rep_->base + offset_, size_);
    metrics.bytes_copied.fetch_add(size_, std::memory_order_relaxed);
    metrics.cow_detaches.fetch_add(1, std::memory_order_relaxed);
    rep_ = std::move(priv);
    offset_ = 0;
  }
  rep_->generation.fetch_add(1, std::memory_order_relaxed);
  crc_valid_ = false;
  piece_count_ = 0;
  return {rep_->base, size_};
}

PayloadBuffer PayloadBuffer::compacted(std::size_t max_waste_bytes) const {
  if (rep_ == nullptr || rep_->len - size_ <= max_waste_bytes) return *this;
  PayloadBuffer compact = copy_of(span());
  // Compacting preserves content, so an already-computed tag carries over.
  if (crc_valid_) {
    compact.crc_ = crc_;
    compact.crc_gen_ = compact.generation();
    compact.crc_valid_ = true;
  }
  return compact;
}

std::uint32_t PayloadBuffer::crc32c(std::size_t pieces) const {
  if (rep_ == nullptr || size_ == 0) return 0;
  auto& metrics = payload_metrics();
  const std::uint64_t gen = rep_->generation.load(std::memory_order_relaxed);
  if (crc_valid_ && crc_gen_ == gen) {
    metrics.crc_cache_hits.fetch_add(1, std::memory_order_relaxed);
    return crc_;
  }
  const std::uint8_t* p = data();
  piece_count_ = 0;
  if (pieces > 1 && pieces <= kMaxCrcPieces) {
    // One read of every byte: each piece from a zero seed, the whole
    // tag joined from the pieces.
    const std::size_t w = (size_ + pieces - 1) / pieces;
    std::uint32_t whole = 0;
    for (std::size_t i = 0; i < pieces; ++i) {
      const std::size_t begin = i * w;
      const std::size_t len = begin < size_ ? std::min(w, size_ - begin) : 0;
      piece_crc_[i] = len == 0 ? 0 : corec::crc32c(p + begin, len);
      whole = i == 0 ? piece_crc_[0]
                     : crc32c_combine(whole, piece_crc_[i], len);
    }
    crc_ = whole;
    piece_count_ = static_cast<std::uint8_t>(pieces);
  } else {
    crc_ = corec::crc32c(p, size_);
  }
  crc_gen_ = gen;
  crc_valid_ = true;
  metrics.crc_computed.fetch_add(1, std::memory_order_relaxed);
  metrics.crc_bytes.fetch_add(size_, std::memory_order_relaxed);
  return crc_;
}

Bytes PayloadBuffer::to_bytes() const {
  if (rep_ == nullptr || size_ == 0) return {};
  payload_metrics().bytes_copied.fetch_add(size_, std::memory_order_relaxed);
  const std::uint8_t* p = rep_->base + offset_;
  return Bytes(p, p + size_);
}

}  // namespace corec
