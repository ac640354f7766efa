// Length-prefixed binary RPC framing. Every message on a CoREC RPC
// connection is one frame: a fixed 28-byte header (magic, protocol
// version, opcode, status code, request id, body length, pool-map
// version) followed by `body_len` body bytes. The body payload format
// is the existing staging/wire encoding, so the RPC layer adds framing
// and routing but no second serialization scheme.
//
// FrameAssembler rebuilds frames incrementally from whatever chunk
// sizes the socket delivers (partial headers, partial bodies, many
// frames per read — all shapes). It recv()s into a pooled read buffer
// (kDefaultReadChunkBytes at a time) and slices every complete frame
// out of it per advance(), so a pipelined burst costs one syscall for
// many frames. Small bodies are zero-copy refcounted sub-views of the
// read buffer — the buffer is parked until the last sliced body
// releases it — while bodies above kDefaultInlineBodyCutover that are
// still mid-flight switch to a direct pool allocation so a multi-MiB
// put never pins (or overflows) the read buffer.
#pragma once

#include <cstdint>
#include <deque>

#include "common/buffer.hpp"
#include "common/slab.hpp"
#include "common/status.hpp"

namespace corec::rpc {

/// First four bytes of every frame ("CREC" little-endian).
inline constexpr std::uint32_t kFrameMagic = 0x43455243u;

/// Protocol version byte. Bump on any incompatible frame or body
/// layout change; peers reject frames from a different version.
/// v2: trailing u64 pool-map version (elastic membership).
inline constexpr std::uint8_t kProtocolVersion = 2;

/// Fixed encoded size of a FrameHeader.
inline constexpr std::size_t kFrameHeaderBytes = 28;

/// Default ceiling on declared body length. Frames claiming more are
/// rejected before any allocation, so a corrupt or hostile length
/// field can neither over-allocate nor stall the connection.
inline constexpr std::size_t kDefaultMaxFrameBytes = 64ull << 20;

/// Default pooled read-buffer size.
inline constexpr std::size_t kDefaultReadChunkBytes = 256u << 10;

/// Default cutover: a body at most this large assembles inside the
/// read buffer (zero-copy slice); a larger body still mid-flight
/// switches to its own direct allocation.
inline constexpr std::size_t kDefaultInlineBodyCutover = 64u << 10;

/// Fixed per-frame metadata.
struct FrameHeader {
  std::uint8_t version = kProtocolVersion;
  std::uint8_t opcode = 0;
  // 0 on requests and successful responses; the wire rendering of the
  // failing StatusCode on error responses (see protocol.hpp).
  std::uint16_t code = 0;
  std::uint64_t request_id = 0;
  std::uint32_t body_len = 0;
  // Pool-map version: on requests, the newest map the client has seen
  // (0 = none / map-oblivious); on responses, the server's current map
  // version. A server seeing a stale nonzero request version answers
  // kNotMyShard with its serialized map as the body.
  std::uint64_t map_version = 0;
};

/// Appends the 28-byte wire rendering of `header` to `out`.
void encode_frame_header(const FrameHeader& header, Bytes* out);

/// Decodes a header from exactly kFrameHeaderBytes. Rejects bad magic,
/// version mismatches, and body lengths above `max_body`.
StatusOr<FrameHeader> decode_frame_header(ByteSpan bytes,
                                          std::size_t max_body);

/// One fully reassembled frame. A small body is a refcounted slice of
/// the connection's read buffer (several frames from one recv share
/// that store); a large body owns its own pooled allocation.
struct Frame {
  FrameHeader header;
  PayloadBuffer body;
};

/// Shape of a FrameAssembler. Servers and clients set only max_body;
/// the buffer geometry is a seam for tests that force rotations with
/// tiny buffers.
struct FrameAssemblerOptions {
  /// Ceiling on declared body length.
  std::size_t max_body = kDefaultMaxFrameBytes;
  /// Pooled read-buffer size; raised to a floor that always leaves
  /// room for a partial header plus a partial inline body.
  std::size_t read_chunk_bytes = kDefaultReadChunkBytes;
  /// Largest body assembled in place inside the read buffer.
  std::size_t inline_body_cutover = kDefaultInlineBodyCutover;
};

/// Incremental frame reassembly for one connection.
///
/// Usage per readable event:
///   auto span = asm.next_span();
///   n = recv(fd, span.data(), span.size(), 0);
///   COREC_RETURN_IF_ERROR(asm.advance(n));
///   while (asm.frame_ready()) handle(asm.take_frame());
///
/// next_span() is the free tail of the pooled read buffer (or of a
/// large body's direct allocation), so one recv() can deliver many
/// frames; advance() parses them all and queues them for take_frame().
/// next_span() is empty only after a protocol error has poisoned the
/// assembler.
class FrameAssembler {
 public:
  FrameAssembler() : FrameAssembler(FrameAssemblerOptions{}) {}
  explicit FrameAssembler(FrameAssemblerOptions opts);

  /// Destination for the next socket read.
  MutableByteSpan next_span();

  /// Records that `n` bytes were read into next_span(). Fails (and
  /// poisons the assembler) on malformed headers; the connection must
  /// be dropped — resynchronizing inside a byte stream is impossible.
  Status advance(std::size_t n);

  /// True while at least one completed frame is queued.
  bool frame_ready() const { return !ready_frames_.empty(); }

  /// Pops the oldest completed frame. Precondition: frame_ready().
  Frame take_frame();

  /// True when a frame is partially assembled (a peer dying now dies
  /// mid-frame). Completed-but-untaken frames do not count.
  bool mid_frame() const { return in_direct_ || filled_ > parsed_; }

 private:
  // Ensures the read buffer exists and has free tail space, recycling
  // in place when fully parsed and unshared, or rotating to a fresh
  // pooled buffer (carrying the unparsed remnant) when full or parked
  // by outstanding body slices.
  void ensure_buffer();
  // Slices every complete frame out of [parsed_, filled_), switching
  // to direct assembly for large mid-flight bodies. Poisons on
  // malformed headers.
  Status parse();

  std::size_t max_body_;
  std::size_t chunk_;    // read buffer size, raised to the floor
  std::size_t cutover_;  // inline cutover, capped at max_body_
  bool poisoned_ = false;

  // The current read buffer, held as a full-store view so body slices
  // can share its Rep. base_ is captured at adoption (before any
  // slices exist) because writing the free tail must not trigger the
  // copy-on-write path that mutable_span() would take once shared.
  PayloadBuffer buf_;
  std::uint8_t* base_ = nullptr;
  std::size_t filled_ = 0;  // bytes received into the buffer
  std::size_t parsed_ = 0;  // bytes consumed by completed frames
  std::deque<Frame> ready_frames_;
  // Direct assembly of one large body (> cutover_, arrived partially).
  bool in_direct_ = false;
  FrameHeader direct_header_;
  slab::Block direct_block_;
  std::size_t direct_have_ = 0;
};

}  // namespace corec::rpc
