// Buffered multi-frame receive path + slab pool: slab size-class and
// recycling behavior, multi-frame slicing out of one chunk, frame
// splits at every byte offset across buffer refills, tiny-frame
// floods, refcount parking of the read buffer, the direct large-body
// path, golden wire bytes for the put/get/error/redirect frames, and a
// loopback round trip across the inline cutover up to multi-MiB
// bodies. Runs under the asan leg with COREC_SLAB_POISON=1 so stale
// views over recycled slabs fault.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "common/buffer.hpp"
#include "common/slab.hpp"
#include "membership/pool_map.hpp"
#include "rpc/client.hpp"
#include "rpc/frame.hpp"
#include "rpc/protocol.hpp"
#include "rpc/server.hpp"
#include "rpc/socket.hpp"

namespace corec::rpc {
namespace {

Bytes pattern_bytes(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return b;
}

// Appends one frame (header + body) to `stream`.
void append_frame(Bytes* stream, std::uint64_t request_id,
                  const Bytes& body) {
  FrameHeader h;
  h.opcode = static_cast<std::uint8_t>(OpCode::kPing);
  h.request_id = request_id;
  h.body_len = static_cast<std::uint32_t>(body.size());
  encode_frame_header(h, stream);
  stream->insert(stream->end(), body.begin(), body.end());
}

// Feeds `stream` into `assembler` in chunks of at most `chunk` bytes,
// collecting every completed frame.
std::vector<Frame> feed(FrameAssembler& assembler, const Bytes& stream,
                        std::size_t chunk) {
  std::vector<Frame> frames;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    MutableByteSpan span = assembler.next_span();
    EXPECT_FALSE(span.empty());
    if (span.empty()) break;
    const std::size_t n =
        std::min({chunk, span.size(), stream.size() - pos});
    std::memcpy(span.data(), stream.data() + pos, n);
    pos += n;
    Status st = assembler.advance(n);
    EXPECT_TRUE(st.ok()) << st.to_string();
    if (!st.ok()) break;
    while (assembler.frame_ready()) {
      frames.push_back(assembler.take_frame());
    }
  }
  return frames;
}

// ---- slab pool -----------------------------------------------------------

TEST(Slab, ClassCapacityRounding) {
  EXPECT_EQ(slab::class_capacity(0), 0u);
  EXPECT_EQ(slab::class_capacity(1), slab::kMinClassBytes);
  EXPECT_EQ(slab::class_capacity(64), 64u);
  EXPECT_EQ(slab::class_capacity(65), 128u);
  EXPECT_EQ(slab::class_capacity(4096), 4096u);
  EXPECT_EQ(slab::class_capacity(4097), 8192u);
  EXPECT_EQ(slab::class_capacity(slab::kMaxClassBytes),
            slab::kMaxClassBytes);
  // Oversize requests are exact heap allocations, not rounded.
  EXPECT_EQ(slab::class_capacity(slab::kMaxClassBytes + 1),
            slab::kMaxClassBytes + 1);
}

TEST(Slab, RecycledBlocksServeFromPoolWithoutMalloc) {
  auto& pm = payload_metrics();
  // Warm one block of the class into this thread's magazine.
  { slab::Block warm = slab::allocate(1000); }
  const std::uint64_t misses0 = pm.pool_misses.load();
  const std::uint64_t hits0 = pm.pool_hits.load();
  for (int i = 0; i < 10; ++i) {
    slab::Block b = slab::allocate(1000);
    ASSERT_FALSE(b.empty());
    EXPECT_EQ(b.size(), 1000u);
    EXPECT_EQ(b.capacity(), 1024u);
    b.data()[0] = 0x5A;  // must be writable
  }
  EXPECT_EQ(pm.pool_misses.load(), misses0) << "steady state must not malloc";
  EXPECT_EQ(pm.pool_hits.load(), hits0 + 10);
}

TEST(Slab, OutstandingBytesTracksLiveCapacity) {
  auto& pm = payload_metrics();
  const std::int64_t base = pm.pool_outstanding_bytes.load();
  {
    slab::Block b = slab::allocate(5000);
    EXPECT_EQ(pm.pool_outstanding_bytes.load(),
              base + static_cast<std::int64_t>(b.capacity()));
  }
  EXPECT_EQ(pm.pool_outstanding_bytes.load(), base);
}

TEST(Slab, OversizeFallsThroughToHeap) {
  auto& pm = payload_metrics();
  const std::uint64_t misses0 = pm.pool_misses.load();
  const std::uint64_t oversize0 = pm.pool_oversize.load();
  slab::Block b = slab::allocate(slab::kMaxClassBytes + 1);
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b.capacity(), slab::kMaxClassBytes + 1);
  EXPECT_EQ(pm.pool_oversize.load(), oversize0 + 1);
  EXPECT_EQ(pm.pool_misses.load(), misses0);
}

// ---- buffered assembler: slicing -----------------------------------------

TEST(BufferedAssembler, ManyFramesFromOneAdvanceShareOneStore) {
  Bytes stream;
  std::vector<Bytes> bodies;
  for (int i = 0; i < 5; ++i) {
    bodies.push_back(pattern_bytes(100 + i * 33, static_cast<std::uint8_t>(i)));
    append_frame(&stream, 100 + i, bodies.back());
  }
  FrameAssembler assembler;
  // The whole stream arrives as one "recv".
  std::vector<Frame> frames = feed(assembler, stream, stream.size());
  ASSERT_EQ(frames.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(frames[i].header.request_id, 100u + i);
    EXPECT_TRUE(frames[i].body == bodies[i]);
    // Zero-copy: every small body is a slice of the same read buffer.
    EXPECT_TRUE(frames[i].body.shares_with(frames[0].body));
  }
}

TEST(BufferedAssembler, EmptyBodiesAndBackToBackHeaders) {
  Bytes stream;
  for (int i = 0; i < 40; ++i) append_frame(&stream, i, {});
  FrameAssembler assembler;
  std::vector<Frame> frames = feed(assembler, stream, stream.size());
  ASSERT_EQ(frames.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(frames[i].header.request_id, static_cast<std::uint64_t>(i));
    EXPECT_TRUE(frames[i].body.empty());
  }
}

TEST(BufferedAssembler, FramesSplitAtEveryByteOffsetAcrossRefills) {
  // Tiny read buffer (normalized to ~184 B with a 64 B cutover) so the
  // stream crosses many buffer rotations; bodies straddle the cutover
  // in both directions, including two direct-mode large bodies.
  FrameAssemblerOptions opts;
  opts.read_chunk_bytes = 1;  // normalized up to the floor
  opts.inline_body_cutover = 64;

  Bytes stream;
  std::vector<Bytes> bodies = {
      {},                       // empty
      pattern_bytes(1, 11),     // 1 B
      pattern_bytes(37, 12),    // small
      pattern_bytes(64, 13),    // exactly the cutover
      pattern_bytes(150, 14),   // > cutover: direct mode
      pattern_bytes(500, 15),   // > chunk: direct mode across refills
      pattern_bytes(3, 16),     // small after a direct body
  };
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    append_frame(&stream, i + 1, bodies[i]);
  }

  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    FrameAssembler assembler(opts);
    std::vector<Frame> frames = feed(assembler, stream, chunk);
    ASSERT_EQ(frames.size(), bodies.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      EXPECT_EQ(frames[i].header.request_id, i + 1) << "chunk " << chunk;
      ASSERT_TRUE(frames[i].body == bodies[i])
          << "chunk " << chunk << " frame " << i;
    }
    EXPECT_FALSE(assembler.mid_frame());
  }
}

TEST(BufferedAssembler, TinyFrameFloodRecyclesWithoutFreshAllocations) {
  FrameAssemblerOptions opts;
  opts.read_chunk_bytes = 4096;
  opts.inline_body_cutover = 64;
  FrameAssembler assembler(opts);

  // Warm-up round so the buffer and slab magazines exist.
  Bytes warm;
  append_frame(&warm, 0, pattern_bytes(3, 9));
  (void)feed(assembler, warm, warm.size());

  auto& pm = payload_metrics();
  const std::uint64_t misses0 = pm.pool_misses.load();
  for (int round = 0; round < 2000; ++round) {
    Bytes stream;
    for (int i = 0; i < 5; ++i) {
      append_frame(&stream, round * 5 + i,
                   pattern_bytes(static_cast<std::size_t>(i % 4), 21));
    }
    std::vector<Frame> frames = feed(assembler, stream, stream.size());
    ASSERT_EQ(frames.size(), 5u);
    // Frames (and their body slices) drop here, un-parking the buffer.
  }
  // 10k frames served from the recycled read buffer: no pool misses.
  EXPECT_EQ(pm.pool_misses.load(), misses0);
}

// ---- refcount parking ----------------------------------------------------

TEST(BufferedAssembler, ParkedBodySurvivesBufferRotations) {
  FrameAssemblerOptions opts;
  opts.read_chunk_bytes = 1;  // tiny buffer: rotations every few frames
  opts.inline_body_cutover = 64;
  FrameAssembler assembler(opts);

  const Bytes held_body = pattern_bytes(48, 77);
  Bytes first;
  append_frame(&first, 1, held_body);
  std::vector<Frame> frames = feed(assembler, first, first.size());
  ASSERT_EQ(frames.size(), 1u);
  PayloadBuffer held = frames[0].body;  // parks the read buffer
  frames.clear();
  EXPECT_GT(held.store_size(), held.size());

  // Pump many more frames through: the parked buffer must rotate away
  // rather than be recycled underneath `held`.
  for (int round = 0; round < 200; ++round) {
    Bytes stream;
    append_frame(&stream, 100 + round, pattern_bytes(48, 78));
    std::vector<Frame> more = feed(assembler, stream, stream.size());
    ASSERT_EQ(more.size(), 1u);
  }
  EXPECT_TRUE(held == held_body) << "parked body was overwritten";
}

TEST(BufferedAssembler, UnparkedBufferIsReusedInPlace) {
  FrameAssemblerOptions opts;
  opts.read_chunk_bytes = 4096;
  FrameAssembler assembler(opts);
  Bytes warm;
  append_frame(&warm, 0, pattern_bytes(32, 5));
  (void)feed(assembler, warm, warm.size());

  // Dropping every body before the next read lets the assembler reuse
  // the same backing store: no new Reps are created.
  auto& pm = payload_metrics();
  const std::uint64_t allocs0 = pm.allocations.load();
  for (int i = 1; i <= 100; ++i) {
    Bytes stream;
    append_frame(&stream, i, pattern_bytes(32, 6));
    (void)feed(assembler, stream, stream.size());
  }
  EXPECT_EQ(pm.allocations.load(), allocs0);
}

// ---- direct large-body path ----------------------------------------------

TEST(BufferedAssembler, LargeBodyAssemblesDirectlyWithoutPinning) {
  FrameAssemblerOptions opts;
  opts.read_chunk_bytes = 8192;
  opts.inline_body_cutover = 1024;
  FrameAssembler assembler(opts);

  const Bytes big = pattern_bytes(50000, 42);
  Bytes stream;
  append_frame(&stream, 9, big);
  append_frame(&stream, 10, pattern_bytes(10, 43));

  // Feed in 1500-byte chunks: the big body switches to direct mode.
  std::vector<Frame> frames = feed(assembler, stream, 1500);
  ASSERT_EQ(frames.size(), 2u);
  ASSERT_TRUE(frames[0].body == big);
  // The direct body owns an exact-size store — it is not a slice of
  // the (much smaller) read buffer and pins nothing else.
  EXPECT_EQ(frames[0].body.store_size(), big.size());
  EXPECT_FALSE(frames[0].body.shares_with(frames[1].body));
  EXPECT_TRUE(frames[1].body == pattern_bytes(10, 43));
}

// ---- poisoning -----------------------------------------------------------

TEST(BufferedAssembler, PoisonsOnCorruptHeader) {
  FrameAssembler assembler;
  Bytes garbage(kFrameHeaderBytes, 0xEE);
  MutableByteSpan span = assembler.next_span();
  ASSERT_GE(span.size(), garbage.size());
  std::memcpy(span.data(), garbage.data(), garbage.size());
  EXPECT_FALSE(assembler.advance(garbage.size()).ok());
  EXPECT_TRUE(assembler.next_span().empty());
  EXPECT_FALSE(assembler.advance(1).ok());
}

TEST(BufferedAssembler, PoisonsOnCorruptHeaderAfterGoodFrames) {
  FrameAssembler assembler;
  Bytes stream;
  append_frame(&stream, 1, pattern_bytes(10, 1));
  stream.insert(stream.end(), kFrameHeaderBytes, 0xEE);

  MutableByteSpan span = assembler.next_span();
  ASSERT_GE(span.size(), stream.size());
  std::memcpy(span.data(), stream.data(), stream.size());
  // The good frame parses; the garbage header poisons the stream.
  EXPECT_FALSE(assembler.advance(stream.size()).ok());
  ASSERT_TRUE(assembler.frame_ready());
  Frame f = assembler.take_frame();
  EXPECT_EQ(f.header.request_id, 1u);
  EXPECT_EQ(f.body.size(), 10u);
  EXPECT_TRUE(assembler.next_span().empty());
}

// ---- compaction ----------------------------------------------------------

TEST(PayloadCompaction, CopiesOnlyWastefulViews) {
  PayloadBuffer big = PayloadBuffer::zeros(100000);
  PayloadBuffer small = big.slice(0, 100);
  EXPECT_EQ(small.store_size(), 100000u);

  // Within the waste budget: same store, no copy.
  PayloadBuffer kept = small.compacted(100000);
  EXPECT_TRUE(kept.shares_with(big));

  // Over budget: compact copy, large store released once `big` drops.
  PayloadBuffer compact = small.compacted(4096);
  EXPECT_FALSE(compact.shares_with(big));
  EXPECT_TRUE(compact == small);
  EXPECT_LE(compact.store_size(), slab::class_capacity(100));
}

// ---- socketpair: one send, many frames -----------------------------------

TEST(BufferedSocket, BurstOfFramesArrivesInFewReads) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  OwnedFd writer(fds[0]);
  OwnedFd reader(fds[1]);

  constexpr int kFrames = 16;
  Bytes burst;
  std::vector<Bytes> bodies;
  for (int i = 0; i < kFrames; ++i) {
    bodies.push_back(pattern_bytes(200 + i, static_cast<std::uint8_t>(i)));
    append_frame(&burst, i + 1, bodies.back());
  }
  ASSERT_TRUE(send_all(writer.get(), burst, 2000).ok());

  FrameAssembler assembler;
  std::vector<Frame> frames;
  int data_reads = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (frames.size() < kFrames) {
    MutableByteSpan span = assembler.next_span();
    ASSERT_FALSE(span.empty());
    auto n = recv_some(reader.get(), span, deadline);
    ASSERT_TRUE(n.ok()) << n.status().to_string();
    ++data_reads;
    ASSERT_TRUE(assembler.advance(*n).ok());
    while (assembler.frame_ready()) {
      frames.push_back(assembler.take_frame());
    }
  }
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(frames[i].header.request_id,
              static_cast<std::uint64_t>(i + 1));
    EXPECT_TRUE(frames[i].body == bodies[i]);
  }
  // The point of buffered reads: far fewer data-bearing reads than
  // frames (a unix socketpair delivers the burst in one or two).
  EXPECT_LT(data_reads, kFrames / 2);
}

// ---- golden frames ---------------------------------------------------------
//
// Checked-in wire bytes of four frames: a put request, a get response,
// an error response and a kNotMyShard redirect header. Any change to
// the frame header or the put/get body layouts breaks these.

const Bytes kPutRequest = {
    0x43, 0x52, 0x45, 0x43, 0x02, 0x01, 0x00, 0x00, 0x88, 0x77, 0x66, 0x55,
    0x44, 0x33, 0x22, 0x11, 0x38, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x01, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1f,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0xa2, 0x43, 0xdc,
    0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xa0, 0xa1, 0xa2, 0xa3,
    0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xab, 0xac, 0xad, 0xae, 0xaf,
};
const Bytes kGetResponse = {
    0x43, 0x52, 0x45, 0x43, 0x02, 0x02, 0x00, 0x00, 0x2a, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x1d, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0xf8, 0xa2, 0x43, 0xdc, 0x10, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0xa0, 0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6,
    0xa7, 0xa8, 0xa9, 0xaa, 0xab, 0xac, 0xad, 0xae, 0xaf,
};
const Bytes kErrorResponse = {
    0x43, 0x52, 0x45, 0x43, 0x02, 0x02, 0x01, 0x00, 0x2b, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00,
};
const Bytes kRedirectHeader = {
    0x43, 0x52, 0x45, 0x43, 0x02, 0x01, 0x08, 0x00, 0x2c, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x2f, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00,
};

const staging::ObjectDescriptor kGoldenDesc{
    7, 3, geom::BoundingBox::line(16, 31), staging::kWholeObject};

Bytes golden_payload() {
  Bytes b(16);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::uint8_t>(0xA0 + i);
  }
  return b;
}

// The redirect's body: a two-target pool map (version 2).
Bytes golden_map_blob() {
  membership::PoolMap map;
  map.add_target(0, 0);
  map.add_target(0, 1);
  Bytes blob;
  map.encode(&blob);
  return blob;
}

// Header + body prefix + payload, as a sender's OutFrame puts them on
// the wire.
Bytes frame_bytes(const FrameHeader& h, const Bytes& prefix,
                  const Bytes& payload) {
  Bytes out;
  encode_frame_header(h, &out);
  out.insert(out.end(), prefix.begin(), prefix.end());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

TEST(GoldenFrames, EncodersReproduceCheckedInBytes) {
  const Bytes payload = golden_payload();

  PutRequest put;
  put.desc = kGoldenDesc;
  put.kind = staging::StoredKind::kPrimary;
  put.checksum = PayloadBuffer::copy_of(payload).crc32c();
  put.logical_size = payload.size();
  const Bytes put_prefix = encode_put_prefix(put);
  FrameHeader put_h;
  put_h.opcode = static_cast<std::uint8_t>(OpCode::kPut);
  put_h.request_id = 0x1122334455667788ull;
  put_h.body_len =
      static_cast<std::uint32_t>(put_prefix.size() + payload.size());
  EXPECT_EQ(frame_bytes(put_h, put_prefix, payload), kPutRequest);

  const staging::StoredObject stored{
      staging::DataObject::real(kGoldenDesc, payload),
      staging::StoredKind::kReplica};
  const Bytes get_prefix = encode_get_response_prefix(stored);
  FrameHeader get_h;
  get_h.opcode = static_cast<std::uint8_t>(OpCode::kGet);
  get_h.request_id = 42;
  get_h.body_len =
      static_cast<std::uint32_t>(get_prefix.size() + payload.size());
  get_h.map_version = 5;
  EXPECT_EQ(frame_bytes(get_h, get_prefix, payload), kGetResponse);

  FrameHeader err_h;
  err_h.opcode = static_cast<std::uint8_t>(OpCode::kGet);
  err_h.code = status_to_wire(Status::NotFound("no such object"));
  err_h.request_id = 43;
  err_h.map_version = 5;
  EXPECT_EQ(frame_bytes(err_h, {}, {}), kErrorResponse);

  FrameHeader redirect_h;
  redirect_h.opcode = static_cast<std::uint8_t>(OpCode::kPut);
  redirect_h.code = status_to_wire(Status::NotMyShard("stale pool map"));
  redirect_h.request_id = 44;
  redirect_h.body_len = static_cast<std::uint32_t>(golden_map_blob().size());
  redirect_h.map_version = 2;
  EXPECT_EQ(frame_bytes(redirect_h, {}, {}), kRedirectHeader);
}

TEST(GoldenFrames, AssemblerDecodesFixturesAtEverySplitOffset) {
  const Bytes map_blob = golden_map_blob();
  const std::vector<Bytes> wire = {kPutRequest, kGetResponse,
                                   kErrorResponse, kRedirectHeader};
  std::vector<Bytes> bodies;
  Bytes stream;
  for (const Bytes& f : wire) {
    stream.insert(stream.end(), f.begin(), f.end());
    bodies.emplace_back(f.begin() + kFrameHeaderBytes, f.end());
  }
  stream.insert(stream.end(), map_blob.begin(), map_blob.end());
  bodies.back() = map_blob;

  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameAssembler assembler;
    std::vector<Frame> frames;
    for (const auto& [from, to] : {std::pair{std::size_t{0}, split},
                                   std::pair{split, stream.size()}}) {
      if (from == to) continue;
      MutableByteSpan span = assembler.next_span();
      ASSERT_GE(span.size(), to - from);
      std::memcpy(span.data(), stream.data() + from, to - from);
      ASSERT_TRUE(assembler.advance(to - from).ok()) << "split " << split;
      while (assembler.frame_ready()) frames.push_back(assembler.take_frame());
    }
    ASSERT_EQ(frames.size(), wire.size()) << "split " << split;
    EXPECT_FALSE(assembler.mid_frame());
    for (std::size_t i = 0; i < wire.size(); ++i) {
      Bytes header_bytes;
      encode_frame_header(frames[i].header, &header_bytes);
      EXPECT_EQ(header_bytes, Bytes(wire[i].begin(),
                                    wire[i].begin() + kFrameHeaderBytes))
          << "split " << split << " frame " << i;
      EXPECT_TRUE(frames[i].body == bodies[i])
          << "split " << split << " frame " << i;
    }

    auto put = decode_put_request(frames[0].body);
    ASSERT_TRUE(put.ok());
    EXPECT_EQ(put->desc, kGoldenDesc);
    EXPECT_TRUE(put->payload == golden_payload());
    auto got = decode_get_response(frames[1].body);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->kind, staging::StoredKind::kReplica);
    EXPECT_TRUE(got->payload == golden_payload());
    EXPECT_EQ(status_from_wire(frames[2].header.code, "golden").code(),
              StatusCode::kNotFound);
    EXPECT_EQ(status_from_wire(frames[3].header.code, "golden").code(),
              StatusCode::kNotMyShard);
    auto map = membership::PoolMap::decode(frames[3].body.data(),
                                           frames[3].body.size());
    ASSERT_TRUE(map.ok());
    EXPECT_EQ(map->version(), frames[3].header.map_version);
  }
}

// ---- loopback ---------------------------------------------------------------

struct ServerFixture {
  explicit ServerFixture(ServerOptions options) : server([&] {
    options.host = "127.0.0.1";
    options.port = 0;
    // CI's TSan leg re-runs this suite against a sharded server
    // (COREC_RPC_TEST_LOOPS=4) so the buffered per-connection read
    // state is exercised across event-loop threads.
    if (const char* loops = std::getenv("COREC_RPC_TEST_LOOPS")) {
      options.num_loops = static_cast<std::size_t>(std::atol(loops));
    }
    return options;
  }()) {
    Status st = server.start();
    EXPECT_TRUE(st.ok()) << st.to_string();
  }
  ClientOptions client_options() const {
    ClientOptions o;
    o.host = "127.0.0.1";
    o.port = server.port();
    return o;
  }
  Server server;
};

staging::ObjectDescriptor desc_of(VarId var, int i) {
  return {var, 1, geom::BoundingBox::line(i * 8, i * 8 + 7),
          staging::kWholeObject};
}

// Put then get across small, cutover-straddling (the 64 KiB inline
// cutover) and multi-MiB payloads, which take the in-buffer slice, the
// direct-allocation and the buffer-rotation paths on both ends.
TEST(BufferedLoopback, RoundTripAcrossBodySizes) {
  const std::vector<std::size_t> sizes = {1, 64, 4096, 70000, 3u << 20};
  ServerFixture fx(ServerOptions{});
  Client client(fx.client_options());
  const VarId var = 500;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const Bytes payload =
        pattern_bytes(sizes[i], static_cast<std::uint8_t>(37 + i));
    Status st = client.put(desc_of(var, static_cast<int>(i)),
                           PayloadBuffer::copy_of(payload));
    ASSERT_TRUE(st.ok()) << st.to_string();
    auto got = client.get(desc_of(var, static_cast<int>(i)));
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    ASSERT_TRUE(got->payload == payload) << "size=" << sizes[i];
    EXPECT_EQ(got->payload.crc32c(),
              PayloadBuffer::copy_of(payload).crc32c());
  }
}

// A stored small put must not pin the connection's read buffer, and a
// held get result must not pin the client channel's read buffer.
TEST(BufferedLoopback, SmallObjectsDoNotPinReadBuffers) {
  ServerFixture fx(ServerOptions{});
  Client client(fx.client_options());
  const VarId var = 600;
  const Bytes payload = pattern_bytes(256, 9);
  ASSERT_TRUE(client.put(desc_of(var, 0),
                         PayloadBuffer::copy_of(payload)).ok());

  auto direct = fx.server.fabric().get(desc_of(var, 0));
  ASSERT_TRUE(direct.ok());
  EXPECT_LT(direct->object.data.store_size(), kDefaultReadChunkBytes / 4)
      << "stored put payload still references the read buffer";

  auto got = client.get(desc_of(var, 0));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->payload == payload);
  EXPECT_LT(got->payload.store_size(), kDefaultReadChunkBytes / 4)
      << "small get result still references the channel read buffer";
}

// Pipelined burst over a raw socket: the server must complete many
// frames per data-bearing recv, visible in the split recv stats.
TEST(BufferedLoopback, ServerRecvStatsShowMultiFrameBatches) {
  ServerFixture fx(ServerOptions{});
  auto fd = connect_tcp("127.0.0.1", fx.server.port(), 2000);
  ASSERT_TRUE(fd.ok());

  constexpr int kPings = 64;
  Bytes burst;
  for (int i = 0; i < kPings; ++i) append_frame(&burst, i + 1, {});
  ASSERT_TRUE(send_all(fd->get(), burst, 2000).ok());

  FrameAssembler assembler;
  int got = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (got < kPings) {
    MutableByteSpan span = assembler.next_span();
    ASSERT_FALSE(span.empty());
    auto n = recv_some(fd->get(), span, deadline);
    ASSERT_TRUE(n.ok()) << n.status().to_string();
    ASSERT_TRUE(assembler.advance(*n).ok());
    while (assembler.frame_ready()) {
      (void)assembler.take_frame();
      ++got;
    }
  }

  const ServerStatsSnapshot stats = fx.server.stats();
  EXPECT_EQ(stats.frames_in, static_cast<std::uint64_t>(kPings));
  EXPECT_GT(stats.recv_data_calls, 0u);
  // The burst was written in one send: far fewer data recvs than
  // frames, i.e. recv-syscalls-per-frame well under 1.
  EXPECT_LT(stats.recv_data_calls, static_cast<std::uint64_t>(kPings) / 2);
  // Every data-bearing recv lands in exactly one histogram bucket.
  std::uint64_t hist_total = 0;
  bool multi_frame_bucket = false;
  for (std::size_t b = 0; b < kRecvBatchBuckets; ++b) {
    hist_total += stats.recv_batch_hist[b];
    if (b >= 2 && stats.recv_batch_hist[b] > 0) multi_frame_bucket = true;
  }
  EXPECT_EQ(hist_total, stats.recv_data_calls);
  EXPECT_TRUE(multi_frame_bucket)
      << "no recv completed more than one frame";
}

}  // namespace
}  // namespace corec::rpc
