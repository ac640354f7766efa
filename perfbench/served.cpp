// The served workloads: a pipelined load generator that talks the
// CoREC wire protocol to a live corec-server over loopback, checks
// every response against the benchmark's own model, and (traced run)
// replays the same operation stream in-process through the public
// functions of each served layer.
//
// served_small: a staging workflow over a fixed working set of 4 KiB
//   blocks. Each step puts a new version of every block, readers query
//   the latest version of a span of blocks and get what the query
//   returned, then versions two steps old are erased.
// served_large: 1 MiB objects overwritten in place; every round puts
//   and reads (query, then get) each object of the working set once.
//
// Each load thread drives its own connections, keeping up to `depth`
// requests outstanding on each (closed loop). Requests are written
// through the program's WriteQueue and responses parsed with its
// FrameAssembler, so the bytes on the wire are exactly what rpc::Client
// produces.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "common/checksum.hpp"
#include "rpc/frame.hpp"
#include "rpc/protocol.hpp"
#include "rpc/socket.hpp"
#include "rpc/write_queue.hpp"
#include "staging/thread_fabric.hpp"

namespace perfbench {
namespace {

using corec::Bytes;
using corec::PayloadBuffer;
using corec::Version;
using corec::geom::BoundingBox;
using corec::staging::ObjectDescriptor;
using Clock = std::chrono::steady_clock;
namespace rpc = corec::rpc;

constexpr corec::geom::Coord kKeyExtent = 64;  // box length per key

struct Shape {
  bool workflow = true;  // served_small: staged steps with erase churn
  std::size_t object_bytes = 0;
  std::size_t vars = 0;
  std::size_t keys_per_var = 0;
  std::size_t query_span = 1;  // keys covered by one reader query
  std::size_t windows = 0;     // distinct payloads in the arena
  std::size_t connections = 4;
  std::size_t depth = 8;    // outstanding requests per connection
  std::size_t threads = 1;  // load threads; each owns whole connections

  std::size_t keys() const { return vars * keys_per_var; }
};

Shape shape_of(const std::string& workload) {
  Shape s;
  if (workload == "served_small") {
    s.workflow = true;
    s.object_bytes = 4096;
    s.vars = 8;
    s.keys_per_var = 512;
    s.query_span = 4;
    s.windows = 4096;
  } else {
    s.workflow = false;
    s.object_bytes = 1u << 20;
    s.vars = 1;
    s.keys_per_var = 256;
    s.query_span = 1;
    s.windows = 32;
    // Every put's CRC32C and every get's byte check cost the driver
    // more per byte than the server spends, so the load is spread over
    // enough threads that the one server loop is the busy side. One
    // request per connection: at two, 2-4% of requests wait 3-7 ms
    // against a 0.5 ms median, which makes the p99 unsteady.
    s.threads = 3;
    s.connections = 3;
    s.keys_per_var = 240;
    s.depth = 1;
  }
  return s;
}

enum class Kind : std::uint8_t { kPut, kGet, kQuery, kErase, kStat };

struct Op {
  Kind kind = Kind::kPut;
  std::uint32_t key = 0;  // query: first key of the span
  Version version = 0;    // descriptor version (query: latest <= this)
  std::uint32_t content = 0;  // put: payload sequence; get: expected
};

using OpLists = std::vector<std::deque<Op>>;

/// Payload model: every (key, content) pair maps onto one window of a
/// seeded arena; consecutive contents of one key land on different
/// windows, so a stale or misrouted object never matches.
class Payloads {
 public:
  Payloads(const Shape& shape, std::uint64_t seed) : shape_(shape) {
    Bytes arena(shape.windows * shape.object_bytes);
    std::uint64_t state = seed * 0x2545F4914F6CDD1DULL + 17;
    for (std::size_t i = 0; i + 8 <= arena.size(); i += 8) {
      const std::uint64_t v = splitmix64(&state);
      std::memcpy(arena.data() + i, &v, 8);
    }
    crcs_.resize(shape.windows);
    for (std::size_t w = 0; w < shape.windows; ++w) {
      crcs_[w] = crc32c_bitwise(arena.data() + w * shape.object_bytes,
                                shape.object_bytes);
    }
    arena_ = PayloadBuffer::wrap(std::move(arena));
    salt_.resize(shape.keys());
    for (std::size_t k = 0; k < salt_.size(); ++k) {
      salt_[k] = mix64(seed ^ (k * 0x9E3779B97F4A7C15ULL)) % shape.windows;
    }
  }

  std::size_t window(std::uint32_t key, std::uint32_t content) const {
    return (salt_[key] + content) % shape_.windows;
  }
  /// A fresh view per call, so the program's CRC cache starts cold.
  PayloadBuffer view(std::size_t w) const {
    return arena_.slice(w * shape_.object_bytes, shape_.object_bytes);
  }
  std::uint32_t crc(std::size_t w) const { return crcs_[w]; }
  /// The windows, back to back.
  const std::uint8_t* arena() const { return arena_.data(); }

 private:
  Shape shape_;
  PayloadBuffer arena_;
  std::vector<std::uint32_t> crcs_;
  std::vector<std::size_t> salt_;
};

ObjectDescriptor desc_of(const Shape& s, std::uint32_t key, Version v) {
  const auto var = static_cast<corec::VarId>(1 + key / s.keys_per_var);
  const auto idx = static_cast<corec::geom::Coord>(key % s.keys_per_var);
  return {var, v,
          BoundingBox::line(idx * kKeyExtent, idx * kKeyExtent + kKeyExtent - 1),
          corec::staging::kWholeObject};
}

rpc::QueryRequest query_of(const Shape& s, std::uint32_t first,
                           Version v) {
  const auto var = static_cast<corec::VarId>(1 + first / s.keys_per_var);
  const auto idx = static_cast<corec::geom::Coord>(first % s.keys_per_var);
  const auto span = static_cast<corec::geom::Coord>(s.query_span);
  rpc::QueryRequest q;
  q.var = var;
  q.version = v;
  q.latest = true;
  q.region = BoundingBox::line(idx * kKeyExtent,
                               (idx + span) * kKeyExtent - 1);
  return q;
}

bool desc_less(const ObjectDescriptor& a, const ObjectDescriptor& b) {
  if (a.var != b.var) return a.var < b.var;
  if (a.version != b.version) return a.version < b.version;
  return a.box.lo()[0] < b.box.lo()[0];
}

/// Encodes one request frame: header plus body prefix in `head`, a put
/// payload as its own segment (zero-copy view of the arena).
rpc::OutFrame encode_request(const Shape& s, const Payloads& payloads,
                             const Op& op, std::uint64_t id,
                             std::uint32_t* put_crc) {
  rpc::FrameHeader h;
  h.request_id = id;
  Bytes body;
  rpc::OutFrame out;
  switch (op.kind) {
    case Kind::kPut: {
      PayloadBuffer view = payloads.view(payloads.window(op.key, op.content));
      rpc::PutRequest req;
      req.desc = desc_of(s, op.key, op.version);
      req.checksum = view.crc32c();  // the program's CRC, as Client::put
      req.logical_size = view.size();
      if (put_crc != nullptr) *put_crc = req.checksum;
      body = rpc::encode_put_prefix(req);
      h.opcode = static_cast<std::uint8_t>(rpc::OpCode::kPut);
      out.payload = std::move(view);
      break;
    }
    case Kind::kGet:
      body = rpc::encode_get_request(desc_of(s, op.key, op.version));
      h.opcode = static_cast<std::uint8_t>(rpc::OpCode::kGet);
      break;
    case Kind::kQuery:
      body = rpc::encode_query_request(query_of(s, op.key, op.version));
      h.opcode = static_cast<std::uint8_t>(rpc::OpCode::kQuery);
      break;
    case Kind::kErase:
      body = rpc::encode_erase_request(desc_of(s, op.key, op.version));
      h.opcode = static_cast<std::uint8_t>(rpc::OpCode::kErase);
      break;
    case Kind::kStat:
      h.opcode = static_cast<std::uint8_t>(rpc::OpCode::kStat);
      break;
  }
  h.body_len = static_cast<std::uint32_t>(body.size() + out.payload.size());
  rpc::encode_frame_header(h, &out.head);
  out.head.insert(out.head.end(), body.begin(), body.end());
  return out;
}

// ---- the load generator ----------------------------------------------------

/// One load thread's connections. Its counts and checks go to its own
/// `tally`; Load merges them.
class LoadGen {
 public:
  LoadGen(const Shape& shape, const Payloads& payloads,
          std::vector<std::uint32_t>* acked_content)
      : shape_(shape), payloads_(payloads), acked_content_(*acked_content) {}

  bool connect(int port, std::size_t connections) {
    for (std::size_t i = 0; i < connections; ++i) {
      auto fd = rpc::connect_tcp("127.0.0.1", static_cast<std::uint16_t>(port),
                                 5000);
      if (!fd.ok()) {
        std::fprintf(stderr, "perfbench: connect: %s\n",
                     fd.status().to_string().c_str());
        return false;
      }
      auto conn = std::make_unique<Conn>();
      conn->fd = std::move(*fd);
      conn->unsent.resize(shape_.depth);
      if (!rpc::set_nonblocking(conn->fd.get()).ok() ||
          !rpc::set_nodelay(conn->fd.get()).ok()) {
        return false;
      }
      conns_.push_back(std::move(conn));
    }
    return true;
  }

  /// Runs every connection's op list to completion (a barrier). False
  /// on a transport failure, which ends the run.
  bool run(OpLists lists) {
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      conns_[i]->pending = std::move(lists[i]);
    }
    std::vector<pollfd> pfds(conns_.size());
    for (;;) {
      bool busy = false;
      for (auto& c : conns_) {
        top_up(*c);
        if (!flush(*c)) return false;
        busy = busy || !c->pending.empty() || !c->inflight.empty();
      }
      if (!busy) return true;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        pfds[i].fd = conns_[i]->fd.get();
        pfds[i].events = static_cast<short>(
            POLLIN | (conns_[i]->queue.empty() ? 0 : POLLOUT));
        pfds[i].revents = 0;
      }
      // Busy-poll: the driver's CPU never sleeps, so a response is
      // picked up without a cross-CPU wake-up, a cost that varies with
      // the host's load.
      int n = 0;
      const double stall = mono_now() + 10;
      while ((n = ::poll(pfds.data(), pfds.size(), 0)) == 0 &&
             mono_now() < stall) {
      }
      if (n == 0) {
        std::fprintf(stderr, "perfbench: server stalled for 10 s\n");
        return false;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0 &&
            !receive(*conns_[i])) {
          return false;
        }
      }
    }
  }

  bool measuring = false;
  std::uint64_t measured_ops = 0;
  std::uint64_t measured_bytes = 0;
  Samples put_us, get_us, query_us;
  rpc::StatResponse last_stat;
  Result tally;

 private:
  struct Inflight {
    Op op;
    Clock::time_point sent;
  };
  struct Conn {
    rpc::OwnedFd fd;
    rpc::FrameAssembler assembler;
    rpc::WriteQueue queue;
    std::deque<Op> pending;
    std::unordered_map<std::uint64_t, Inflight> inflight;
    std::vector<std::uint64_t> unsent;  // ids top_up encoded, to stamp
  };

  /// Encodes requests up to the depth, then stamps them all: the
  /// flush that follows sends them, so no request's latency includes
  /// the encoding (the put CRC32C) of another.
  void top_up(Conn& c) {
    std::size_t fresh = 0;
    while (c.inflight.size() < shape_.depth && !c.pending.empty()) {
      Op op = c.pending.front();
      c.pending.pop_front();
      if (op.kind == Kind::kGet && !shape_.workflow) {
        op.content = acked_content_[op.key];
      }
      const std::uint64_t id = next_id_++;
      std::uint32_t crc = 0;
      c.queue.push(encode_request(shape_, payloads_, op, id, &crc));
      if (op.kind == Kind::kPut) {
        tally.check(crc == payloads_.crc(payloads_.window(op.key, op.content)),
                    "program crc32c differs from the bitwise CRC32C");
      }
      c.inflight.emplace(id, Inflight{op, {}});
      c.unsent[fresh++] = id;
      tally.requests_sent += 1;
      tally.attempted += 1;
    }
    const auto now = Clock::now();
    for (std::size_t i = 0; i < fresh; ++i) c.inflight[c.unsent[i]].sent = now;
  }

  bool flush(Conn& c) {
    if (c.queue.empty()) return true;
    rpc::FlushDelta delta;
    for (;;) {
      const rpc::FlushOutcome out = c.queue.flush(c.fd.get(), &delta);
      if (out == rpc::FlushOutcome::kBudget) continue;
      if (out == rpc::FlushOutcome::kError) {
        std::fprintf(stderr, "perfbench: send failed\n");
        return false;
      }
      return true;
    }
  }

  bool receive(Conn& c) {
    for (;;) {
      corec::MutableByteSpan span = c.assembler.next_span();
      if (span.empty()) return false;
      const ssize_t n =
          ::recv(c.fd.get(), span.data(), span.size(), MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        std::fprintf(stderr, "perfbench: recv: %s\n", std::strerror(errno));
        return false;
      }
      if (n == 0) {
        std::fprintf(stderr, "perfbench: server closed the connection\n");
        return false;
      }
      if (!c.assembler.advance(static_cast<std::size_t>(n)).ok()) {
        return false;
      }
      while (c.assembler.frame_ready()) {
        if (!complete(c, c.assembler.take_frame())) return false;
      }
    }
  }

  bool complete(Conn& c, rpc::Frame frame) {
    auto it = c.inflight.find(frame.header.request_id);
    if (it == c.inflight.end()) {
      std::fprintf(stderr, "perfbench: response to an unknown request\n");
      return false;
    }
    const Inflight sent = it->second;
    c.inflight.erase(it);
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - sent.sent)
            .count();
    const Op& op = sent.op;
    if (frame.header.code != 0) {
      tally.failed += 1;
      tally.check(false, "request failed with status " +
                                std::to_string(frame.header.code));
      return true;
    }
    const std::size_t obj = shape_.object_bytes;
    switch (op.kind) {
      case Kind::kPut:
        acked_content_[op.key] = op.content;
        if (measuring) {
          put_us.add(us);
          measured_bytes += obj;
        }
        break;
      case Kind::kGet: {
        auto resp = rpc::decode_get_response(frame.body);
        if (measuring) {
          get_us.add(us);
          measured_bytes += obj;
        }
        if (!resp.ok()) {
          tally.check(false, "undecodable get response");
          break;
        }
        const std::size_t w = payloads_.window(op.key, op.content);
        const PayloadBuffer expect = payloads_.view(w);
        tally.check(resp->payload.size() == obj &&
                           std::memcmp(resp->payload.data(), expect.data(),
                                       obj) == 0,
                       "get returned bytes the generator did not make");
        tally.check(resp->checksum == payloads_.crc(w),
                       "get checksum differs from the bitwise CRC32C");
        break;
      }
      case Kind::kQuery: {
        auto resp = rpc::decode_query_response(frame.body);
        if (measuring) query_us.add(us);
        if (!resp.ok()) {
          tally.check(false, "undecodable query response");
          break;
        }
        std::vector<ObjectDescriptor> got = std::move(*resp);
        std::vector<ObjectDescriptor> want;
        for (std::size_t i = 0; i < shape_.query_span; ++i) {
          want.push_back(desc_of(
              shape_, op.key + static_cast<std::uint32_t>(i), op.version));
        }
        std::sort(got.begin(), got.end(), desc_less);
        tally.check(got == want,
                       "query_latest differs from the model's live set");
        // The reader fetches what the query named, ahead of other work.
        for (std::size_t i = shape_.query_span; i-- > 0;) {
          c.pending.push_front({Kind::kGet,
                                op.key + static_cast<std::uint32_t>(i),
                                op.version,
                                static_cast<std::uint32_t>(op.version)});
        }
        break;
      }
      case Kind::kErase: {
        auto removed = rpc::decode_erase_response(frame.body);
        tally.check(removed.ok() && *removed,
                       "erase of a live version removed nothing");
        break;
      }
      case Kind::kStat: {
        auto stat = rpc::decode_stat_response(frame.body);
        tally.check(stat.ok(), "undecodable stat response");
        if (stat.ok()) last_stat = *stat;
        break;
      }
    }
    if (measuring && op.kind != Kind::kStat) measured_ops += 1;
    return true;
  }

  Shape shape_;
  const Payloads& payloads_;
  // Last acknowledged put per key, shared by the threads: each key
  // belongs to one connection, so no two threads touch one entry.
  std::vector<std::uint32_t>& acked_content_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::uint64_t next_id_ = 1;
};

/// The load threads. Thread t owns connections [t*n, (t+1)*n) with
/// n = connections / threads, and runs their share of each phase; a
/// phase ends when every thread has run its share (a barrier).
class Load {
 public:
  Load(const Shape& shape, const Payloads& payloads, std::vector<int> cpus)
      : shape_(shape), cpus_(std::move(cpus)), acked_content_(shape.keys(), 0) {
    for (std::size_t t = 0; t < shape.threads; ++t) {
      gens_.push_back(
          std::make_unique<LoadGen>(shape, payloads, &acked_content_));
    }
    if (gens_.size() == 1) pin_to_cpu(cpu(0));
  }

  bool connect(int port) {
    for (auto& g : gens_) {
      if (!g->connect(port, shape_.connections / gens_.size())) return false;
    }
    return true;
  }

  bool run(OpLists lists) {
    if (gens_.size() == 1) return gens_[0]->run(std::move(lists));
    const std::size_t per = lists.size() / gens_.size();
    std::vector<char> ok(gens_.size(), 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < gens_.size(); ++t) {
      OpLists share(std::make_move_iterator(lists.begin() + t * per),
                    std::make_move_iterator(lists.begin() + (t + 1) * per));
      threads.emplace_back([this, &ok, t, share = std::move(share)]() mutable {
        pin_to_cpu(cpu(t));
        ok[t] = gens_[t]->run(std::move(share));
      });
    }
    for (auto& th : threads) th.join();
    return std::all_of(ok.begin(), ok.end(), [](char v) { return v != 0; });
  }

  void set_measuring(bool on) {
    for (auto& g : gens_) g->measuring = on;
  }
  std::uint64_t measured_ops() const {
    std::uint64_t n = 0;
    for (const auto& g : gens_) n += g->measured_ops;
    return n;
  }
  std::uint64_t measured_bytes() const {
    std::uint64_t n = 0;
    for (const auto& g : gens_) n += g->measured_bytes;
    return n;
  }
  Samples samples(Samples LoadGen::*which) const {
    Samples all;
    for (const auto& g : gens_) all.append((*g).*which);
    return all;
  }
  /// The stat op goes to connection 0, which thread 0 owns.
  const rpc::StatResponse& last_stat() const { return gens_[0]->last_stat; }

  /// Adds every thread's counts and failed checks to `result`.
  void merge_into(Result* result) const {
    for (const auto& g : gens_) {
      const Result& t = g->tally;
      result->attempted += t.attempted;
      result->failed += t.failed;
      result->requests_sent += t.requests_sent;
      for (const auto& p : t.problems) result->check(false, p);
    }
  }

 private:
  int cpu(std::size_t t) const {
    return cpus_.empty() ? -1 : cpus_[t % cpus_.size()];
  }

  Shape shape_;
  std::vector<int> cpus_;
  std::vector<std::uint32_t> acked_content_;
  std::vector<std::unique_ptr<LoadGen>> gens_;
};

// ---- operation streams -----------------------------------------------------

struct Plan {
  Shape shape;
  std::vector<std::uint32_t> key_order;    // seeded permutation of keys
  std::vector<std::uint32_t> query_order;  // seeded permutation of spans

  Plan(const Shape& s, std::uint64_t seed) : shape(s) {
    key_order.resize(s.keys());
    std::iota(key_order.begin(), key_order.end(), 0u);
    query_order.resize(s.keys() / s.query_span);
    std::iota(query_order.begin(), query_order.end(), 0u);
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + 3;
    shuffle(&key_order, &state);
    shuffle(&query_order, &state);
  }

  static void shuffle(std::vector<std::uint32_t>* v, std::uint64_t* state) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[splitmix64(state) % i]);
    }
  }

  OpLists lists() const { return OpLists(shape.connections); }

  // served_small: one step is three barrier-separated phases.
  OpLists put_phase(Version step) const {
    OpLists l = lists();
    for (std::size_t i = 0; i < key_order.size(); ++i) {
      l[i % l.size()].push_back({Kind::kPut, key_order[i], step,
                                 static_cast<std::uint32_t>(step)});
    }
    return l;
  }
  OpLists read_phase(Version step) const {
    OpLists l = lists();
    for (std::size_t i = 0; i < query_order.size(); ++i) {
      const auto first =
          static_cast<std::uint32_t>(query_order[i] * shape.query_span);
      l[i % l.size()].push_back({Kind::kQuery, first, step, 0});
    }
    return l;
  }
  OpLists erase_phase(Version old) const {
    OpLists l = lists();
    for (std::size_t i = 0; i < key_order.size(); ++i) {
      l[i % l.size()].push_back({Kind::kErase, key_order[i], old, 0});
    }
    return l;
  }

  // served_large: connection c owns a fixed slice of the keys. A round
  // puts each key once and reads each key once; a key's put and read
  // sit half the slice apart, so they are never outstanding together.
  std::vector<std::uint32_t> slice(std::size_t c) const {
    const std::size_t per = key_order.size() / shape.connections;
    return {key_order.begin() + static_cast<std::ptrdiff_t>(c * per),
            key_order.begin() + static_cast<std::ptrdiff_t>((c + 1) * per)};
  }
  OpLists prefill_round() const {
    OpLists l = lists();
    for (std::size_t c = 0; c < l.size(); ++c) {
      for (std::uint32_t k : slice(c)) l[c].push_back({Kind::kPut, k, 1, 0});
    }
    return l;
  }
  OpLists overwrite_round(std::uint32_t round) const {
    OpLists l = lists();
    for (std::size_t c = 0; c < l.size(); ++c) {
      const auto keys = slice(c);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        l[c].push_back({Kind::kPut, keys[i], 1, round});
        l[c].push_back(
            {Kind::kQuery, keys[(i + keys.size() / 2) % keys.size()], 1, 0});
      }
    }
    return l;
  }

  OpLists stat() const {
    OpLists l = lists();
    l[0].push_back({Kind::kStat, 0, 0, 0});
    return l;
  }
};

// ---- traced in-process replay ---------------------------------------------

struct ReplayTimes {
  double parse_s = 0, decode_s = 0, encode_s = 0, compact_s = 0,
         fabric_put_s = 0, fabric_get_s = 0, upsert_s = 0, query_s = 0,
         remove_s = 0, flush_s = 0;
  std::uint64_t frames = 0, puts = 0, gets = 0, queries = 0, removes = 0;
};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Serializes an op list (round-robin over connections, as sent) into
/// one request byte stream.
Bytes serialize(const Shape& s, const Payloads& payloads,
                const OpLists& lists, bool expand_queries) {
  Bytes stream;
  std::uint64_t id = 1;
  std::vector<Op> ops;
  for (const auto& l : lists) ops.insert(ops.end(), l.begin(), l.end());
  for (const Op& op : ops) {
    std::vector<Op> seq{op};
    if (op.kind == Kind::kQuery && expand_queries) {
      for (std::size_t i = 0; i < s.query_span; ++i) {
        seq.push_back({Kind::kGet, op.key + static_cast<std::uint32_t>(i),
                       s.workflow ? op.version : 1, 0});
      }
    }
    for (const Op& o : seq) {
      rpc::OutFrame f = encode_request(s, payloads, o, id++, nullptr);
      stream.insert(stream.end(), f.head.begin(), f.head.end());
      stream.insert(stream.end(), f.payload.data(),
                    f.payload.data() + f.payload.size());
    }
  }
  return stream;
}

/// Drives one request stream through the server's layers the way
/// Server::execute does, timing each layer's public call.
void replay_stream(const Bytes& stream, corec::staging::ThreadFabric* fab,
                   int sink_fd, bool timed, ReplayTimes* t) {
  rpc::FrameAssembler assembler;
  rpc::WriteQueue queue;
  std::vector<rpc::Frame> frames;
  std::size_t off = 0;
  double parse_s = 0;
  while (off < stream.size()) {
    corec::MutableByteSpan span = assembler.next_span();
    const std::size_t n = std::min(span.size(), stream.size() - off);
    std::memcpy(span.data(), stream.data() + off, n);
    off += n;
    const auto t0 = Clock::now();
    (void)assembler.advance(n);
    while (assembler.frame_ready()) frames.push_back(assembler.take_frame());
    parse_s += since(t0);
  }
  ReplayTimes local;
  local.parse_s = parse_s;
  local.frames = frames.size();
  rpc::FlushDelta delta;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const rpc::Frame& f = frames[i];
    rpc::FrameHeader h;
    h.opcode = f.header.opcode;
    h.request_id = f.header.request_id;
    Bytes prefix;
    rpc::OutFrame out;
    switch (static_cast<rpc::OpCode>(f.header.opcode)) {
      case rpc::OpCode::kPut: {
        auto t0 = Clock::now();
        auto req = rpc::decode_put_request(f.body);
        local.decode_s += since(t0);
        t0 = Clock::now();
        PayloadBuffer payload = req->payload.compacted(
            std::max<std::size_t>(4096, req->payload.size()));
        local.compact_s += since(t0);
        const auto primary = fab->route(req->desc);
        t0 = Clock::now();
        (void)fab->put(primary,
                       corec::staging::DataObject::with_checksum(
                           req->desc, std::move(payload), req->checksum),
                       req->kind);
        local.fabric_put_s += since(t0);
        corec::staging::ObjectLocation loc;
        loc.primary = primary;
        loc.logical_size = req->payload.size();
        loc.object_checksum = req->checksum;
        t0 = Clock::now();
        fab->directory().upsert(req->desc, std::move(loc));
        local.upsert_s += since(t0);
        local.puts += 1;
        break;
      }
      case rpc::OpCode::kGet: {
        auto t0 = Clock::now();
        auto desc = rpc::decode_get_request(f.body);
        local.decode_s += since(t0);
        t0 = Clock::now();
        auto found = fab->get(*desc);
        local.fabric_get_s += since(t0);
        local.gets += 1;
        if (found.ok()) {
          t0 = Clock::now();
          prefix = rpc::encode_get_response_prefix(*found);
          local.encode_s += since(t0);
          out.payload = found->object.data;
        }
        break;
      }
      case rpc::OpCode::kQuery: {
        auto t0 = Clock::now();
        auto req = rpc::decode_query_request(f.body);
        local.decode_s += since(t0);
        t0 = Clock::now();
        auto descs = fab->directory().query_latest(req->var, req->version,
                                                   req->region);
        local.query_s += since(t0);
        local.queries += 1;
        t0 = Clock::now();
        prefix = rpc::encode_query_response(descs);
        local.encode_s += since(t0);
        break;
      }
      case rpc::OpCode::kErase: {
        auto t0 = Clock::now();
        auto desc = rpc::decode_erase_request(f.body);
        local.decode_s += since(t0);
        const bool removed = fab->erase(*desc);
        t0 = Clock::now();
        (void)fab->directory().remove(*desc);
        local.remove_s += since(t0);
        local.removes += 1;
        t0 = Clock::now();
        prefix = rpc::encode_erase_response(removed);
        local.encode_s += since(t0);
        break;
      }
      default:
        break;
    }
    auto t0 = Clock::now();
    h.body_len = static_cast<std::uint32_t>(prefix.size() + out.payload.size());
    rpc::encode_frame_header(h, &out.head);
    out.head.insert(out.head.end(), prefix.begin(), prefix.end());
    local.encode_s += since(t0);
    queue.push(std::move(out));
    // Flush once per pipelined burst, as the server does per read batch.
    if ((i + 1) % 8 == 0 || i + 1 == frames.size()) {
      t0 = Clock::now();
      while (!queue.empty()) {
        const auto outcome = queue.flush(sink_fd, &delta);
        if (outcome == rpc::FlushOutcome::kError) break;
        if (outcome == rpc::FlushOutcome::kWouldBlock) {
          pollfd p{sink_fd, POLLOUT, 0};
          (void)::poll(&p, 1, 1000);
        }
      }
      local.flush_s += since(t0);
    }
  }
  if (!timed) return;
  t->parse_s += local.parse_s;
  t->decode_s += local.decode_s;
  t->encode_s += local.encode_s;
  t->compact_s += local.compact_s;
  t->fabric_put_s += local.fabric_put_s;
  t->fabric_get_s += local.fabric_get_s;
  t->upsert_s += local.upsert_s;
  t->query_s += local.query_s;
  t->remove_s += local.remove_s;
  t->flush_s += local.flush_s;
  t->frames += local.frames;
  t->puts += local.puts;
  t->gets += local.gets;
  t->queries += local.queries;
  t->removes += local.removes;
}

/// Replays the workload's own rounds in-process; the first rounds
/// bring the fabric to the measured run's steady state untimed.
ReplayTimes replay(const Plan& plan, const Payloads& payloads) {
  ReplayTimes t;
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return t;
  rpc::OwnedFd sink(sv[0]), drain_end(sv[1]);
  (void)rpc::set_nonblocking(sink.get());
  std::thread drain([fd = drain_end.get()] {
    std::vector<char> buf(1 << 20);
    while (::read(fd, buf.data(), buf.size()) > 0) {
    }
  });
  {
    corec::staging::ThreadFabric fab(4);  // corec-server's default
    const Shape& s = plan.shape;
    if (s.workflow) {
      for (Version step = 0; step < 5; ++step) {
        OpLists ops = plan.put_phase(step);
        OpLists reads = plan.read_phase(step);
        for (std::size_t c = 0; c < ops.size(); ++c) {
          ops[c].insert(ops[c].end(), reads[c].begin(), reads[c].end());
          if (step >= 2) {
            OpLists erases = plan.erase_phase(step - 2);
            ops[c].insert(ops[c].end(), erases[c].begin(), erases[c].end());
          }
        }
        replay_stream(serialize(s, payloads, ops, true), &fab, sink.get(),
                      step >= 2, &t);
      }
    } else {
      // One connection's share per stream keeps the stream small.
      OpLists pre = plan.prefill_round();
      for (std::size_t c = 0; c < pre.size(); ++c) {
        OpLists one(1);
        one[0] = pre[c];
        replay_stream(serialize(s, payloads, one, true), &fab, sink.get(),
                      false, &t);
      }
      for (std::uint32_t round = 1; round <= 2; ++round) {
        OpLists ops = plan.overwrite_round(round);
        for (std::size_t c = 0; c < ops.size(); ++c) {
          OpLists one(1);
          one[0] = ops[c];
          replay_stream(serialize(s, payloads, one, true), &fab, sink.get(),
                        true, &t);
        }
      }
    }
  }
  ::shutdown(sink.get(), SHUT_RDWR);
  sink.reset();
  drain.join();
  return t;
}

double per_ns(double seconds, std::uint64_t n) {
  return n == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(n);
}

}  // namespace

int run_served(const Args& args, Result* result) {
  if (args.port <= 0) {
    std::fprintf(stderr, "perfbench: served workloads need --port\n");
    return 2;
  }
  result->check(crc32c_bitwise_selftest(),
                "bitwise CRC32C fails the 123456789 vector");
  const Shape shape = shape_of(args.workload);
  const Payloads payloads(shape, args.seed);
  const Plan plan(shape, args.seed);
  Load gen(shape, payloads, args.cpus);
  if (!gen.connect(args.port)) return 1;

  // Set-up: bring the working set to its steady state through the
  // server (two workflow steps, or one put of every large object).
  Version step = 0;
  std::uint32_t round = 1;
  if (shape.workflow) {
    for (; step < 2; ++step) {
      if (!gen.run(plan.put_phase(step)) || !gen.run(plan.read_phase(step))) {
        return 1;
      }
    }
  } else if (!gen.run(plan.prefill_round())) {
    return 1;
  }

  gen.set_measuring(true);
  result->measure_start = mono_now();
  const double deadline = result->measure_start + args.seconds;
  std::vector<double> round_s;
  do {
    const double t0 = mono_now();
    bool ok;
    if (shape.workflow) {
      ok = gen.run(plan.put_phase(step)) && gen.run(plan.read_phase(step)) &&
           gen.run(plan.erase_phase(step - 2));
      ++step;
    } else {
      ok = gen.run(plan.overwrite_round(round++));
    }
    if (!ok) return 1;
    round_s.push_back(mono_now() - t0);
  } while (mono_now() < deadline);
  const double wall = mono_now() - result->measure_start;
  gen.set_measuring(false);

  // The live set the model expects: the last two versions of every
  // block (served_small) or one copy of every object (served_large).
  if (!gen.run(plan.stat())) return 1;
  gen.merge_into(result);
  const std::uint64_t live_objects =
      shape.workflow ? 2 * shape.keys() : shape.keys();
  const std::uint64_t live_bytes = live_objects * shape.object_bytes;
  result->check(gen.last_stat().total_objects == live_objects,
                "stat object count differs from the model's live set");
  result->check(gen.last_stat().total_bytes == live_bytes,
                "stat byte total differs from the model's live set");

  const double mib = static_cast<double>(1u << 20);
  const double ops_s = static_cast<double>(gen.measured_ops()) / wall;
  if (!args.trace) {
    const Samples put_us = gen.samples(&LoadGen::put_us);
    const Samples get_us = gen.samples(&LoadGen::get_us);
    const Samples query_us = gen.samples(&LoadGen::query_us);
    result->metric("ops_s", ops_s);
    result->metric("mib_s",
                   static_cast<double>(gen.measured_bytes()) / mib / wall);
    result->metric("put_p50_us", put_us.percentile(0.50));
    result->metric("put_p99_us", put_us.percentile(0.99));
    result->metric("get_p50_us", get_us.percentile(0.50));
    result->metric("get_p99_us", get_us.percentile(0.99));
    result->metric("query_p50_us", query_us.percentile(0.50));
    result->metric("run_s", median(round_s));
    std::fprintf(stderr,
                 "perfbench: %zu rounds, %zu puts, %zu gets, %zu queries\n",
                 round_s.size(), put_us.count(), get_us.count(),
                 query_us.count());
    return 0;
  }

  const ReplayTimes t = replay(plan, payloads);
  result->metric("rpc.frame.parse_ns", per_ns(t.parse_s, t.frames));
  result->metric("rpc.protocol.decode_ns", per_ns(t.decode_s, t.frames));
  result->metric("rpc.protocol.encode_ns", per_ns(t.encode_s, t.frames));
  result->metric("staging.fabric.put_ns", per_ns(t.fabric_put_s, t.puts));
  result->metric("staging.fabric.get_ns", per_ns(t.fabric_get_s, t.gets));
  result->metric("staging.directory.upsert_ns", per_ns(t.upsert_s, t.puts));
  result->metric("staging.directory.query_latest_ns",
                 per_ns(t.query_s, t.queries));
  result->metric("staging.directory.remove_ns",
                 per_ns(t.remove_s, t.removes));
  result->metric("common.buffer.compact_ns", per_ns(t.compact_s, t.puts));
  result->metric("rpc.write_queue.flush_ns", per_ns(t.flush_s, t.frames));
  result->metric("common.checksum.crc32c_gib_s",
                 crc32c_gib_s(payloads.arena(), 16, shape.object_bytes));
  result->metric("staging.stored_per_user_byte",
                 static_cast<double>(gen.last_stat().total_bytes) /
                     static_cast<double>(live_bytes));
  // The traced run's own end-to-end figures, for the tracing overhead.
  std::fprintf(stderr, "perfbench: traced ops_s %.1f run_s %.6f\n", ops_s,
               median(round_s));
  return 0;
}

}  // namespace perfbench
