// The CoREC network server: N sharded epoll event loops fronting a
// ThreadFabric. The acceptor (loop 0) hands each incoming fd to the
// loop with the fewest live connections; from then on that loop owns
// the connection's state machine exclusively — frame reassembly in,
// coalesced write queue out — with no cross-loop locking. Operations
// execute either inline on the owning loop thread (sync dispatch) or
// on the fabric's worker pool, with completions posted back to the
// *owning* loop through its eventfd.
//
// Read path: each connection recv()s into a pooled read buffer (see
// frame.hpp), so a pipelined burst of small frames costs one
// data-bearing syscall for many frames (recv_syscalls_per_frame < 1).
// Small request bodies arrive as zero-copy slices of that buffer;
// large mid-flight bodies assemble directly into their own pooled
// allocation. Stored put payloads are compacted off the read
// buffer when the slice would park a mostly-idle store.
//
// Data-path zero-copy both ways:
//   * put — a large body is the single pooled allocation the socket
//     was read into; the stored payload is a slice of it (no memcpy);
//   * get — the response is a small encoded head plus the store's
//     refcounted payload view, shipped as scatter-gather segments; the
//     only copy of the payload is the kernel socket write.
//
// Write path: queued frames drain through one sendmsg per wakeup over
// an iovec array spanning multiple frames (writev coalescing), with
// payloads sliced at max_segment_bytes and a per-flush byte budget so
// one multi-MiB get cannot head-of-line-block the loop's other
// connections (see write_queue.hpp).
//
// Backpressure: when a connection's write queue exceeds the bound, the
// server stops reading from it (EPOLLIN off) until the queue drains
// below half — a slow reader throttles itself, not the whole server.
// EPOLLRDHUP stays registered even while reads are paused, so a dead
// client is reaped on the event instead of on the next failed write.
// On EMFILE/ENFILE the acceptor parks itself (listen interest off,
// one log line) and resumes as soon as any loop closes a connection.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "rpc/event_loop.hpp"
#include "rpc/frame.hpp"
#include "rpc/protocol.hpp"
#include "rpc/write_queue.hpp"
#include "staging/thread_fabric.hpp"

namespace corec::rpc {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = kernel-assigned (see Server::port())
  /// Fabric shape fronted by this server.
  std::size_t num_servers = 4;
  staging::FabricOptions fabric;
  /// false: ops run inline on the owning loop thread (lowest latency);
  /// true: ops dispatch onto the fabric worker pool (loop threads never
  /// block on a store lock).
  bool pool_dispatch = false;
  /// Epoll event-loop shards; 0 = min(hardware_concurrency, 4). The
  /// acceptor assigns each new connection to the least-loaded loop.
  std::size_t num_loops = 0;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Write-queue bound per connection before reads pause.
  std::size_t max_write_queue_bytes = 32u << 20;
  /// Payload slice cap per write segment (chunked large-object
  /// streaming); also sets the per-flush byte budget (4 segments).
  std::size_t max_segment_bytes = 1u << 20;
};

/// Frames-per-recv histogram buckets: 0 (partial), 1, 2, 3–4, 5–8,
/// 9–16, 17–32, 33+.
inline constexpr std::size_t kRecvBatchBuckets = 8;

/// Per-loop transport counters (relaxed; exact at quiesce).
struct LoopStatsSnapshot {
  std::uint64_t connections = 0;  // currently owned by this loop
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t recv_calls = 0;       // total recv() syscalls
  std::uint64_t recv_data_calls = 0;  // recv() that returned bytes
  std::uint64_t recv_eagain_calls = 0;  // wakeup probes (EAGAIN)
  std::uint64_t writev_calls = 0;
  std::uint64_t payload_chunks = 0;  // payload iovec slices shipped
  /// Frames per sendmsg: 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, 65+.
  std::array<std::uint64_t, kWritevBatchBuckets> writev_batch_hist{};
  /// Frames completed per data-bearing recv: 0, 1, 2, 3–4, … 33+.
  std::array<std::uint64_t, kRecvBatchBuckets> recv_batch_hist{};
};

/// Operation + transport counters, aggregated over every loop.
struct ServerStatsSnapshot {
  std::uint64_t accepted = 0;
  std::uint64_t active = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t recv_calls = 0;
  std::uint64_t recv_data_calls = 0;
  std::uint64_t recv_eagain_calls = 0;
  std::uint64_t writev_calls = 0;
  std::uint64_t payload_chunks = 0;
  std::uint64_t protocol_errors = 0;   // bad magic/version/opcode/body
  std::uint64_t backpressure_pauses = 0;
  std::uint64_t accept_pauses = 0;  // EMFILE/ENFILE park episodes
  std::uint64_t injected_failures = 0;  // failpoint-forced drops/errors
  std::array<std::uint64_t, kWritevBatchBuckets> writev_batch_hist{};
  std::array<std::uint64_t, kRecvBatchBuckets> recv_batch_hist{};
  std::vector<LoopStatsSnapshot> per_loop;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the event-loop threads.
  Status start();

  /// Stops accepting, closes every connection, joins the loop threads.
  /// Safe to call twice.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Bound address (valid after start(); resolves port 0).
  const std::string& host() const { return options_.host; }
  std::uint16_t port() const { return bound_port_; }

  /// Resolved loop-shard count.
  std::size_t num_loops() const { return loops_.size(); }

  /// The data plane this server fronts. The in-process view stays
  /// fully usable — tests compare RPC results against direct calls.
  staging::ThreadFabric& fabric() { return fabric_; }
  const staging::ThreadFabric& fabric() const { return fabric_; }

  ServerStatsSnapshot stats() const;

 private:
  struct Connection {
    Connection(int fd_in, std::size_t loop_in, FrameAssemblerOptions fa,
               WriteQueueOptions wq)
        : fd(fd_in), loop(loop_in), assembler(fa), write_queue(wq) {}
    int fd;
    std::size_t loop;  // owning loop shard; all state below is its
    FrameAssembler assembler;
    WriteQueue write_queue;
    bool reads_paused = false;
    bool closed = false;
    std::uint64_t inflight = 0;  // pool-dispatched ops not yet completed
  };
  using ConnPtr = std::shared_ptr<Connection>;

  /// One epoll shard: the loop, its thread, and the connections it
  /// exclusively owns. Counters are relaxed atomics because stats()
  /// reads them from foreign threads; each is written by one loop.
  struct LoopShard {
    std::unique_ptr<EventLoop> loop;
    std::thread thread;
    std::unordered_map<int, ConnPtr> connections;  // owning thread only
    std::atomic<std::uint64_t> active{0};  // acceptor load metric
    std::atomic<std::uint64_t> frames_in{0};
    std::atomic<std::uint64_t> frames_out{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> bytes_out{0};
    std::atomic<std::uint64_t> recv_calls{0};
    std::atomic<std::uint64_t> recv_data_calls{0};
    std::atomic<std::uint64_t> recv_eagain_calls{0};
    std::atomic<std::uint64_t> writev_calls{0};
    std::atomic<std::uint64_t> payload_chunks{0};
    std::array<std::atomic<std::uint64_t>, kWritevBatchBuckets>
        writev_batch_hist{};
    std::array<std::atomic<std::uint64_t>, kRecvBatchBuckets>
        recv_batch_hist{};
  };

  void on_accept();
  /// Parks the acceptor on EMFILE/ENFILE (listen interest off).
  void pause_accept();
  /// Re-arms the parked acceptor; called (via post to loop 0) when any
  /// connection closes.
  void resume_accept();
  /// Registers an accepted fd on its owning loop (runs on that loop).
  void adopt_connection(std::size_t loop_index, int fd);
  void on_connection_event(const ConnPtr& conn, std::uint32_t events);
  void on_readable(const ConnPtr& conn);
  void handle_frame(const ConnPtr& conn, Frame frame);
  /// Executes one op against the fabric; returns the response.
  OutFrame execute(const FrameHeader& header, const PayloadBuffer& body);
  OutFrame error_response(const FrameHeader& req, const Status& status);
  void enqueue_response(const ConnPtr& conn, OutFrame frame);
  void flush_writes(const ConnPtr& conn);
  void update_read_interest(const ConnPtr& conn);
  void close_connection(const ConnPtr& conn);
  EventLoop& loop_of(const ConnPtr& conn) {
    return *loops_[conn->loop]->loop;
  }
  LoopShard& shard_of(const ConnPtr& conn) { return *loops_[conn->loop]; }
  /// Non-static: stamps the fabric's current pool-map version into
  /// every response header so clients converge without extra rounds.
  Bytes make_head(const FrameHeader& req_header, const Status& status,
                  const Bytes& body_prefix, std::size_t payload_bytes);
  /// True when a data op carries a nonzero map version older than the
  /// fabric's published one (or member.map.stale_client forces it).
  bool stale_map(const FrameHeader& header) const;
  /// kNotMyShard response whose body is the serialized current map.
  OutFrame stale_map_response(const FrameHeader& req);

  ServerOptions options_;
  staging::ThreadFabric fabric_;
  std::vector<std::unique_ptr<LoopShard>> loops_;
  OwnedFd listen_fd_;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> accept_paused_{false};

  mutable std::atomic<std::uint64_t> accepted_{0};
  mutable std::atomic<std::uint64_t> protocol_errors_{0};
  mutable std::atomic<std::uint64_t> backpressure_pauses_{0};
  mutable std::atomic<std::uint64_t> accept_pauses_{0};
  mutable std::atomic<std::uint64_t> injected_failures_{0};
};

}  // namespace corec::rpc
