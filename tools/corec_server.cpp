// corec-server — the CoREC staging server binary. Fronts a
// ThreadFabric with the epoll RPC event loop and serves
// put/get/query/erase/stat to corec_client peers until SIGINT/SIGTERM,
// then prints a final stats summary.
//
//   corec-server --port 7457
//   corec-server --port 0 --servers 8 --pool-dispatch
//   COREC_FAILPOINTS='rpc.server.write=partial:p=0.01' corec-server ...
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <poll.h>
#include <unistd.h>

#include "common/failpoint.hpp"
#include "rpc/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

void usage() {
  std::fprintf(
      stderr,
      "usage: corec-server [options]\n"
      "  --host ADDR         bind address (default 127.0.0.1)\n"
      "  --port N            TCP port; 0 = kernel-assigned (default 7457)\n"
      "  --servers N         fabric staging servers (default 4)\n"
      "  --store-shards N    lock stripes per server store (0 = auto)\n"
      "  --dir-shards N      directory lock stripes (0 = auto)\n"
      "  --workers N         fabric worker threads (0 = auto)\n"
      "  --capacity BYTES    per-server capacity (0 = unlimited)\n"
      "  --pool-dispatch     run ops on the worker pool instead of the\n"
      "                      event-loop threads\n"
      "  --loops N           epoll event-loop shards\n"
      "                      (0 = min(hardware_concurrency, 4))\n"
      "  --segment BYTES     payload slice cap per write segment\n"
      "                      (default 1 MiB)\n"
      "  --max-frame BYTES   frame body ceiling (default 64 MiB)\n"
      "  --failpoints SPEC   arm fault-injection points\n");
}

}  // namespace

int main(int argc, char** argv) {
  corec::rpc::ServerOptions options;
  options.port = 7457;
  std::string failpoints;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else if (a == "--host") {
      options.host = next();
    } else if (a == "--port") {
      options.port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (a == "--servers") {
      options.num_servers = static_cast<std::size_t>(std::atol(next()));
    } else if (a == "--store-shards") {
      options.fabric.store_shards =
          static_cast<std::size_t>(std::atol(next()));
    } else if (a == "--dir-shards") {
      options.fabric.directory_shards =
          static_cast<std::size_t>(std::atol(next()));
    } else if (a == "--workers") {
      options.fabric.workers = static_cast<std::size_t>(std::atol(next()));
    } else if (a == "--capacity") {
      options.fabric.server_capacity =
          static_cast<std::size_t>(std::atoll(next()));
    } else if (a == "--pool-dispatch") {
      options.pool_dispatch = true;
    } else if (a == "--loops") {
      options.num_loops = static_cast<std::size_t>(std::atol(next()));
    } else if (a == "--segment") {
      options.max_segment_bytes =
          static_cast<std::size_t>(std::atoll(next()));
    } else if (a == "--max-frame") {
      options.max_frame_bytes = static_cast<std::size_t>(std::atoll(next()));
    } else if (a == "--failpoints") {
      failpoints = next();
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
      usage();
      return 2;
    }
  }

  if (!failpoints.empty()) {
    corec::Status st =
        corec::failpoint::registry().arm_from_string(failpoints);
    if (!st.ok()) {
      std::fprintf(stderr, "--failpoints: %s\n", st.message().c_str());
      return 2;
    }
  }

  corec::rpc::Server server(options);
  corec::Status st = server.start();
  if (!st.ok()) {
    std::fprintf(stderr, "corec-server: %s\n", st.to_string().c_str());
    return 1;
  }
  // The scrape-able readiness line (bench_rpc_json.sh and the CI smoke
  // job read the resolved port from it).
  std::printf(
      "corec-server listening on %s:%u (%zu servers, %zu loops, %s "
      "dispatch)\n",
      server.host().c_str(), server.port(), options.num_servers,
      server.num_loops(), options.pool_dispatch ? "pool" : "sync");
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (!g_stop) {
    ::poll(nullptr, 0, 200);
  }

  const auto rpc = server.stats();
  const auto fab = server.fabric().stats();
  server.stop();
  std::printf(
      "corec-server: %llu conns (%llu live), %llu frames in / %llu out, "
      "%llu B in / %llu B out\n",
      static_cast<unsigned long long>(rpc.accepted),
      static_cast<unsigned long long>(rpc.active),
      static_cast<unsigned long long>(rpc.frames_in),
      static_cast<unsigned long long>(rpc.frames_out),
      static_cast<unsigned long long>(rpc.bytes_in),
      static_cast<unsigned long long>(rpc.bytes_out));
  std::printf(
      "corec-server: %llu puts (%llu failed), %llu gets (%llu misses), "
      "%llu erases; %llu protocol errors, %llu backpressure pauses, "
      "%llu accept pauses, %llu injected failures\n",
      static_cast<unsigned long long>(fab.puts),
      static_cast<unsigned long long>(fab.put_failures),
      static_cast<unsigned long long>(fab.gets),
      static_cast<unsigned long long>(fab.get_misses),
      static_cast<unsigned long long>(fab.erases),
      static_cast<unsigned long long>(rpc.protocol_errors),
      static_cast<unsigned long long>(rpc.backpressure_pauses),
      static_cast<unsigned long long>(rpc.accept_pauses),
      static_cast<unsigned long long>(rpc.injected_failures));
  // Machine-readable transport record (bench_rpc_json.sh scrapes it):
  // per-loop syscall efficiency on both directions (writev coalescing
  // out, buffered multi-frame reads in), the frames-per-call
  // histograms, and the slab-allocator counters.
  const auto& pm = corec::payload_metrics();
  const std::uint64_t pool_hits =
      pm.pool_hits.load(std::memory_order_relaxed);
  const std::uint64_t pool_misses =
      pm.pool_misses.load(std::memory_order_relaxed);
  const std::uint64_t pool_oversize =
      pm.pool_oversize.load(std::memory_order_relaxed);
  const long long pool_outstanding =
      pm.pool_outstanding_bytes.load(std::memory_order_relaxed);
  std::printf("corec-server stats {\"loops\":%zu,\"accepted\":%llu,"
              "\"frames_in\":%llu,\"frames_out\":%llu,"
              "\"recv_calls\":%llu,\"recv_data_calls\":%llu,"
              "\"recv_eagain_calls\":%llu,\"recv_per_frame\":%.4f,"
              "\"writev_calls\":%llu,\"payload_chunks\":%llu,"
              "\"writev_per_frame\":%.4f,"
              "\"pool_hits\":%llu,\"pool_misses\":%llu,"
              "\"pool_oversize\":%llu,\"pool_outstanding_bytes\":%lld,"
              "\"pool_miss_per_frame\":%.4f,\"batch_hist\":[",
              server.num_loops(),
              static_cast<unsigned long long>(rpc.accepted),
              static_cast<unsigned long long>(rpc.frames_in),
              static_cast<unsigned long long>(rpc.frames_out),
              static_cast<unsigned long long>(rpc.recv_calls),
              static_cast<unsigned long long>(rpc.recv_data_calls),
              static_cast<unsigned long long>(rpc.recv_eagain_calls),
              rpc.frames_in == 0
                  ? 0.0
                  : static_cast<double>(rpc.recv_data_calls) /
                        static_cast<double>(rpc.frames_in),
              static_cast<unsigned long long>(rpc.writev_calls),
              static_cast<unsigned long long>(rpc.payload_chunks),
              rpc.frames_out == 0
                  ? 0.0
                  : static_cast<double>(rpc.writev_calls) /
                        static_cast<double>(rpc.frames_out),
              static_cast<unsigned long long>(pool_hits),
              static_cast<unsigned long long>(pool_misses),
              static_cast<unsigned long long>(pool_oversize),
              pool_outstanding,
              rpc.frames_in == 0
                  ? 0.0
                  : static_cast<double>(pool_misses) /
                        static_cast<double>(rpc.frames_in));
  for (std::size_t b = 0; b < corec::rpc::kWritevBatchBuckets; ++b) {
    std::printf("%s%llu", b == 0 ? "" : ",",
                static_cast<unsigned long long>(rpc.writev_batch_hist[b]));
  }
  std::printf("],\"recv_hist\":[");
  for (std::size_t b = 0; b < corec::rpc::kRecvBatchBuckets; ++b) {
    std::printf("%s%llu", b == 0 ? "" : ",",
                static_cast<unsigned long long>(rpc.recv_batch_hist[b]));
  }
  std::printf("],\"per_loop_frames_out\":[");
  for (std::size_t i = 0; i < rpc.per_loop.size(); ++i) {
    std::printf("%s%llu", i == 0 ? "" : ",",
                static_cast<unsigned long long>(
                    rpc.per_loop[i].frames_out));
  }
  std::printf("],\"per_loop_recv_data\":[");
  for (std::size_t i = 0; i < rpc.per_loop.size(); ++i) {
    std::printf("%s%llu", i == 0 ? "" : ",",
                static_cast<unsigned long long>(
                    rpc.per_loop[i].recv_data_calls));
  }
  std::printf("],\"per_loop_recv_eagain\":[");
  for (std::size_t i = 0; i < rpc.per_loop.size(); ++i) {
    std::printf("%s%llu", i == 0 ? "" : ",",
                static_cast<unsigned long long>(
                    rpc.per_loop[i].recv_eagain_calls));
  }
  std::printf("]}\n");
  return 0;
}
