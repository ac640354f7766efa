// perfbench — the workload driver behind perfbench/run.py.
//
//   perfbench --workload served_small|served_large --port P
//             --seed N --seconds S --trace 0|1
//   perfbench --workload s3d_failure --seed N --seconds S --trace 0|1
//
// An optional --cpus A,B,... pins the load threads (thread i to the
// i-th CPU; the s3d_failure run has one).
//
// Prints one JSON line: correct/attempted/failed, the frames it sent
// (served workloads), the CLOCK_MONOTONIC time its measured phase
// began, the metrics it measured itself, and any failed output check.
// run.py adds set-up time and server RSS and prints the final record.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace {

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--port") {
      args.port = std::atoi(value);
    } else if (key == "--cpus") {
      for (const char* p = value; *p != '\0';) {
        char* end = nullptr;
        args.cpus.push_back(static_cast<int>(std::strtol(p, &end, 10)));
        if (end == p) {
          std::fprintf(stderr, "perfbench: bad --cpus '%s'\n", value);
          return 2;
        }
        p = *end == ',' ? end + 1 : end;
      }
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }

  perfbench::Result result;
  int rc = 2;
  if (args.workload == "served_small" || args.workload == "served_large") {
    rc = perfbench::run_served(args, &result);
  } else if (args.workload == "s3d_failure") {
    rc = perfbench::run_s3d(args, &result);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
  }
  if (rc != 0) return rc;

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"requests_sent\": %" PRIu64
              ", \"measure_start\": %.9f, \"metrics\": {",
              result.correct ? "true" : "false", result.attempted,
              result.failed, result.requests_sent, result.measure_start);
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    std::printf("%s", i == 0 ? "" : ", ");
    print_json_string(result.metrics[i].first);
    std::printf(": %.17g", result.metrics[i].second);
  }
  std::printf("}, \"problems\": [");
  for (std::size_t i = 0; i < result.problems.size(); ++i) {
    std::printf("%s", i == 0 ? "" : ", ");
    print_json_string(result.problems[i]);
  }
  std::printf("]}\n");
  return 0;
}
