// s3d_failure: the paper's S3D coupled workflow run in-process through
// StagingService with the CoREC scheme at its defaults (8 servers in 4
// cabinets, RS(3+1), one replica, storage floor 0.67). Simulation ranks
// write every block of the field each step, analysis ranks read slabs
// of it; one seeded server is killed at step 4 and replaced at step 8.
//
// A round is one whole workflow on a fresh service. Step 0 of each
// round is set-up; the wall time of every service call after it is the
// round's run time. Payloads come from the benchmark's own generator,
// a function of (seed, step, global element index), so every read is
// checked byte for byte without the program's help and generating the
// payloads is never timed.
//
// The traced run wraps the metadata plane and the scheme in forwarding
// decorators that time each call; self time is a span minus its
// children.
#include <chrono>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/checksum.hpp"
#include "core/corec_scheme.hpp"
#include "erasure/codec.hpp"
#include "staging/service.hpp"
#include "workloads/mechanisms.hpp"
#include "workloads/s3d.hpp"

namespace perfbench {
namespace {

using corec::Bytes;
using corec::SimTime;
using corec::Version;
using corec::geom::BoundingBox;
using corec::staging::ObjectDescriptor;
using corec::staging::ObjectLocation;
using Clock = std::chrono::steady_clock;
namespace staging = corec::staging;
namespace core = corec::core;

constexpr Version kFailStep = 4;
constexpr Version kReplaceStep = 8;
constexpr std::size_t kServers = 8;
// Workflow pacing, as WorkloadDriver's defaults.
constexpr SimTime kStepGap = corec::from_seconds(0.02);
constexpr SimTime kReadStagger = corec::from_micros(300);
// Far enough ahead that the lazy sweep (MTBF/4) has run every batch.
constexpr SimTime kRecoveryHorizon = corec::from_seconds(200.0);

corec::workloads::S3dConfig s3d_config() {
  corec::workloads::S3dConfig c;
  c.sim_cores_x = c.sim_cores_y = c.sim_cores_z = 8;  // 512 writer ranks
  c.block_extent = 16;                                // 32 KiB blocks
  c.staging_cores = kServers;
  c.analysis_cores = 128;
  c.time_steps = 12;
  return c;
}

/// The benchmark's payload model: element (x, y, z) of step `step`
/// holds mix64(salt(step) + global linear index), row-major with the
/// last dimension fastest, which is the staging layout of a box.
class FieldGenerator {
 public:
  FieldGenerator(const BoundingBox& domain, std::uint64_t seed)
      : ny_(static_cast<std::uint64_t>(domain.extent(1))),
        nz_(static_cast<std::uint64_t>(domain.extent(2))), seed_(seed) {}

  void fill(const BoundingBox& box, Version step, Bytes* out) const {
    out->resize(static_cast<std::size_t>(box.volume()) * 8);
    const std::uint64_t salt = mix64(seed_ * 1000003u + step);
    std::uint8_t* p = out->data();
    for (auto x = box.lo()[0]; x <= box.hi()[0]; ++x) {
      for (auto y = box.lo()[1]; y <= box.hi()[1]; ++y) {
        const std::uint64_t row =
            (static_cast<std::uint64_t>(x) * ny_ +
             static_cast<std::uint64_t>(y)) * nz_;
        for (auto z = box.lo()[2]; z <= box.hi()[2]; ++z) {
          const std::uint64_t v =
              mix64(salt + row + static_cast<std::uint64_t>(z));
          std::memcpy(p, &v, 8);
          p += 8;
        }
      }
    }
  }

 private:
  std::uint64_t ny_, nz_, seed_;
};

// ---- traced decorators -----------------------------------------------------

class TracedMetadata final : public staging::MetadataPlane {
 public:
  TracedMetadata(staging::MetadataPlane* inner, Spans* spans)
      : inner_(inner), spans_(spans) {}

  SimTime upsert(const ObjectDescriptor& desc,
                 ObjectLocation location) override {
    Span s(spans_, "staging.directory.upsert");
    return inner_->upsert(desc, std::move(location));
  }
  bool remove(const ObjectDescriptor& desc) override {
    Span s(spans_, "staging.directory.remove");
    return inner_->remove(desc);
  }
  const ObjectLocation* find(const ObjectDescriptor& desc) const override {
    Span s(spans_, "staging.directory.find");
    return inner_->find(desc);
  }
  std::vector<ObjectDescriptor> query(
      corec::VarId var, Version version,
      const BoundingBox& region) const override {
    return inner_->query(var, version, region);
  }
  std::vector<ObjectDescriptor> query_latest(
      corec::VarId var, Version version,
      const BoundingBox& region) const override {
    Span s(spans_, "staging.directory.query_latest");
    return inner_->query_latest(var, version, region);
  }
  const ObjectDescriptor* find_entity(
      corec::VarId var, const BoundingBox& box) const override {
    Span s(spans_, "staging.directory.find_entity");
    return inner_->find_entity(var, box);
  }
  std::size_t size() const override { return inner_->size(); }
  void for_each(const VisitFn& fn) const override { inner_->for_each(fn); }
  const staging::Directory& state() const override {
    return inner_->state();
  }
  void on_server_failed(corec::ServerId s, SimTime now) override {
    inner_->on_server_failed(s, now);
  }
  void on_server_replaced(corec::ServerId s, SimTime now) override {
    inner_->on_server_replaced(s, now);
  }
  bool available() const override { return inner_->available(); }
  SimTime replicate_map(const Bytes& blob, std::uint64_t version,
                        SimTime now) override {
    return inner_->replicate_map(blob, version, now);
  }
  std::uint64_t map_version() const override {
    return inner_->map_version();
  }

 private:
  staging::MetadataPlane* inner_;
  Spans* spans_;
};

class TracedScheme final : public staging::ResilienceScheme {
 public:
  TracedScheme(std::unique_ptr<core::CorecScheme> inner, Spans* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::string name() const override { return inner_->name(); }
  void bind(staging::StagingService* service) override {
    ResilienceScheme::bind(service);
    inner_->bind(service);
  }
  SimTime protect(const staging::DataObject& obj, corec::ServerId primary,
                  const ObjectDescriptor* previous, SimTime arrived,
                  staging::Breakdown* bd) override {
    Span s(spans_, "core.protect");
    return inner_->protect(obj, primary, previous, arrived, bd);
  }
  void on_access(const ObjectDescriptor& desc, SimTime now) override {
    Span s(spans_, "core.on_access");
    inner_->on_access(desc, now);
  }
  void on_server_failed(corec::ServerId s, SimTime now) override {
    Span span(spans_, "core.failover");
    inner_->on_server_failed(s, now);
  }
  void on_server_replaced(corec::ServerId s, SimTime now) override {
    Span span(spans_, "core.failover");
    inner_->on_server_replaced(s, now);
  }
  void end_of_step(Version step, SimTime now) override {
    Span s(spans_, "core.end_of_step");
    inner_->end_of_step(step, now);
  }
  std::size_t repair_backlog() const override {
    return inner_->repair_backlog();
  }

  const core::CorecScheme& inner() const { return *inner_; }

 private:
  std::unique_ptr<core::CorecScheme> inner_;
  Spans* spans_;
};

// ---- one round -------------------------------------------------------------

struct Totals {
  Samples put_us, get_us;
  // A reader's lookup plus the get of what it names: the lookup alone
  // (~2 us) follows the host's load several times over (see README).
  Samples query_us;
  std::vector<double> run_s;
  double user_bytes = 0;  // payload put + got in measured steps
  std::uint64_t measured_ops = 0;
  double stored_per_user_byte = 0;
  // Virtual-time (DES) outputs, pooled over every put/get of a round.
  double sim_write_s = 0, sim_read_s = 0;
  std::uint64_t sim_writes = 0, sim_reads = 0;
  staging::Breakdown write_bd, read_bd;
  // Public counters, summed over rounds.
  std::uint64_t demotions = 0, promotions = 0, writes_replicated = 0,
                writes_encoded = 0, integrity_checks = 0;
};

class Round {
 public:
  Round(const Args& args, const corec::workloads::WorkloadPlan& plan,
        const FieldGenerator& field, Result* result, Totals* totals,
        Spans* spans)
      : args_(args), plan_(plan), field_(field), result_(result),
        totals_(totals), spans_(spans) {}

  /// Runs one whole workflow. `first` marks the run's cold round (its
  /// step 0 ends set-up); `sweep` adds the any-second-failure check.
  void run(bool first, bool sweep) {
    auto options = corec::workloads::s3d_service_options(s3d_config());
    options.topology = corec::net::Topology(4, 2, 1);  // 8 servers
    options.seed = args_.seed;
    corec::sim::Simulation sim;
    auto corec_scheme = core::make_corec({});
    const core::CorecScheme* scheme = corec_scheme.get();
    std::unique_ptr<staging::ResilienceScheme> installed;
    if (spans_ != nullptr) {
      auto traced =
          std::make_unique<TracedScheme>(std::move(corec_scheme), spans_);
      scheme = &traced->inner();
      installed = std::move(traced);
    } else {
      installed = std::move(corec_scheme);
    }
    staging::StagingService service(options, &sim, std::move(installed));
    std::unique_ptr<TracedMetadata> traced_meta;
    if (spans_ != nullptr) {
      traced_meta =
          std::make_unique<TracedMetadata>(&service.directory(), spans_);
      service.attach_metadata(traced_meta.get());
    }
    const auto victim =
        static_cast<corec::ServerId>(mix64(args_.seed) % kServers);

    double run_s = 0;
    bool measured = false;
    // Times one service call into the round's run time (after step 0).
    auto call = [&](auto&& fn) {
      const auto t0 = Clock::now();
      fn();
      if (measured) {
        run_s += std::chrono::duration<double>(Clock::now() - t0).count();
      }
    };

    Bytes payload, out, expect;
    SimTime t = sim.now();
    for (Version step = 0; step < plan_.steps.size(); ++step) {
      measured = step >= 1;
      if (spans_ != nullptr) spans_->enabled = measured;
      call([&] { sim.run_until(t); });
      if (step == kFailStep) call([&] { service.kill_server(victim); });
      if (step == kReplaceStep) call([&] { service.replace_server(victim); });

      const auto& sp = plan_.steps[step];
      SimTime write_end = t;
      for (const auto& w : sp.writes) {
        field_.fill(w.box, step, &payload);
        staging::OpResult res;
        const double us = timed_us(measured, &run_s, [&] {
          Span s(spans_, "staging.put");
          res = service.put(w.var, step, w.box, payload);
        });
        result_->attempted += 1;
        if (!res.status.ok()) {
          result_->failed += 1;
          result_->check(false, "put failed: " + res.status.to_string());
          continue;
        }
        totals_->sim_write_s += corec::to_seconds(res.response_time());
        totals_->sim_writes += 1;
        totals_->write_bd += res.breakdown;
        if (measured) {
          totals_->put_us.add(us);
          totals_->user_bytes += static_cast<double>(payload.size());
          totals_->measured_ops += 1;
        }
        write_end = std::max(write_end, res.completed);
      }
      call([&] { sim.run_until(write_end); });

      SimTime read_end = write_end;
      std::size_t index = 0;
      for (const auto& r : sp.reads) {
        call([&] {
          sim.run_until(write_end +
                        static_cast<SimTime>(index++) * kReadStagger);
        });
        // A reader looks up what it will read, then gets it.
        const auto q0 = Clock::now();
        const auto found =
            service.directory().query_latest(r.var, step, r.box);
        const double lookup_us =
            std::chrono::duration<double, std::micro>(Clock::now() - q0)
                .count();
        bool fresh = !found.empty();
        for (const auto& d : found) fresh = fresh && d.version == step;
        result_->check(fresh, "query_latest did not name this step's data");
        staging::OpResult res;
        const double us = timed_us(measured, &run_s, [&] {
          Span s(spans_, "staging.get");
          res = service.get(r.var, step, r.box, &out);
        });
        result_->attempted += 1;
        if (!res.status.ok()) {
          result_->failed += 1;
          result_->check(false, "get failed: " + res.status.to_string());
          continue;
        }
        field_.fill(r.box, step, &expect);
        result_->check(out == expect, "read differs from the generator");
        totals_->sim_read_s += corec::to_seconds(res.response_time());
        totals_->sim_reads += 1;
        totals_->read_bd += res.breakdown;
        if (measured) {
          totals_->get_us.add(us);
          totals_->query_us.add(lookup_us + us);
          totals_->user_bytes += static_cast<double>(out.size());
          totals_->measured_ops += 1;
        }
        read_end = std::max(read_end, res.completed);
      }
      call([&] { sim.run_until(read_end); });
      call([&] {
        Span s(spans_, "staging.end_step");
        service.end_time_step(step);
      });
      t = read_end + kStepGap;
      if (step == 0 && first) result_->measure_start = mono_now();
    }
    call([&] { sim.run_until(t); });
    if (spans_ != nullptr) spans_->enabled = false;
    totals_->run_s.push_back(run_s);

    result_->check(service.stored_bytes() == service.stored_bytes_recomputed(),
                   "stored_bytes() differs from stored_bytes_recomputed()");
    result_->check(service.storage_efficiency() >= 0.67,
                   "storage efficiency below the 0.67 floor");
    totals_->stored_per_user_byte =
        static_cast<double>(service.stored_bytes()) /
        static_cast<double>(service.logical_bytes());
    const auto& st = scheme->stats();
    totals_->demotions += st.demotions;
    totals_->promotions += st.promotions;
    totals_->writes_replicated += st.writes_replicated;
    totals_->writes_encoded += st.writes_encoded;
    totals_->integrity_checks += service.integrity().checks;

    if (sweep) second_failure_sweep(&service, &sim, victim);
  }

 private:
  template <typename Fn>
  static double timed_us(bool measured, double* run_s, Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (measured) *run_s += s;
    return s * 1e6;
  }

  /// After lazy recovery drains, any single further failure must leave
  /// every region of the last step readable and byte-exact.
  void second_failure_sweep(staging::StagingService* service,
                            corec::sim::Simulation* sim,
                            corec::ServerId victim) {
    sim->run_until(sim->now() + kRecoveryHorizon);
    result_->check(service->scheme().repair_backlog() == 0,
                   "lazy recovery left a repair backlog");
    const Version last = plan_.steps.size() - 1;
    Bytes out, expect;
    for (corec::ServerId s = 0; s < kServers; ++s) {
      if (s == victim) continue;
      service->kill_server(s);
      for (const auto& r : plan_.steps[last].reads) {
        staging::OpResult res = service->get(r.var, last, r.box, &out);
        result_->attempted += 1;
        if (!res.status.ok()) {
          result_->failed += 1;
          result_->check(false, "read after a second failure failed: " +
                                    res.status.to_string());
          continue;
        }
        field_.fill(r.box, last, &expect);
        result_->check(out == expect,
                       "read after a second failure differs");
      }
      service->replace_server(s);
      sim->run_until(sim->now() + kRecoveryHorizon);
      result_->check(service->scheme().repair_backlog() == 0,
                     "recovery after a second failure left a backlog");
    }
  }

  const Args& args_;
  const corec::workloads::WorkloadPlan& plan_;
  const FieldGenerator& field_;
  Result* result_;
  Totals* totals_;
  Spans* spans_;
};

// ---- unit costs at the workload's sizes -----------------------------------

double gib_s(std::size_t bytes, double seconds) {
  return static_cast<double>(bytes) / seconds /
         static_cast<double>(1ull << 30);
}

/// RS(3+1) encode and single-erasure decode of one object's chunks.
void erasure_gib_s(std::size_t object_bytes, Result* result, double* enc,
                   double* dec) {
  auto codec = corec::erasure::make_reed_solomon(3, 1);
  if (!codec.ok()) {
    result->check(false, "cannot build RS(3+1)");
    return;
  }
  const std::size_t chunk = (object_bytes + 2) / 3;
  std::vector<Bytes> blocks(4, Bytes(chunk));
  std::uint64_t state = 11;
  for (std::size_t i = 0; i < 3; ++i) {
    for (auto& b : blocks[i]) b = static_cast<std::uint8_t>(splitmix64(&state));
  }
  const std::vector<corec::ByteSpan> data{blocks[0], blocks[1], blocks[2]};
  const std::vector<corec::MutableByteSpan> parity{blocks[3]};
  const std::size_t reps = (std::size_t{256} << 20) / (3 * chunk);
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < reps; ++i) (void)(*codec)->encode(data, parity);
  *enc = gib_s(reps * 3 * chunk,
               std::chrono::duration<double>(Clock::now() - t0).count());
  const Bytes original = blocks[0];
  std::vector<corec::MutableByteSpan> all{blocks[0], blocks[1], blocks[2],
                                          blocks[3]};
  const std::vector<std::size_t> erased{0};
  t0 = Clock::now();
  for (std::size_t i = 0; i < reps; ++i) (void)(*codec)->decode(all, erased);
  *dec = gib_s(reps * 3 * chunk,
               std::chrono::duration<double>(Clock::now() - t0).count());
  result->check(blocks[0] == original, "RS(3+1) decode did not restore");
}

}  // namespace

int run_s3d(const Args& args, Result* result) {
  pin_to_cpu(args.cpus.empty() ? -1 : args.cpus[0]);
  const auto config = s3d_config();
  const auto plan = corec::workloads::make_s3d_plan(config);
  const FieldGenerator field(plan.domain, args.seed);
  Totals totals;
  Spans spans;
  Spans* trace = args.trace ? &spans : nullptr;

  double deadline = 0;
  std::size_t rounds = 0;
  do {
    Round(args, plan, field, result, &totals, trace)
        .run(rounds == 0, rounds == 0);
    if (rounds == 0) deadline = result->measure_start + args.seconds;
    ++rounds;
  } while (mono_now() < deadline);

  const double run_total =
      std::accumulate(totals.run_s.begin(), totals.run_s.end(), 0.0);
  const double per_round = 1.0 / static_cast<double>(rounds);
  if (!args.trace) {
    result->metric("ops_s", static_cast<double>(totals.measured_ops) /
                                run_total);
    result->metric("mib_s", totals.user_bytes / (1 << 20) / run_total);
    result->metric("put_p50_us", totals.put_us.percentile(0.50));
    result->metric("put_p99_us", totals.put_us.percentile(0.99));
    result->metric("get_p50_us", totals.get_us.percentile(0.50));
    result->metric("get_p99_us", totals.get_us.percentile(0.99));
    result->metric("query_p50_us", totals.query_us.percentile(0.50));
    result->metric("run_s", median(totals.run_s));
    std::fprintf(stderr, "perfbench: %zu rounds, %zu puts, %zu gets\n",
                 rounds, totals.put_us.count(), totals.get_us.count());
    return 0;
  }

  for (const char* name :
       {"staging.put", "staging.get", "staging.end_step"}) {
    const std::string base = name;
    result->metric(base + "_self_s", spans.self_s(base) * per_round);
  }
  result->metric("core.protect_s", spans.self_s("core.protect") * per_round);
  result->metric("core.on_access_s",
                 spans.self_s("core.on_access") * per_round);
  result->metric("core.end_of_step_s",
                 spans.self_s("core.end_of_step") * per_round);
  result->metric("core.failover_s",
                 spans.self_s("core.failover") * per_round);
  for (const char* op :
       {"upsert", "remove", "find", "find_entity", "query_latest"}) {
    const std::string base = std::string("staging.directory.") + op;
    result->metric(base + "_s", spans.self_s(base) * per_round);
    result->metric(base + "_calls",
                   static_cast<double>(spans.calls(base)) * per_round);
  }
  result->metric("staging.stored_per_user_byte",
                 totals.stored_per_user_byte);
  result->metric("core.demotions", totals.demotions * per_round);
  result->metric("core.promotions", totals.promotions * per_round);
  result->metric("core.writes_replicated",
                 totals.writes_replicated * per_round);
  result->metric("core.writes_encoded", totals.writes_encoded * per_round);
  result->metric("staging.integrity_checks",
                 totals.integrity_checks * per_round);
  const std::size_t object_bytes =
      static_cast<std::size_t>(config.block_extent) * config.block_extent *
      config.block_extent * config.element_size;
  Bytes crc_buf(object_bytes * 4);
  std::uint64_t state = 7;
  for (auto& b : crc_buf) b = static_cast<std::uint8_t>(splitmix64(&state));
  result->metric("common.checksum.crc32c_gib_s",
                 crc32c_gib_s(crc_buf.data(), 4, object_bytes));
  double enc = 0, dec = 0;
  erasure_gib_s(object_bytes, result, &enc, &dec);
  result->metric("erasure.encode_gib_s", enc);
  result->metric("erasure.decode_gib_s", dec);
  result->metric("sim.write_us", totals.sim_write_s * 1e6 /
                                     static_cast<double>(totals.sim_writes));
  result->metric("sim.read_us", totals.sim_read_s * 1e6 /
                                    static_cast<double>(totals.sim_reads));
  // Fig. 9 categories: virtual microseconds per operation.
  const auto cats = [&](const char* side, const staging::Breakdown& bd,
                        std::uint64_t n) {
    const std::string p = std::string("sim.") + side + ".";
    const auto us = [n](SimTime v) {
      return static_cast<double>(v) / 1e3 / static_cast<double>(n);
    };
    result->metric(p + "transport_us", us(bd.transport));
    result->metric(p + "metadata_us", us(bd.metadata));
    result->metric(p + "encode_us", us(bd.encode));
    result->metric(p + "decode_us", us(bd.decode));
    result->metric(p + "classify_us", us(bd.classify));
    result->metric(p + "copy_us", us(bd.copy));
  };
  cats("write", totals.write_bd, totals.sim_writes);
  cats("read", totals.read_bd, totals.sim_reads);
  std::fprintf(stderr, "perfbench: traced %zu rounds, run_s %.6f\n", rounds,
               median(totals.run_s));
  return 0;
}

}  // namespace perfbench
