// distributed_k2: core::Coordinator with two forked run_worker processes
// over two leases of one JobSpec. One round = bind a fresh coordinator and
// start its workers (set-up), run to the combined report, reap.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <memory>

#include "dockmine/core/coordinator.h"
#include "dockmine/core/lease.h"
#include "dockmine/core/multi_node.h"
#include "dockmine/core/pipeline.h"
#include "dockmine/core/worker.h"
#include "dockmine/obs/obs.h"
#include "dockmine/synth/materialize.h"
#include "workloads.h"

namespace dmbench {

using namespace dockmine;

namespace {

constexpr std::uint64_t kSeedBase = 20170701;
constexpr CorpusTarget kTarget{20000, 75'000'000, 5'000'000};
constexpr std::uint32_t kWorkers = 2;

core::JobSpec spec_for(std::uint64_t seed) {
  core::JobSpec spec;
  const CorpusSize size =
      size_corpus(synth::Calibration::light(), corpus_seed(kSeedBase, seed),
                  kTarget, 40, 200, 20, /*delivered_only=*/true, /*seeds=*/16);
  spec.seed = size.seed;
  spec.repositories = size.repositories;
  spec.light_calibration = true;
  spec.gzip_level = 1;
  // Two workers x (1 download + 2 analyze) threads stay within 4 cores.
  spec.download_workers = 1;
  spec.analyze_workers = 2;
  spec.shards = 4;
  return spec;
}

struct Round {
  bool ok = false;
  std::string error;
  double setup_s = 0.0;
  double ingest_s = 0.0;
  double wall_s = 0.0;
  double children_rss_mb = 0.0;
  std::uint64_t files = 0;
  std::string report;
  json::Value report_doc;
  core::DistStats stats;
};

Round run_round(const core::JobSpec& spec, const std::string& work_dir) {
  Round round;
  remove_tree(work_dir);
  core::CoordinatorOptions options;
  options.spec = spec;
  options.leases = kWorkers;
  options.work_dir = work_dir;
  options.straggler_factor = 0;  // one execution per lease

  const double setup_start = now_s();
  auto coordinator = std::make_unique<core::Coordinator>(options);
  if (auto status = coordinator->bind(); !status.ok()) {
    round.error = "bind: " + status.error().to_string();
    return round;
  }
  std::vector<pid_t> children;
  for (std::uint32_t i = 0; i < kWorkers; ++i) {
    int ready[2];
    if (::pipe(ready) != 0) break;
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(ready[0]);
      core::WorkerOptions worker;
      worker.port = coordinator->port();
      worker.worker_id = i + 1;
      worker.scratch_dir = work_dir + "/worker-" + std::to_string(i + 1);
      const char byte = 1;
      (void)!::write(ready[1], &byte, 1);
      ::close(ready[1]);
      (void)core::run_worker(worker);
      ::_exit(0);
    }
    ::close(ready[1]);
    char byte = 0;
    if (pid > 0) (void)!::read(ready[0], &byte, 1);
    ::close(ready[0]);
    if (pid > 0) children.push_back(pid);
  }
  round.setup_s = now_s() - setup_start;

  const double start = now_s();
  auto report = children.size() == kWorkers
                    ? coordinator->run()
                    : util::Result<core::CoordinatorReport>(
                          util::internal("could not fork the workers"));
  round.ingest_s = now_s() - start;
  if (report.ok()) {
    round.report_doc = core::analysis_report_json(report.value().combined);
    round.report = round.report_doc.dump();
  }
  round.wall_s = now_s() - start;

  for (pid_t pid : children) {
    int status = 0;
    rusage usage{};
    // Workers exit on the coordinator's shutdown frame; a stuck one is
    // killed after a grace period.
    const double deadline = now_s() + 10.0;
    pid_t done = 0;
    while ((done = ::wait4(pid, &status, WNOHANG, &usage)) == 0 &&
           now_s() < deadline) {
      ::usleep(2000);
    }
    if (done == 0) {
      ::kill(pid, SIGKILL);
      ::wait4(pid, &status, 0, &usage);
    }
    round.children_rss_mb = std::max(
        round.children_rss_mb, static_cast<double>(usage.ru_maxrss) / 1024.0);
  }
  coordinator.reset();
  remove_tree(work_dir);
  if (!report.ok()) {
    round.error = "coordinator: " + report.error().to_string();
    return round;
  }
  round.stats = report.value().stats;
  round.files = round.report_doc["dedup"]["total_files"].as_uint();
  round.ok = true;
  return round;
}

}  // namespace

Outcome run_distributed_k2(const Args& args) {
  Outcome outcome;
  const core::JobSpec spec = spec_for(args.seed);
  write_file(args.work + "/spec.json",
             "{\"repositories\":" + std::to_string(spec.repositories) +
                 ",\"seed\":" + std::to_string(spec.seed) + "}");

  if (args.trace) {
    obs::set_enabled(true);  // workers inherit it and ship obs per lease
    SpanLog log;
    Samples samples;
    const double end = now_s() + args.seconds;
    do {
      const Round round = run_round(spec, args.work + "/dist-trace");
      outcome.attempted += kWorkers;
      if (!round.ok) {
        outcome.failed += kWorkers;
        outcome.fail_check(round.error);
        break;
      }
      samples.add("trace.untraced_wall_s", round.wall_s, "s");
      write_file(args.work + "/report.json", round.report);
      samples.add("core.coordinator.leases",
                  static_cast<double>(round.stats.leases), "count");
      samples.add("core.coordinator.heartbeats",
                  static_cast<double>(round.stats.heartbeats_received),
                  "count");
      samples.add("core.coordinator.reassignments",
                  static_cast<double>(round.stats.reassignments), "count");
      samples.add("core.wire.shipped_mb",
                  static_cast<double>(round.stats.bytes_received) / 1e6, "MB");

      // The leases run one after another in this process, then fold: the
      // worker's and coordinator's calls, made directly and timed.
      const std::string dir = args.work + "/leases-trace";
      const int root = log.open("pass");
      std::vector<core::NodeContribution> contributions;
      for (std::uint32_t i = 0; i < kWorkers; ++i) {
        log.time("synth.materialize", [&] {
          const synth::HubModel hub(
              synth::Calibration::light(),
              synth::Scale{spec.repositories, spec.seed});
          registry::Service service;
          return synth::Materializer(hub, spec.gzip_level)
              .populate(service)
              .ok();
        });
        const std::string lease_dir = dir + "/lease-" + std::to_string(i);
        make_dirs(lease_dir);
        auto run = log.time("core.worker.lease", [&] {
          return core::run_end_to_end(
              core::lease_pipeline_options(spec, i, kWorkers, lease_dir));
        });
        if (!run.ok()) {
          outcome.fail_check("lease " + std::to_string(i) + " failed");
          continue;
        }
        core::NodeContribution c;
        c.images = std::move(run.value().images);
        c.manifests = std::move(run.value().manifests);
        run.value().layer_profiles.for_each(
            [&](const analyzer::LayerProfile& p) { c.layer_profiles.push_back(p); });
        c.manifests_pushed = run.value().manifests_pushed;
        c.shard_set_dir = lease_dir;
        c.shard_summary = run.value().shard_summary;
        contributions.push_back(std::move(c));
      }
      auto folded = log.time("core.coordinator.fold", [&] {
        return core::fold_contributions(contributions);
      });
      log.close(root);
      remove_tree(dir);
      if (!folded.ok() ||
          core::analysis_report_json(folded.value()).dump() != round.report) {
        outcome.fail_check("the in-process leases fold to a different report");
      }
      const std::vector<double> leases = log.durations("core.worker.lease");
      samples.add("core.worker.lease_p50_s",
                  median(std::vector<double>(leases.end() - kWorkers,
                                             leases.end())),
                  "s");
      samples.add("core.worker.materialize_s",
                  log.durations("synth.materialize").back(), "s");
      samples.add("core.coordinator.fold_s",
                  log.durations("core.coordinator.fold").back(), "s");
      samples.add("trace.traced_wall_s", log.durations("pass").back(), "s");
      samples.add("core.pipeline.unattributed_s", log.self_time(root), "s");
    } while (now_s() < end);
    obs::set_enabled(false);
    samples.emit(outcome.metrics);
    if (!args.trace_out.empty()) log.write(args.trace_out);
    return outcome;
  }

  std::vector<double> setups, ingests, walls;
  double children_rss = 0.0;
  std::uint64_t files = 0;
  std::string first_report;
  const double end = now_s() + args.seconds;
  int index = 0;
  do {
    Round round = run_round(spec, args.work + "/dist-" + std::to_string(index++));
    outcome.attempted += kWorkers;
    if (!round.ok) {
      outcome.failed += kWorkers;
      outcome.fail_check(round.error);
      break;
    }
    if (round.stats.reassignments != 0 || round.stats.lease_failures != 0) {
      outcome.fail_check("a lease was reassigned or failed");
    }
    setups.push_back(round.setup_s);
    ingests.push_back(round.ingest_s);
    walls.push_back(round.wall_s);
    children_rss = std::max(children_rss, round.children_rss_mb);
    if (first_report.empty()) {
      first_report = round.report;
      files = round.files;
      write_file(args.work + "/report.json", first_report);
    } else if (round.report != first_report) {
      outcome.fail_check("round " + std::to_string(index) +
                         " report differs from the first round");
    }
  } while (now_s() < end);
  if (first_report.empty()) return outcome;

  const double wall = median(walls);
  outcome.metrics.set("setup_s", median(setups), "s");
  outcome.metrics.set("wall_s", wall, "s");
  outcome.metrics.set("files_per_s", static_cast<double>(files) / wall,
                      "files/s");
  outcome.metrics.set("ingest_s", median(ingests), "s");
  outcome.metrics.set("peak_rss_mb", std::max(peak_rss_mb(), children_rss),
                      "MB");
  return outcome;
}

Outcome check_distributed_k2(const Args& args) {
  Outcome outcome;
  std::string report;
  if (!read_file(args.work + "/report.json", report)) {
    outcome.fail_check("measured run left no report");
    return outcome;
  }
  // The serial in-process pipeline on the same JobSpec.
  const core::JobSpec spec = spec_for(args.seed);
  const std::string dir = args.work + "/serial-check";
  make_dirs(dir);
  auto serial =
      core::run_end_to_end(core::lease_pipeline_options(spec, 0, 1, dir));
  remove_tree(dir);
  if (!serial.ok()) {
    outcome.fail_check("serial pipeline failed: " +
                       serial.error().to_string());
  } else if (core::analysis_report_json(serial.value()).dump() != report) {
    outcome.fail_check("the combined report differs from the serial "
                       "in-process pipeline");
  }
  return outcome;
}

}  // namespace dmbench
