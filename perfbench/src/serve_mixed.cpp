// serve_mixed: an in-process batch-mode ServeDaemon under closed-loop
// readers on a fixed number of connections, while one writer commits a
// fixed number of ingest batches back to back. One round = start a fresh
// daemon (set-up), run the readers from the first ingest until the last
// commit, read the final report, stop.
#include <atomic>
#include <memory>
#include <thread>

#include "dockmine/core/multi_node.h"
#include "dockmine/core/pipeline.h"
#include "dockmine/core/serve.h"
#include "dockmine/obs/obs.h"
#include "dockmine/shard/lookup.h"
#include "workloads.h"

namespace dmbench {

using namespace dockmine;
namespace serve = dockmine::core::serve;

namespace {

constexpr std::uint64_t kSeedBase = 20170615;
constexpr std::uint64_t kInitialFiles = 6000;
constexpr std::uint64_t kBatchFiles = 5000;
constexpr std::size_t kIngests = 3;
constexpr std::size_t kConnections = 2;
constexpr const char* kShapes[] = {"report", "image",  "layer", "content",
                                   "types",  "ecdf",   "status", "stats",
                                   "top",    "repos"};
constexpr std::size_t kShapeCount = sizeof kShapes / sizeof kShapes[0];

struct Workload {
  core::JobSpec job;                     ///< initial batch
  std::vector<serve::BatchSpec> ingests;  ///< committed in order
};

serve::BatchSpec sized_batch(std::uint64_t seed, std::uint64_t files) {
  const CorpusSize size = size_corpus(
      synth::Calibration::light(), seed,
      CorpusTarget{files, files * 3800, 2'500'000}, 10, 90, 20,
      /*delivered_only=*/true, /*seeds=*/12);
  return serve::BatchSpec{size.repositories, size.seed};
}

Workload workload_for(std::uint64_t seed) {
  Workload w;
  const serve::BatchSpec initial =
      sized_batch(corpus_seed(kSeedBase, seed), kInitialFiles);
  w.job.repositories = initial.repositories;
  w.job.seed = initial.seed;
  w.job.light_calibration = true;
  w.job.gzip_level = 1;
  w.job.download_workers = 1;
  w.job.analyze_workers = 1;
  w.job.shards = 2;
  for (std::size_t i = 0; i < kIngests; ++i) {
    w.ingests.push_back(
        sized_batch(corpus_seed(kSeedBase + 1000 * (i + 1), seed), kBatchFiles));
  }
  return w;
}

std::string workload_json(const Workload& w) {
  auto doc = json::Value::object();
  auto batches = json::Value::array();
  batches.push_back(serve::batch_spec_to_json(
      serve::BatchSpec{w.job.repositories, w.job.seed}));
  for (const serve::BatchSpec& spec : w.ingests) {
    batches.push_back(serve::batch_spec_to_json(spec));
  }
  doc.set("batches", std::move(batches));
  return doc.dump();
}

/// Keys the readers cycle through, taken from the initial snapshot.
struct Keys {
  std::vector<std::string> repositories;
  std::vector<std::uint64_t> layers;
  std::vector<std::uint64_t> contents;
};

Keys keys_of(const serve::Snapshot& snapshot) {
  Keys keys;
  for (const auto& [repository, report] : snapshot.images) {
    keys.repositories.push_back(repository);
    if (keys.repositories.size() == 64) break;
  }
  for (const auto& top : snapshot.sharing.top(64)) {
    keys.layers.push_back(top.layer_key);
  }
  snapshot.contents.for_each([&](std::uint64_t key, const dedup::ContentEntry&) {
    if (keys.contents.size() < 64 && key < (1ull << 63)) {
      keys.contents.push_back(key);
    }
  });
  if (keys.repositories.empty()) keys.repositories.push_back("library/none");
  if (keys.layers.empty()) keys.layers.push_back(1);
  if (keys.contents.empty()) keys.contents.push_back(1);
  return keys;
}

serve::Request read_request(std::size_t i, const Keys& keys) {
  serve::Request request;
  request.kind = serve::RequestKind::kQuery;
  request.id = i + 1;
  const std::size_t shape = i % kShapeCount;
  const std::size_t turn = i / kShapeCount;
  request.q = kShapes[shape];
  switch (shape) {
    case 0:
      request.path = turn % 2 == 0 ? "analysis.dedup" : "download";
      break;
    case 1:
      request.repository = keys.repositories[turn % keys.repositories.size()];
      break;
    case 2:
      request.key = keys.layers[turn % keys.layers.size()];
      break;
    case 3:
      request.key = keys.contents[turn % keys.contents.size()];
      break;
    case 5:
      request.name = turn % 2 == 0 ? "layers.cls" : "images.fis";
      request.quantile = 0.5;
      break;
    case 8:
      request.metric = "cis";
      request.n = 10;
      break;
    default:
      break;
  }
  return request;
}

/// One reader's record of a round.
struct Lane {
  std::vector<double> rtt_ms;
  std::vector<std::uint8_t> shape;
  std::vector<double> parse_ms;
  std::vector<double> handle_ms;
  std::uint64_t errors = 0;
  std::uint64_t epoch_regressions = 0;
};

struct Round {
  bool ok = false;
  std::string error;
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> commit_s;
  std::uint64_t ingested_files = 0;
  std::uint64_t ingest_failures = 0;
  std::vector<Lane> lanes;
  std::string final_report;
  std::uint64_t final_epoch = 0;
};

std::uint64_t total_files(const json::Value& report) {
  return report["analysis"]["dedup"]["total_files"].as_uint();
}

Round run_round(const Workload& w, const std::string& state_dir,
                bool telemetry) {
  Round round;
  remove_tree(state_dir);
  serve::ServeOptions options;
  options.job = w.job;
  options.state_dir = state_dir;
  options.telemetry.enabled = telemetry;

  const double setup_start = now_s();
  auto daemon = std::make_unique<serve::ServeDaemon>(options);
  if (auto status = daemon->start(); !status.ok()) {
    round.error = "daemon start: " + status.error().to_string();
    remove_tree(state_dir);
    return round;
  }
  round.setup_s = now_s() - setup_start;
  const auto initial = daemon->snapshot();
  const Keys keys = keys_of(*initial);
  const std::uint64_t initial_files = total_files(initial->report);

  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  round.lanes.resize(kConnections);
  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < kConnections; ++c) {
    readers.emplace_back([&, c] {
      Lane& lane = round.lanes[c];
      auto client = serve::Client::connect(daemon->port());
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (!client.ok()) {
        ++lane.errors;
        return;
      }
      std::uint64_t last_epoch = 0;
      for (std::size_t i = c; !done.load(std::memory_order_acquire); ++i) {
        const serve::Request request = read_request(i, keys);
        const double t0 = now_s();
        auto response = client.value().call(request);
        const double rtt = (now_s() - t0) * 1e3;
        if (!response.ok() || !response.value().ok) {
          ++lane.errors;
          if (!response.ok()) return;  // the connection is gone
          continue;
        }
        if (response.value().epoch < last_epoch) ++lane.epoch_regressions;
        last_epoch = response.value().epoch;
        lane.rtt_ms.push_back(rtt);
        lane.shape.push_back(static_cast<std::uint8_t>(i % kShapeCount));
        lane.parse_ms.push_back(response.value().parse_ms);
        lane.handle_ms.push_back(response.value().handle_ms);
      }
    });
  }

  auto writer = serve::Client::connect(daemon->port());
  if (writer.ok()) (void)writer.value().set_timeout_ms(120000);
  const double window_start = now_s();
  go.store(true, std::memory_order_release);
  for (std::size_t b = 0; b < w.ingests.size() && writer.ok(); ++b) {
    serve::Request ingest;
    ingest.kind = serve::RequestKind::kIngest;
    ingest.id = b + 1;
    ingest.repositories = w.ingests[b].repositories;
    ingest.seed = w.ingests[b].seed;
    const double t0 = now_s();
    auto response = writer.value().call(ingest);
    round.commit_s.push_back(now_s() - t0);
    if (!response.ok() || !response.value().ok) ++round.ingest_failures;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  serve::Request report;
  report.kind = serve::RequestKind::kQuery;
  report.id = 1000000;
  report.q = "report";
  if (writer.ok()) {
    auto response = writer.value().call(report);
    if (response.ok() && response.value().ok) {
      round.final_report = response.value().body.dump();
      round.final_epoch = response.value().epoch;
      round.ingested_files = total_files(response.value().body) - initial_files;
    }
  }
  round.wall_s = now_s() - window_start;
  if (!writer.ok()) ++round.ingest_failures;
  daemon->stop();
  daemon.reset();
  remove_tree(state_dir);
  round.ok = !round.final_report.empty();
  if (!round.ok) round.error = "no final report";
  return round;
}

core::NodeContribution contribution_of(core::PipelineResult& result,
                                       const std::string& dir) {
  core::NodeContribution contribution;
  contribution.images = result.images;
  contribution.manifests = result.manifests;
  result.layer_profiles.for_each([&](const analyzer::LayerProfile& profile) {
    contribution.layer_profiles.push_back(profile);
  });
  contribution.manifests_pushed = result.manifests_pushed;
  contribution.shard_set_dir = dir;
  contribution.shard_summary = result.shard_summary;
  return contribution;
}

void add_download(downloader::DownloadStats& into,
                  const downloader::DownloadStats& d) {
  into.attempted += d.attempted;
  into.succeeded += d.succeeded;
  into.failed_auth += d.failed_auth;
  into.failed_no_tag += d.failed_no_tag;
  into.failed_missing += d.failed_missing;
  into.failed_digest += d.failed_digest;
  into.failed_other += d.failed_other;
  into.repos_resumed += d.repos_resumed;
  into.repos_canceled += d.repos_canceled;
  into.layers_fetched += d.layers_fetched;
  into.layers_deduped += d.layers_deduped;
  into.layers_resumed += d.layers_resumed;
  into.bytes_downloaded += d.bytes_downloaded;
}

/// The union of the workload's batches, from independent batch runs folded
/// as a multi-node recombination (the daemon's commit path, called
/// directly). With a span log, each call is a span.
util::Result<std::string> union_report(const Workload& w,
                                       const std::string& dir,
                                       SpanLog* log) {
  std::vector<serve::BatchSpec> specs{{w.job.repositories, w.job.seed}};
  specs.insert(specs.end(), w.ingests.begin(), w.ingests.end());
  std::vector<core::NodeContribution> contributions;
  std::vector<std::string> dirs;
  downloader::DownloadStats downloads{};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    core::JobSpec job = w.job;
    job.repositories = specs[i].repositories;
    job.seed = specs[i].seed;
    const std::string batch_dir = dir + "/batch-" + std::to_string(i);
    make_dirs(batch_dir);
    const double start = now_s();
    auto run = core::run_end_to_end(
        core::lease_pipeline_options(job, 0, 1, batch_dir));
    if (log != nullptr) log->record("core.serve.batch_pipeline", start, now_s());
    if (!run.ok()) return run.error();
    add_download(downloads, run.value().download);
    contributions.push_back(contribution_of(run.value(), batch_dir));
    dirs.push_back(batch_dir);
  }
  const double fold_start = now_s();
  auto folded = core::fold_contributions(contributions);
  if (log != nullptr) log->record("core.serve.fold", fold_start, now_s());
  if (!folded.ok()) return folded.error();
  folded.value().download = downloads;
  const double open_start = now_s();
  auto index = shard::ShardSetIndex::open(dirs);
  if (log != nullptr) log->record("shard.setindex_open", open_start, now_s());
  if (!index.ok()) return index.error();
  const double dump_start = now_s();
  std::string report = core::pipeline_report_json(folded.value()).dump();
  if (log != nullptr) log->record("json.report_dump", dump_start, now_s());
  return report;
}

void check_round(const Round& round, const std::string& first_report,
                 Outcome& outcome) {
  std::uint64_t errors = 0, regressions = 0;
  for (const Lane& lane : round.lanes) {
    errors += lane.errors;
    regressions += lane.epoch_regressions;
  }
  outcome.failed += errors + round.ingest_failures;
  if (errors != 0) {
    outcome.fail_check(std::to_string(errors) + " reads failed");
  }
  if (round.ingest_failures != 0) {
    outcome.fail_check(std::to_string(round.ingest_failures) +
                       " ingests failed");
  }
  if (regressions != 0) {
    outcome.fail_check(std::to_string(regressions) +
                       " responses carried an older epoch than the one "
                       "before them on the same connection");
  }
  if (round.final_epoch != 1 + kIngests) {
    outcome.fail_check("final epoch " + std::to_string(round.final_epoch));
  }
  if (!first_report.empty() && round.final_report != first_report) {
    outcome.fail_check("final report differs between rounds");
  }
}

}  // namespace

Outcome run_serve_mixed(const Args& args) {
  Outcome outcome;
  const Workload w = workload_for(args.seed);
  write_file(args.work + "/workload.json", workload_json(w));

  if (args.trace) {
    // Telemetry stamps parse/handle timings on every response.
    obs::set_enabled(true);
    SpanLog log;
    Samples samples;
    const double end = now_s() + args.seconds;
    do {
      const Round round = run_round(w, args.work + "/serve-trace", true);
      if (!round.ok) {
        outcome.fail_check(round.error);
        break;
      }
      check_round(round, "", outcome);
      write_file(args.work + "/report.json", round.final_report);
      std::vector<double> parse, handle, transit, rtt;
      std::vector<std::vector<double>> per_shape(kShapeCount);
      std::uint64_t reads = 0;
      for (const Lane& lane : round.lanes) {
        for (std::size_t i = 0; i < lane.rtt_ms.size(); ++i) {
          parse.push_back(lane.parse_ms[i]);
          handle.push_back(lane.handle_ms[i]);
          transit.push_back(lane.rtt_ms[i] - lane.parse_ms[i] -
                            lane.handle_ms[i]);
          per_shape[lane.shape[i]].push_back(lane.rtt_ms[i]);
          rtt.push_back(lane.rtt_ms[i]);
        }
        reads += lane.rtt_ms.size();
      }
      outcome.attempted += reads + round.commit_s.size();
      samples.add("core.serve.parse_p50_ms", percentile(parse, 0.5), "ms");
      samples.add("core.serve.handle_p50_ms", percentile(handle, 0.5), "ms");
      samples.add("core.serve.handle_p99_ms", percentile(handle, 0.99), "ms");
      for (std::size_t s = 0; s < kShapeCount; ++s) {
        samples.add(std::string("core.serve.") + kShapes[s] + "_p50_ms",
                    percentile(per_shape[s], 0.5), "ms");
      }
      samples.add("core.wire.transit_p50_ms", percentile(transit, 0.5), "ms");
      samples.add("core.serve.read_qps",
                  static_cast<double>(rtt.size()) / round.wall_s, "1/s");
      samples.add("core.serve.read_p50_ms", percentile(rtt, 0.50), "ms");
      samples.add("core.serve.read_p99_ms", percentile(rtt, 0.99), "ms");
      samples.add("core.serve.reads_during_ingest", static_cast<double>(reads),
                  "count");

      // Write side: the commit path's calls, made directly and timed.
      const std::string dir = args.work + "/union-trace";
      const int root = log.open("commit_path");
      auto report = union_report(w, dir, &log);
      log.close(root);
      remove_tree(dir);
      if (!report.ok() || report.value() != round.final_report) {
        outcome.fail_check("the commit path rebuilt a different report");
      }
      const std::vector<double> batches =
          log.durations("core.serve.batch_pipeline");
      samples.add("core.serve.batch_pipeline_s",
                  median(std::vector<double>(batches.end() - kIngests,
                                             batches.end())),
                  "s");
      samples.add("core.serve.fold_s", log.durations("core.serve.fold").back(),
                  "s");
      samples.add("shard.setindex_open_s",
                  log.durations("shard.setindex_open").back(), "s");
      samples.add("json.report_dump_s",
                  log.durations("json.report_dump").back(), "s");
      samples.add("core.pipeline.unattributed_s", log.self_time(root), "s");
    } while (now_s() < end);
    obs::set_enabled(false);
    samples.emit(outcome.metrics);
    if (!args.trace_out.empty()) log.write(args.trace_out);
    return outcome;
  }

  std::vector<double> setups, walls, commits;
  std::vector<double> files_per_s;
  // Peak RSS through the first round: each round starts fresh threads whose
  // malloc arenas outlive them, so later rounds would make the figure
  // depend on how many rounds fit in the run.
  double first_round_rss_mb = 0.0;
  std::string first_report;
  const double end = now_s() + args.seconds;
  int index = 0;
  do {
    const Round round =
        run_round(w, args.work + "/serve-" + std::to_string(index++), false);
    if (!round.ok) {
      outcome.fail_check(round.error);
      ++outcome.failed;
      ++outcome.attempted;
      break;
    }
    check_round(round, first_report, outcome);
    if (first_report.empty()) {
      first_report = round.final_report;
      write_file(args.work + "/report.json", first_report);
    }
    setups.push_back(round.setup_s);
    walls.push_back(round.wall_s);
    commits.insert(commits.end(), round.commit_s.begin(), round.commit_s.end());
    files_per_s.push_back(static_cast<double>(round.ingested_files) /
                          round.wall_s);
    std::uint64_t reads = 0;
    for (const Lane& lane : round.lanes) reads += lane.rtt_ms.size() + lane.errors;
    outcome.attempted += reads + round.commit_s.size();
    if (first_round_rss_mb == 0.0) first_round_rss_mb = peak_rss_mb();
  } while (now_s() < end);

  outcome.metrics.set("setup_s", median(setups), "s");
  outcome.metrics.set("wall_s", median(walls), "s");
  outcome.metrics.set("files_per_s", median(files_per_s), "files/s");
  outcome.metrics.set("ingest_s", median(commits), "s");
  outcome.metrics.set("peak_rss_mb", first_round_rss_mb, "MB");
  return outcome;
}

Outcome check_serve_mixed(const Args& args) {
  Outcome outcome;
  std::string served;
  if (!read_file(args.work + "/report.json", served)) {
    outcome.fail_check("measured run left no report");
    return outcome;
  }
  const Workload w = workload_for(args.seed);
  const std::string dir = args.work + "/union-check";
  auto expected = union_report(w, dir, nullptr);
  remove_tree(dir);
  if (!expected.ok()) {
    outcome.fail_check("independent batch runs failed: " +
                       expected.error().to_string());
  } else if (expected.value() != served) {
    outcome.fail_check("the served report differs from the folded "
                       "independent batch runs");
  }
  return outcome;
}

}  // namespace dmbench
