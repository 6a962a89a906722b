// metadata_scale: core::DatasetStats::compute with file dedup over a
// paper-calibrated HubModel. Generator streams, the monolithic
// dedup::FileDedupIndex and stats do all the work; no byte layer runs.
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "dockmine/core/dataset.h"
#include "dockmine/dedup/file_dedup.h"
#include "workloads.h"

namespace dmbench {

using namespace dockmine;

namespace {

constexpr std::uint64_t kSeedBase = 20170601;
// About 1.1M distinct contents: the merged dedup index and each worker's
// slice stay inside one table size on every seed. Near 12M files (about 2M
// distinct) the merge grows the table one step further on some seeds only,
// and peak RSS moves between 470 and 660 MB from seed to seed.
constexpr std::uint64_t kTargetFiles = 5'000'000;
// The measured compute is serial. With 3 workers each worker streams a
// contiguous slice of the unique layers, so the slice holding the heaviest
// layers sets the wall: over ten seeds at equal file counts that spread
// wall_s by 0.28 of its median. The check runs the 3-worker compute and
// requires the same report.
constexpr std::size_t kWorkers = 0;
constexpr std::size_t kCheckWorkers = 3;
constexpr int kSetups = 31;

struct Corpus {
  std::uint64_t repositories = 0;
  std::uint64_t seed = 0;
};

Corpus corpus_for(std::uint64_t seed) {
  const CorpusSize size = size_corpus(
      synth::Calibration::paper(), corpus_seed(kSeedBase, seed),
      CorpusTarget{kTargetFiles, 0, 0}, 250, 650, 60,
      /*delivered_only=*/false, /*seeds=*/8);
  return Corpus{size.repositories, size.seed};
}

json::Value ecdf_json(const stats::Ecdf& cdf) {
  static constexpr double kGrid[] = {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0};
  auto values = json::Value::array();
  if (!cdf.empty()) {
    for (double q : kGrid) values.push_back(cdf.quantile(q));
  }
  return values;
}

/// The run's report: the paper's headline figures read from the stats.
/// `repeats` is the dedup index's repeat-count ECDF, built once per
/// compute (it sorts one sample per distinct content).
json::Value report_of(const core::DatasetStats& stats,
                      const stats::Ecdf& repeats) {
  auto doc = json::Value::object();
  doc.set("unique_layers", stats.unique_layer_count);
  doc.set("images", stats.image_count);
  doc.set("total_files", stats.total_files);
  doc.set("total_fls_bytes", stats.total_fls_bytes);
  doc.set("total_cls_bytes", stats.total_cls_bytes);
  doc.set("layer_files", ecdf_json(stats.layer_files));
  doc.set("layer_fls", ecdf_json(stats.layer_fls));
  doc.set("image_files", ecdf_json(stats.image_files));
  doc.set("sharing_ratio", stats.sharing.sharing_ratio());
  if (stats.file_index) {
    const dedup::DedupTotals totals = stats.file_index->totals();
    auto dedup = json::Value::object();
    dedup.set("total_files", totals.total_files);
    dedup.set("unique_files", totals.unique_files);
    dedup.set("total_bytes", totals.total_bytes);
    dedup.set("unique_bytes", totals.unique_bytes);
    dedup.set("count_ratio", totals.count_ratio());
    dedup.set("capacity_ratio", totals.capacity_ratio());
    dedup.set("repeat_counts", ecdf_json(repeats));
    doc.set("dedup", std::move(dedup));
  }
  return doc;
}

/// Traced pass: the compute rebuilt serially from the generator's layer
/// streams, the dedup index and the stats ECDFs, each call a span. The
/// layers go into two index slices that are merged afterwards, as the
/// parallel compute does.
void traced_pass(const synth::HubModel& hub, SpanLog& log, Samples& samples,
                 Outcome& outcome, const std::string& expected_report) {
  const int root = log.open("pass");
  const auto& unique = hub.unique_layers();
  dedup::FileDedupIndex index(1 << 18);
  dedup::FileDedupIndex second(1 << 18);
  const std::size_t split = unique.size() / 2;
  std::vector<synth::FileInstance> files;
  std::vector<core::LayerAgg> aggs(unique.size());
  std::unordered_map<synth::LayerId, std::size_t> dense;
  double stream_s = 0.0;
  double fold_s = 0.0;
  double agg_s = 0.0;
  std::uint64_t streamed = 0;
  // Two spans per unique layer would be ~10k spans; the per-layer calls
  // are summed into two spans covering the loop instead.
  const double loop_start = now_s();
  for (std::size_t i = 0; i < unique.size(); ++i) {
    const double t0 = now_s();
    files.clear();
    const synth::LayerSpec spec = hub.layer_spec(unique[i]);
    hub.layers().for_each_file(
        spec, [&](const synth::FileInstance& f) { files.push_back(f); });
    const double t1 = now_s();
    dedup::FileDedupIndex& slice = i < split ? index : second;
    for (const synth::FileInstance& f : files) {
      slice.add(f.content, f.size, f.type, static_cast<std::uint32_t>(i));
    }
    const double t2 = now_s();
    core::LayerAgg& agg = aggs[i];
    agg.file_count = files.size();
    agg.cls = synth::LayerModel::kGzipBaseOverhead;
    for (const synth::FileInstance& f : files) {
      agg.fls += f.size;
      const double ratio = hub.files().gzip_ratio_of(f.content);
      agg.cls += synth::LayerModel::kPerFileOverhead +
                 static_cast<std::uint64_t>(static_cast<double>(f.size) /
                                            (ratio < 1.0 ? 1.0 : ratio));
    }
    const double t3 = now_s();
    stream_s += t1 - t0;
    fold_s += t2 - t1;
    agg_s += t3 - t2;
    streamed += files.size();
    dense.emplace(unique[i], i);
  }
  log.record("synth.stream", loop_start, loop_start + stream_s);
  log.record("dedup.fold", loop_start + stream_s,
             loop_start + stream_s + fold_s);
  log.record("stats.layer_aggs", loop_start + stream_s + fold_s,
             loop_start + stream_s + fold_s + agg_s);
  log.time("dedup.merge", [&] { index.merge(second); });

  // Image pass: per-image sums, layer sharing and the image ECDFs.
  log.time("stats.images", [&] {
    dedup::LayerSharingAnalysis sharing;
    stats::Ecdf image_files;
    std::vector<dedup::LayerSharingAnalysis::LayerUse> uses;
    for (const synth::RepoSpec& repo : hub.repositories()) {
      if (repo.image_index < 0 || repo.requires_auth) continue;
      uses.clear();
      std::uint64_t image_file_count = 0;
      for (synth::LayerId id :
           hub.images()[static_cast<std::size_t>(repo.image_index)].layers) {
        const core::LayerAgg& agg = aggs[dense.at(id)];
        uses.push_back({id, agg.cls});
        image_file_count += agg.file_count;
      }
      sharing.add_image(uses);
      image_files.add(static_cast<double>(image_file_count));
    }
    return image_files.quantile(0.5);
  });

  const dedup::DedupTotals totals =
      log.time("dedup.totals", [&] { return index.totals(); });
  log.time("stats.ecdf", [&] {
    stats::Ecdf repeats = index.repeat_count_cdf();
    stats::Ecdf per_layer;
    for (const core::LayerAgg& agg : aggs) {
      per_layer.add(static_cast<double>(agg.file_count));
    }
    return repeats.quantile(0.5) + per_layer.quantile(0.9);
  });
  log.close(root);

  const SpanLog::Span& pass = log.spans()[static_cast<std::size_t>(root)];
  samples.add("trace.traced_wall_s", pass.end - pass.start, "s");
  samples.add("core.pipeline.unattributed_s", log.self_time(root), "s");
  samples.add("synth.stream_s", log.durations("synth.stream").back(), "s");
  samples.add("synth.files", static_cast<double>(streamed), "count");
  samples.add("dedup.fold_s", log.durations("dedup.fold").back(), "s");
  samples.add("dedup.merge_s", log.durations("dedup.merge").back(), "s");
  samples.add("dedup.distinct_contents",
              static_cast<double>(totals.unique_files), "count");
  samples.add("dedup.index_mb",
              static_cast<double>(index.memory_bytes()) / 1e6, "MB");
  samples.add("stats.ecdf_s", log.durations("stats.ecdf").back(), "s");
  samples.add("stats.layer_aggs_s", log.durations("stats.layer_aggs").back(),
              "s");
  samples.add("stats.images_s", log.durations("stats.images").back(), "s");

  auto expected = json::parse(expected_report);
  if (!expected.ok() ||
      expected.value()["dedup"]["unique_files"].as_uint() !=
          totals.unique_files ||
      expected.value()["total_files"].as_uint() != streamed) {
    outcome.fail_check("the traced pass does not rebuild the compute's totals");
  }
}

}  // namespace

Outcome run_metadata_scale(const Args& args) {
  Outcome outcome;
  const Corpus corpus = corpus_for(args.seed);
  write_file(args.work + "/corpus.json",
             "{\"repositories\":" + std::to_string(corpus.repositories) +
                 ",\"seed\":" + std::to_string(corpus.seed) + "}");
  const synth::Scale scale{corpus.repositories, corpus.seed};

  std::vector<double> setups;
  std::unique_ptr<synth::HubModel> hub;
  for (int i = 0; i < kSetups; ++i) {
    hub.reset();
    const double start = now_s();
    hub = std::make_unique<synth::HubModel>(synth::Calibration::paper(), scale);
    setups.push_back(now_s() - start);
  }

  core::DatasetOptions options;
  options.file_dedup = true;
  options.workers = kWorkers;

  if (args.trace) {
    SpanLog log;
    Samples samples;
    const double end = now_s() + args.seconds;
    do {
      const double start = now_s();
      const core::DatasetStats serial = core::DatasetStats::compute(*hub, options);
      const std::string report =
          report_of(serial, serial.file_index->repeat_count_cdf()).dump();
      const double untraced = now_s() - start;
      samples.add("trace.untraced_wall_s", untraced, "s");
      write_file(args.work + "/report.json", report);
      traced_pass(*hub, log, samples, outcome, report);
      ++outcome.attempted;
    } while (now_s() < end);
    samples.emit(outcome.metrics);
    if (!args.trace_out.empty()) log.write(args.trace_out);
    return outcome;
  }

  std::vector<double> walls;
  std::vector<double> ingests;
  std::string first_report;
  std::uint64_t files = 0;
  std::unique_ptr<core::DatasetStats> last;
  const double end = now_s() + args.seconds;
  do {
    last.reset();
    const double start = now_s();
    last = std::make_unique<core::DatasetStats>(
        core::DatasetStats::compute(*hub, options));
    const double ingested = now_s();
    const std::string report =
        report_of(*last, last->file_index->repeat_count_cdf()).dump();
    const double finished = now_s();
    ++outcome.attempted;
    ingests.push_back(ingested - start);
    walls.push_back(finished - start);
    if (first_report.empty()) {
      first_report = report;
      files = last->total_files;
      write_file(args.work + "/report.json", report);
    } else if (report != first_report) {
      outcome.fail_check("compute " + std::to_string(walls.size()) +
                         " differs from the first");
    }
  } while (now_s() < end);

  const double wall = median(walls);
  outcome.metrics.set("setup_s", median(setups), "s");
  outcome.metrics.set("wall_s", wall, "s");
  outcome.metrics.set("files_per_s", static_cast<double>(files) / wall,
                      "files/s");
  outcome.metrics.set("ingest_s", median(ingests), "s");
  outcome.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  return outcome;
}

Outcome check_metadata_scale(const Args& args) {
  Outcome outcome;
  std::string corpus_text, report_text;
  if (!read_file(args.work + "/corpus.json", corpus_text) ||
      !read_file(args.work + "/report.json", report_text)) {
    outcome.fail_check("measured run left no report");
    return outcome;
  }
  auto corpus_doc = json::parse(corpus_text);
  auto report_doc = json::parse(report_text);
  if (!corpus_doc.ok() || !report_doc.ok()) {
    outcome.fail_check("unreadable report");
    return outcome;
  }
  const synth::HubModel hub(
      synth::Calibration::paper(),
      synth::Scale{corpus_doc.value()["repositories"].as_uint(),
                   corpus_doc.value()["seed"].as_uint()});

  // The parallel compute and an independent distinct-content count, side
  // by side (this process is neither timed nor RSS-measured).
  std::string parallel_report;
  std::thread parallel([&] {
    core::DatasetOptions options;
    options.workers = kCheckWorkers;
    const core::DatasetStats stats = core::DatasetStats::compute(hub, options);
    parallel_report =
        report_of(stats, stats.file_index->repeat_count_cdf()).dump();
  });
  std::unordered_set<synth::ContentId> contents;
  std::uint64_t files = 0;
  for (synth::LayerId id : hub.unique_layers()) {
    hub.layers().for_each_file(hub.layer_spec(id),
                               [&](const synth::FileInstance& f) {
                                 ++files;
                                 contents.insert(f.content);
                               });
  }
  parallel.join();

  if (parallel_report != report_text) {
    outcome.fail_check("the " + std::to_string(kCheckWorkers) +
                       "-worker compute differs from the serial compute");
  }
  const json::Value& dedup = report_doc.value()["dedup"];
  if (dedup["unique_files"].as_uint() != contents.size()) {
    outcome.fail_check("distinct contents: compute " +
                       std::to_string(dedup["unique_files"].as_uint()) +
                       ", own count " + std::to_string(contents.size()));
  }
  if (dedup["total_files"].as_uint() != files) {
    outcome.fail_check("files: compute " +
                       std::to_string(dedup["total_files"].as_uint()) +
                       ", own count " + std::to_string(files));
  }
  return outcome;
}

}  // namespace dmbench
