// bytes_full: repeated crawl-to-report passes (core::run_end_to_end,
// streamed) over one registry of real gzip'd tar layers materialized at
// set-up, with the sharded, spilling content index.
#include <memory>
#include <mutex>
#include <unordered_set>

#include "dockmine/analyzer/layer_analyzer.h"
#include "dockmine/compress/gzip.h"
#include "dockmine/core/pipeline.h"
#include "dockmine/crawler/crawler.h"
#include "dockmine/downloader/downloader.h"
#include "dockmine/filetype/classifier.h"
#include "dockmine/registry/search.h"
#include "dockmine/shard/merger.h"
#include "dockmine/shard/sharded_index.h"
#include "dockmine/synth/materialize.h"
#include "dockmine/tar/reader.h"
#include "workloads.h"

namespace dmbench {

using namespace dockmine;

namespace {

constexpr std::uint64_t kSeedBase = 20170530;
constexpr CorpusTarget kTarget{40000, 150'000'000, 4'000'000};
constexpr int kGzipLevel = 1;
constexpr int kSetups = 3;

struct Corpus {
  std::uint64_t repositories = 0;
  std::uint64_t seed = 0;
};

Corpus corpus_for(std::uint64_t seed) {
  Corpus corpus;
  const CorpusSize size =
      size_corpus(synth::Calibration::light(), corpus_seed(kSeedBase, seed),
                  kTarget, 100, 300, 20, /*delivered_only=*/true, /*seeds=*/8);
  corpus.seed = size.seed;
  corpus.repositories = size.repositories;
  return corpus;
}

/// A registry materialized from the corpus, kept for every pass.
struct Registry {
  std::unique_ptr<synth::HubModel> hub;
  std::unique_ptr<registry::Service> service;
};

Registry materialize(const Corpus& corpus) {
  Registry out;
  out.hub = std::make_unique<synth::HubModel>(
      synth::Calibration::light(),
      synth::Scale{corpus.repositories, corpus.seed});
  out.service = std::make_unique<registry::Service>();
  synth::Materializer materializer(*out.hub, kGzipLevel);
  if (!materializer.populate(*out.service).ok()) out.service.reset();
  return out;
}

core::PipelineOptions pass_options(const Corpus& corpus,
                                   registry::Service& service,
                                   const std::string& spill_dir) {
  core::PipelineOptions options;
  options.scale = synth::Scale{corpus.repositories, corpus.seed};
  options.calibration = synth::Calibration::light();
  options.external_service = &service;
  options.mode = core::ExecutionMode::kStreamed;
  options.download_workers = 1;
  options.analyze_workers = 3;
  options.shard.shards = 4;
  // Low enough that every pass spills runs to disk and merges them.
  options.shard.spill_threshold_bytes = 256ull << 10;
  options.shard.spill_dir = spill_dir;
  return options;
}

/// registry::Source decorator that times every request the downloader
/// makes, for the registry.* per-layer metrics.
class TimedSource : public registry::Source {
 public:
  explicit TimedSource(registry::Source& inner) : inner_(inner) {}

  util::Result<std::string> fetch_manifest(const std::string& repository,
                                           const std::string& tag,
                                           bool authenticated) override {
    const double start = now_s();
    auto out = inner_.fetch_manifest(repository, tag, authenticated);
    note(start);
    return out;
  }
  util::Result<blob::BlobPtr> fetch_blob(
      const digest::Digest& digest) override {
    const double start = now_s();
    auto out = inner_.fetch_blob(digest);
    note(start);
    return out;
  }

  std::vector<std::pair<double, double>> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(intervals_);
  }

 private:
  void note(double start) {
    const double end = now_s();
    std::lock_guard<std::mutex> lock(mutex_);
    intervals_.push_back({start, end});
  }

  registry::Source& inner_;
  std::mutex mutex_;
  std::vector<std::pair<double, double>> intervals_;
};

struct FileView {
  std::string name;  ///< copied: the reader reuses its header buffer
  std::string_view content;
};

/// What a traced pass rebuilt, compared with the pipeline's own report.
struct TracedResult {
  bool ok = true;
  double wall_s = 0.0;
  std::uint64_t total_files = 0;
  std::uint64_t distinct_contents = 0;
};

/// One traced pass: the pipeline rebuilt from the layers' own entry points,
/// each call a span.
TracedResult traced_pass(
    const Corpus& corpus, registry::Service& service,
    const std::string& spill_dir, SpanLog& log, Samples& samples,
    std::vector<std::pair<digest::Digest, blob::BlobPtr>>& blobs) {
  const std::size_t first_span = log.spans().size();
  const int root = log.open("pass");
  bool ok = true;

  crawler::CrawlResult crawl = log.time("crawler.crawl", [&] {
    registry::SearchIndex index(service,
                                synth::Calibration::kSearchDuplicateFactor,
                                corpus.seed);
    return crawler::Crawler(index).crawl_all();
  });

  TimedSource timed(service);
  std::mutex blobs_mutex;
  std::vector<registry::Manifest> manifests;
  downloader::Options dl_options;
  dl_options.workers = 1;
  dl_options.retain_blobs = false;
  dl_options.layer_sink = [&](const digest::Digest& digest,
                              const blob::BlobPtr& blob) {
    std::lock_guard<std::mutex> lock(blobs_mutex);
    blobs.push_back({digest, blob});
  };
  const int download_span = log.open("downloader.download");
  downloader::Downloader downloader(timed, dl_options);
  const downloader::DownloadStats download = downloader.run(
      crawl.repositories, [&](downloader::DownloadedImage&& image) {
        std::lock_guard<std::mutex> lock(blobs_mutex);
        manifests.push_back(std::move(image.manifest));
      });
  for (const auto& [start, end] : timed.take()) {
    log.record("registry.fetch", start, end);
  }
  log.close(download_span);

  shard::Config config = pass_options(corpus, service, spill_dir).shard;
  shard::ShardedDedupIndex index(config);
  shard::ShardedDedupIndex::Writer& writer = index.local_writer();
  std::uint64_t entries = 0;
  std::uint64_t files = 0;
  std::uint64_t compressed_bytes = 0;
  std::uint64_t tar_bytes = 0;
  std::vector<FileView> views;
  std::vector<digest::Digest> file_digests;
  std::vector<filetype::Type> file_types;
  for (const auto& [layer_digest, blob] : blobs) {
    compressed_bytes += blob->size();
    const bool verified = log.time("digest.verify", [&] {
      return digest::Digest::of(*blob) == layer_digest;
    });
    if (!verified) ok = false;
    auto tar = log.time("compress.gunzip",
                        [&] { return compress::gzip_decompress(*blob); });
    if (!tar.ok()) {
      ok = false;
      continue;
    }
    tar_bytes += tar.value().size();
    views.clear();
    const util::Status walked = log.time("tar.walk", [&] {
      tar::Reader reader(tar.value());
      return reader.for_each([&](const tar::Entry& entry) {
        ++entries;
        if (entry.is_file() && !entry.is_whiteout()) {
          views.push_back({std::string(entry.header.name), entry.content});
        }
      });
    });
    if (!walked.ok()) ok = false;
    files += views.size();
    log.time("digest.file", [&] {
      file_digests.clear();
      for (const FileView& view : views) {
        file_digests.push_back(digest::Digest::of(view.content));
      }
    });
    log.time("filetype.classify", [&] {
      file_types.clear();
      for (const FileView& view : views) {
        file_types.push_back(
            filetype::classify(view.name, view.content.substr(0, 512)));
      }
    });
    log.time("shard.fold", [&] {
      const auto layer = static_cast<std::uint32_t>(layer_digest.key64() >> 32);
      for (std::size_t i = 0; i < views.size(); ++i) {
        writer.add(file_digests[i], views[i].content.size(), file_types[i],
                   layer);
      }
    });
  }

  dedup::LayerSharingAnalysis sharing;
  log.time("dedup.sharing", [&] {
    std::vector<dedup::LayerSharingAnalysis::LayerUse> uses;
    for (const registry::Manifest& manifest : manifests) {
      uses.clear();
      for (const auto& ref : manifest.layers) {
        uses.push_back({ref.digest.key64(), ref.compressed_size});
      }
      sharing.add_image(uses);
    }
  });

  shard::ShardMerger merger;
  auto merged = log.time("shard.merge", [&] {
    util::Status sealed = index.seal_into(merger);
    if (!sealed.ok()) return util::Result<shard::MergedAggregates>(sealed.error());
    return merger.merge_aggregates();
  });
  log.close(root);
  if (!merged.ok()) ok = false;

  const SpanLog::Span& pass = log.spans()[static_cast<std::size_t>(root)];
  std::uint64_t requests = 0;
  auto sum = [&](const std::string& name) {
    double total = 0.0;
    for (std::size_t i = first_span; i < log.spans().size(); ++i) {
      const SpanLog::Span& span = log.spans()[i];
      if (span.name == name) total += span.end - span.start;
    }
    return total;
  };
  for (std::size_t i = first_span; i < log.spans().size(); ++i) {
    if (log.spans()[i].name == "registry.fetch") ++requests;
  }
  const double verify_s = sum("digest.verify");
  const double gunzip_s = sum("compress.gunzip");
  samples.add("trace.traced_wall_s", pass.end - pass.start, "s");
  samples.add("core.pipeline.unattributed_s", log.self_time(root), "s");
  samples.add("crawler.crawl_s", sum("crawler.crawl"), "s");
  samples.add("crawler.pages", static_cast<double>(crawl.pages_fetched),
              "count");
  samples.add("registry.fetch_s", sum("registry.fetch"), "s");
  samples.add("registry.requests", static_cast<double>(requests), "count");
  samples.add("downloader.download_s", sum("downloader.download"), "s");
  samples.add("downloader.layers_fetched",
              static_cast<double>(download.layers_fetched), "count");
  samples.add("downloader.layers_deduped",
              static_cast<double>(download.layers_deduped), "count");
  samples.add("digest.verify_s", verify_s, "s");
  samples.add("digest.verify_mb_per_s",
              static_cast<double>(compressed_bytes) / 1e6 / verify_s, "MB/s");
  samples.add("digest.file_s", sum("digest.file"), "s");
  samples.add("compress.gunzip_s", gunzip_s, "s");
  samples.add("compress.gunzip_mb_per_s",
              static_cast<double>(tar_bytes) / 1e6 / gunzip_s, "MB/s");
  samples.add("tar.walk_s", sum("tar.walk"), "s");
  samples.add("tar.entries", static_cast<double>(entries), "count");
  samples.add("filetype.classify_s", sum("filetype.classify"), "s");
  samples.add("filetype.files", static_cast<double>(files), "count");
  samples.add("shard.fold_s", sum("shard.fold"), "s");
  samples.add("shard.merge_s", sum("shard.merge"), "s");
  samples.add("dedup.sharing_s", sum("dedup.sharing"), "s");
  if (merged.ok()) {
    samples.add("shard.runs_merged",
                static_cast<double>(merger.stats().runs), "count");
    samples.add("shard.spills", static_cast<double>(index.stats().spills),
                "count");
    samples.add("shard.spill_mb",
                static_cast<double>(index.stats().spilled_bytes) / 1e6, "MB");
    samples.add("dedup.distinct_contents",
                static_cast<double>(merged.value().distinct_contents), "count");
  }
  TracedResult result;
  result.ok = ok && merged.ok();
  result.wall_s = pass.end - pass.start;
  if (merged.ok()) {
    result.total_files = merged.value().totals.total_files;
    result.distinct_contents = merged.value().distinct_contents;
  }
  return result;
}

}  // namespace

Outcome run_bytes_full(const Args& args) {
  Outcome outcome;
  const Corpus corpus = corpus_for(args.seed);
  write_file(args.work + "/corpus.json",
             "{\"repositories\":" + std::to_string(corpus.repositories) +
                 ",\"seed\":" + std::to_string(corpus.seed) + "}");

  // Set-up: materialize the registry several times, keep the last.
  Registry registry;
  std::vector<double> setups;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    registry = Registry{};
    const double start = now_s();
    registry = materialize(corpus);
    setups.push_back(now_s() - start);
    if (!registry.service) {
      outcome.fail_check("materializing the registry failed");
      return outcome;
    }
  }

  if (args.trace) {
    SpanLog log;
    Samples samples;
    samples.add("synth.materialize_s", setups.front(), "s");
    samples.add("synth.layers_gzipped",
                static_cast<double>(registry.hub->unique_layers().size()),
                "count");
    const double end = now_s() + args.seconds;
    do {
      const std::string spill = args.work + "/spill-trace";
      make_dirs(spill);
      // Untraced serial pass: the traced pass below does the same work in
      // one thread, so the two walls give the tracing overhead.
      const double start = now_s();
      auto serial_options = pass_options(corpus, *registry.service, spill);
      serial_options.mode = core::ExecutionMode::kSerial;
      auto serial = core::run_end_to_end(serial_options);
      const double untraced = now_s() - start;
      samples.add("trace.untraced_wall_s", untraced, "s");
      remove_tree(spill);
      make_dirs(spill);

      std::vector<std::pair<digest::Digest, blob::BlobPtr>> blobs;
      const TracedResult traced =
          traced_pass(corpus, *registry.service, spill, log, samples, blobs);
      if (!traced.ok) outcome.fail_check("a layer call of the traced pass failed");
      samples.add("trace.overhead", traced.wall_s / untraced - 1.0, "ratio");
      remove_tree(spill);
      ++outcome.attempted;

      // Per-layer analysis latency over the same blobs.
      std::vector<double> layer_ms;
      const analyzer::LayerAnalyzer layer_analyzer;
      const analyzer::FileVisitor visitor =
          [](std::string_view, const analyzer::FileRecord&) {};
      for (const auto& [digest, blob] : blobs) {
        const double t0 = now_s();
        auto profile = layer_analyzer.analyze_blob(*blob, &visitor);
        layer_ms.push_back((now_s() - t0) * 1e3);
        if (!profile.ok()) outcome.fail_check("analyze_blob failed");
      }
      samples.add("analyzer.layer_p50_ms", percentile(layer_ms, 0.5), "ms");
      samples.add("analyzer.layer_p99_ms", percentile(layer_ms, 0.99), "ms");
      blobs.clear();

      // The streamed pass as measured, for its queue and spill accounting.
      make_dirs(spill);
      auto streamed =
          core::run_end_to_end(pass_options(corpus, *registry.service, spill));
      remove_tree(spill);
      if (!serial.ok() || !streamed.ok()) {
        outcome.fail_check("run_end_to_end failed in the traced run");
        break;
      }
      const double report_start = now_s();
      const std::string report =
          core::pipeline_report_json(streamed.value()).dump();
      samples.add("core.report_s", now_s() - report_start, "s");
      write_file(args.work + "/report.json", report);
      const core::StreamStats& stream = streamed.value().stream;
      samples.add("core.pipeline.queue_stalls",
                  static_cast<double>(stream.producer_stalls), "count");
      samples.add("core.pipeline.queue_peak",
                  static_cast<double>(stream.queue_peak), "count");
      if (report != core::pipeline_report_json(serial.value()).dump()) {
        outcome.fail_check("serial and streamed reports differ");
      }
      const auto& dedup = *streamed.value().shard_dedup;
      if (dedup.totals.total_files != traced.total_files ||
          dedup.distinct_contents != traced.distinct_contents) {
        outcome.fail_check("the traced pass does not rebuild the report's "
                           "dedup totals");
      }
    } while (now_s() < end);
    samples.emit(outcome.metrics);
    if (!args.trace_out.empty()) log.write(args.trace_out);
    return outcome;
  }

  std::vector<double> walls;
  std::vector<double> ingests;
  std::string first_report;
  std::uint64_t files = 0;
  const double end = now_s() + args.seconds;
  int pass = 0;
  do {
    const std::string spill = args.work + "/spill-" + std::to_string(pass++);
    make_dirs(spill);
    const double start = now_s();
    auto result =
        core::run_end_to_end(pass_options(corpus, *registry.service, spill));
    const double ingested = now_s();
    std::string report;
    if (result.ok()) report = core::pipeline_report_json(result.value()).dump();
    const double finished = now_s();
    remove_tree(spill);
    ++outcome.attempted;
    if (!result.ok()) {
      ++outcome.failed;
      continue;
    }
    ingests.push_back(ingested - start);
    walls.push_back(finished - start);
    if (first_report.empty()) {
      first_report = report;
      files = result.value().shard_dedup->totals.total_files;
      write_file(args.work + "/report.json", report);
    } else if (report != first_report) {
      outcome.fail_check("pass " + std::to_string(pass) +
                         " report differs from the first pass");
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

Outcome check_bytes_full(const Args& args) {
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
      synth::Calibration::light(),
      synth::Scale{corpus_doc.value()["repositories"].as_uint(),
                   corpus_doc.value()["seed"].as_uint()});

  // Expected outcomes straight from the generator's repository specs.
  std::uint64_t auth = 0, no_tag = 0, delivered = 0;
  std::unordered_set<synth::LayerId> layers;
  for (const synth::RepoSpec& repo : hub.repositories()) {
    if (repo.requires_auth) {
      ++auth;
    } else if (!repo.has_latest || repo.image_index < 0) {
      ++no_tag;
    } else {
      ++delivered;
      for (synth::LayerId id :
           hub.images()[static_cast<std::size_t>(repo.image_index)].layers) {
        layers.insert(id);
      }
    }
  }
  std::uint64_t files = 0, bytes = 0;
  std::unordered_set<synth::ContentId> contents;
  for (synth::LayerId id : layers) {
    hub.layers().for_each_file(hub.layer_spec(id),
                               [&](const synth::FileInstance& f) {
                                 ++files;
                                 bytes += f.size;
                                 // Every empty file has the same bytes.
                                 contents.insert(f.size == 0
                                                     ? synth::FileModel::kEmptyContentId
                                                     : f.content);
                               });
  }

  const json::Value& report = report_doc.value();
  const json::Value& download = report["download"];
  const json::Value& dedup = report["analysis"]["dedup"];
  auto expect = [&](const char* what, std::uint64_t got, std::uint64_t want) {
    if (got != want) {
      outcome.fail_check(std::string(what) + ": report " +
                         std::to_string(got) + ", generator " +
                         std::to_string(want));
    }
  };
  expect("delivered images", download["succeeded"].as_uint(), delivered);
  expect("401 repositories", download["failed_auth"].as_uint(), auth);
  expect("404 repositories",
         download["failed_no_tag"].as_uint() +
             download["failed_missing"].as_uint(),
         no_tag);
  expect("images", report["analysis"]["images"]["count"].as_uint(), delivered);
  expect("layers", report["analysis"]["layers"]["count"].as_uint(),
         layers.size());
  expect("files", dedup["total_files"].as_uint(), files);
  expect("bytes", dedup["total_bytes"].as_uint(), bytes);
  expect("distinct contents", dedup["unique_files"].as_uint(),
         contents.size());
  return outcome;
}

}  // namespace dmbench
