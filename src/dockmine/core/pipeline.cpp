#include "dockmine/core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "dockmine/analyzer/pipeline.h"
#include "dockmine/obs/journal.h"
#include "dockmine/obs/obs.h"
#include "dockmine/obs/span.h"
#include "dockmine/registry/manifest.h"
#include "dockmine/registry/throttle.h"
#include "dockmine/stats/cdf.h"
#include "dockmine/util/thread_pool.h"

namespace dockmine::core {

namespace {

struct PipelineMetrics {
  obs::Gauge& queue_depth;
  obs::Histogram& push_wait_ms;
  obs::Histogram& pop_wait_ms;
  obs::Histogram& queue_wait_ms;

  static PipelineMetrics& get() {
    auto& reg = obs::Registry::global();
    static PipelineMetrics m{
        reg.gauge("dockmine_pipeline_queue_depth"),
        reg.histogram("dockmine_pipeline_queue_push_wait_ms"),
        reg.histogram("dockmine_pipeline_queue_pop_wait_ms"),
        reg.histogram("dockmine_pipeline_queue_wait_ms")};
    return m;
  }
};

/// Staged (and serial) execution: download everything, barrier, analyze.
/// Unique layer blobs delivered by the downloader are kept in a digest map
/// so the analysis stage reads the downloaded bytes instead of re-fetching
/// from the registry.
util::Status execute_staged(const PipelineOptions& options,
                            registry::Source& source,
                            std::size_t download_workers,
                            std::size_t analyze_workers,
                            const analyzer::AnalysisPipeline::Sink& sink,
                            PipelineResult& result) {
  auto& tracer = obs::Tracer::global();

  downloader::Options dl_options;
  dl_options.workers = download_workers;
  dl_options.checkpoint = options.checkpoint;
  dl_options.cancel = options.cancel;
  dl_options.deliver_resumed = options.checkpoint != nullptr;
  downloader::Downloader downloader(source, dl_options);

  std::unordered_map<digest::Digest, blob::BlobPtr, digest::DigestHash> blobs;
  {
    const auto span = tracer.span("download");
    result.download = downloader.run(
        result.crawl.repositories, [&](downloader::DownloadedImage&& image) {
          for (std::size_t i = 0; i < image.manifest.layers.size(); ++i) {
            blobs.emplace(image.manifest.layers[i].digest,
                          std::move(image.layer_blobs[i]));
          }
          result.manifests.push_back(std::move(image.manifest));
        });
  }

  analyzer::AnalysisPipeline::Options an_options;
  an_options.workers = analyze_workers;
  analyzer::AnalysisPipeline analysis(an_options);
  {
    // Worker-side untar/classify totals land under "pipeline/analyze/..."
    // via the analysis pipeline's record_at (it reads our open path).
    const auto span = tracer.span("analyze");
    auto store = analysis.run(
        result.manifests,
        [&](const digest::Digest& digest) -> util::Result<blob::BlobPtr> {
          auto it = blobs.find(digest);
          if (it != blobs.end() && it->second != nullptr) return it->second;
          // The analyzer trusts the digest it is handed; bytes from outside
          // the downloader are verified here instead.
          auto blob = source.fetch_blob(digest);
          if (blob.ok() && digest::Digest::of(*blob.value()) != digest) {
            return util::corrupt("digest mismatch for layer " +
                                 digest.short_hex());
          }
          return blob;
        },
        sink);
    if (!store.ok()) return std::move(store).error();
    result.layer_profiles = std::move(store).value();
  }
  return util::Status::success();
}

/// Streamed execution: downloader workers push verified blobs into a
/// bounded queue, analyzer workers drain it concurrently. The downloader
/// runs with retain_blobs off, so the queue (not a run-wide cache) is the
/// only place blob bytes live between the stages.
util::Status execute_streamed(const PipelineOptions& options,
                              registry::Source& source,
                              std::size_t download_workers,
                              std::size_t analyze_workers,
                              const analyzer::AnalysisPipeline::Sink& sink,
                              PipelineResult& result) {
  auto& tracer = obs::Tracer::global();
  // One span covers the overlapped stages; the analyzer session captures
  // this path at construction, so its gunzip/classify/untar totals land
  // under "pipeline/stream/...".
  const auto span = tracer.span("stream");

  analyzer::AnalysisPipeline analysis;
  analyzer::AnalysisPipeline::Session session(analysis, sink);

  struct Item {
    digest::Digest digest;
    blob::BlobPtr blob;
    // Hand-off instrumentation: when the producer stamped it (obs clock)
    // and which span was open there (the layer's download event), so the
    // consumer can measure queue wait and parent its analyze event across
    // the thread hop.
    double enqueue_ms = 0.0;
    obs::TraceContext ctx{};
  };
  util::BoundedQueue<Item> queue(std::max<std::size_t>(1, options.queue_depth));
  std::atomic<std::uint64_t> enqueued{0};
  std::atomic<std::uint64_t> stalls{0};
  const bool timed = obs::enabled();
  PipelineMetrics& metrics = PipelineMetrics::get();

  std::vector<std::thread> consumers;
  consumers.reserve(std::max<std::size_t>(1, analyze_workers));
  for (std::size_t i = 0; i < std::max<std::size_t>(1, analyze_workers); ++i) {
    consumers.emplace_back([&] {
      for (;;) {
        const double wait_start = timed ? obs::now_ms() : 0.0;
        auto item = queue.pop();
        const double popped = timed ? obs::now_ms() : 0.0;
        if (timed) {
          metrics.pop_wait_ms.observe(popped - wait_start);
          metrics.queue_depth.set(static_cast<std::int64_t>(queue.size()));
        }
        if (!item) return;  // closed and drained
        if (timed) {
          // Hand-off latency: producer stamp -> consumer pop (covers time
          // in the queue plus any producer backpressure stall).
          metrics.queue_wait_ms.observe(popped - item->enqueue_ms);
          obs::record_event("queue_wait", obs::EventKind::kQueueWait,
                            item->enqueue_ms, popped, item->ctx);
        }
        {
          // Adopt the producer's context so the analyze event parents to
          // this layer's download event, not to this consumer thread.
          obs::ContextGuard adopt(item->ctx);
          session.analyze(item->digest, *item->blob);
        }
        if (options.on_layer_analyzed) {
          options.on_layer_analyzed(session.layers_analyzed());
        }
      }
    });
  }

  downloader::Options dl_options;
  dl_options.workers = download_workers;
  dl_options.checkpoint = options.checkpoint;
  dl_options.cancel = options.cancel;
  dl_options.deliver_resumed = options.checkpoint != nullptr;
  dl_options.retain_blobs = false;
  dl_options.layer_sink = [&](const digest::Digest& digest,
                              const blob::BlobPtr& blob) {
    Item item{digest, blob};
    if (timed) {
      item.enqueue_ms = obs::now_ms();
      item.ctx = obs::current_trace_context();
    }
    enqueued.fetch_add(1, std::memory_order_relaxed);
    if (!queue.try_push(item)) {
      // Full: this is backpressure working. Count the stall, then block.
      stalls.fetch_add(1, std::memory_order_relaxed);
      const double wait_start = timed ? obs::now_ms() : 0.0;
      const obs::TraceContext push_ctx = item.ctx;
      queue.push(std::move(item));
      if (timed) {
        const double pushed = obs::now_ms();
        metrics.push_wait_ms.observe(pushed - wait_start);
        obs::record_event("queue_push_wait", obs::EventKind::kQueueWait,
                          wait_start, pushed, push_ctx);
      }
    }
    if (timed) metrics.queue_depth.set(static_cast<std::int64_t>(queue.size()));
  };
  downloader::Downloader downloader(source, dl_options);

  result.download = downloader.run(
      result.crawl.repositories, [&](downloader::DownloadedImage&& image) {
        result.manifests.push_back(std::move(image.manifest));
      });
  queue.close();
  for (auto& consumer : consumers) consumer.join();

  result.stream.layers_enqueued = enqueued.load(std::memory_order_relaxed);
  result.stream.layers_analyzed = session.layers_analyzed();
  result.stream.queue_capacity = queue.capacity();
  result.stream.queue_peak = queue.peak();
  result.stream.producer_stalls = stalls.load(std::memory_order_relaxed);

  if (auto status = session.status(); !status.ok()) return status;
  if (auto status = session.finish(result.manifests); !status.ok()) {
    return status;
  }
  result.layer_profiles = session.take_store();
  return util::Status::success();
}

}  // namespace

util::Result<PipelineResult> run_end_to_end(const PipelineOptions& options) {
  PipelineResult result;
  auto& tracer = obs::Tracer::global();
  const auto pipeline_span = tracer.span("pipeline");

  // --- build & publish the snapshot (or adopt an external registry) ---
  registry::Service owned_service;
  registry::Service& service = options.external_service != nullptr
                                   ? *options.external_service
                                   : owned_service;
  if (options.external_service == nullptr) {
    synth::HubModel hub(options.calibration, options.scale);
    synth::Materializer materializer(hub, options.gzip_level);
    const auto span = tracer.span("materialize");
    auto pushed = materializer.populate(service);
    if (!pushed.ok()) return std::move(pushed).error();
    result.manifests_pushed = pushed.value();
  }

  // --- source decorator chain, composed bottom-up ---
  //   Downloader -> [Throttled ->] [Resilient -> Faulty ->] Service
  registry::Source* source = &service;
  std::optional<registry::FaultySource> faulty;
  std::optional<registry::ResilientSource> resilient;
  std::optional<registry::ThrottledSource> throttled;
  if (options.faults != nullptr) {
    faulty.emplace(service, *options.faults);
    resilient.emplace(*faulty, options.retry, options.breaker,
                      options.faults->seed);
    source = &*resilient;
  }
  if (options.network_scale > 0.0) {
    throttled.emplace(*source, service.cost_model(), options.network_scale);
    source = &*throttled;
  }

  // --- crawl ---
  const auto pipeline_start = std::chrono::steady_clock::now();
  registry::SearchIndex index(service,
                              synth::Calibration::kSearchDuplicateFactor,
                              options.scale.seed);
  crawler::Crawler crawler(index);
  {
    const auto span = tracer.span("crawl");
    result.crawl = crawler.crawl_all();
  }

  // --- multi-node: ownership pass over the GLOBAL crawl order ---
  // Every node computes the same assignment locally against the
  // deterministic registry: the first repository whose unauthenticated
  // manifest fetch succeeds claims each of its not-yet-owned layers for
  // node (crawl index % node_count). A node indexes only the layers it
  // owns, so the union of all nodes' shard sets covers each unique layer
  // of the deliverable set exactly once — no coordination, no double
  // counting, and the merged report matches a single-node run bit for bit.
  const std::uint32_t node_count = std::max<std::uint32_t>(1, options.node_count);
  std::unordered_map<std::uint64_t, std::uint32_t> layer_owner;
  if (node_count > 1) {
    const auto span = tracer.span("ownership");
    for (std::size_t r = 0; r < result.crawl.repositories.size(); ++r) {
      auto manifest_json = service.get_manifest(result.crawl.repositories[r],
                                                "latest", /*authenticated=*/false);
      if (!manifest_json.ok()) continue;
      auto manifest = registry::manifest_from_json(manifest_json.value());
      if (!manifest.ok()) continue;
      for (const auto& ref : manifest.value().layers) {
        layer_owner.emplace(ref.digest.key64(),
                            static_cast<std::uint32_t>(r % node_count));
      }
    }
    // This node downloads only its repository partition.
    std::vector<std::string> mine;
    for (std::size_t r = 0; r < result.crawl.repositories.size(); ++r) {
      if (r % node_count == options.node_index) {
        mine.push_back(std::move(result.crawl.repositories[r]));
      }
    }
    result.crawl.repositories = std::move(mine);
  }

  // --- download + analyze, per execution mode ---
  std::optional<shard::ShardedDedupIndex> sharded;
  if (options.run_file_dedup && options.shard.enabled()) {
    sharded.emplace(options.shard);
  } else if (options.run_file_dedup) {
    result.file_index = std::make_unique<dedup::FileDedupIndex>(1 << 16);
  }
  std::unordered_map<std::uint64_t, std::uint32_t> layer_dense;

  analyzer::AnalysisPipeline::Sink sink;
  if (result.file_index) {
    sink.on_file = [&](const digest::Digest& layer_digest,
                       const analyzer::FileRecord& record) {
      auto [it, inserted] = layer_dense.emplace(
          layer_digest.key64(),
          static_cast<std::uint32_t>(layer_dense.size()));
      result.file_index->add(record.digest, record.size, record.type,
                             it->second);
    };
  } else if (sharded) {
    // Lock-free routing: delivered outside the session mutex, each worker
    // thread appends to its own per-shard maps. The layer id is derived
    // from the layer digest (not a shared dense-id map, which would need a
    // lock); it only feeds first_layer/multi_layer, which the canonical
    // report deliberately excludes.
    const bool filter_by_owner = node_count > 1;
    sink.on_file_concurrent = [&, filter_by_owner](
                                  const digest::Digest& layer_digest,
                                  const analyzer::FileRecord& record) {
      if (filter_by_owner) {
        auto it = layer_owner.find(layer_digest.key64());
        if (it == layer_owner.end() || it->second != options.node_index) return;
      }
      sharded->local_writer().add(
          record.digest, record.size, record.type,
          static_cast<std::uint32_t>(layer_digest.key64() >> 32));
    };
  }
  sink.on_image = [&](const analyzer::ImageProfile& profile) {
    result.images.push_back(profile);
  };

  const bool serial = options.mode == ExecutionMode::kSerial;
  const std::size_t download_workers = serial ? 1 : options.download_workers;
  const std::size_t analyze_workers = serial ? 1 : options.analyze_workers;
  util::Status status =
      options.mode == ExecutionMode::kStreamed
          ? execute_streamed(options, *source, download_workers,
                             analyze_workers, sink, result)
          : execute_staged(options, *source, download_workers, analyze_workers,
                           sink, result);
  if (!status.ok()) return status.error();

  // --- layer sharing over the downloaded manifests ---
  {
    const auto span = tracer.span("dedup");
    std::vector<dedup::LayerSharingAnalysis::LayerUse> uses;
    for (const auto& manifest : result.manifests) {
      uses.clear();
      for (const auto& ref : manifest.layers) {
        uses.push_back({ref.digest.key64(), ref.compressed_size});
      }
      result.sharing.add_image(uses);
    }
  }

  // --- fold the sharded index back into exact aggregates ---
  if (sharded) {
    const auto span = tracer.span("shard_merge");
    if (!options.shard_export_dir.empty()) {
      auto manifest = sharded->export_shard_set(options.shard_export_dir);
      if (!manifest.ok()) return std::move(manifest).error();
      result.shard_summary.export_manifest = std::move(manifest).value();
    }
    shard::ShardMerger merger;
    if (auto s = sharded->seal_into(merger); !s.ok()) return s.error();
    auto aggregates = merger.merge_aggregates();
    if (!aggregates.ok()) return std::move(aggregates).error();
    result.shard_summary.runs_merged = merger.stats().runs;
    result.shard_dedup = std::move(aggregates).value();

    const shard::SpillStats spill = sharded->stats();
    result.shard_summary.enabled = true;
    result.shard_summary.shards = sharded->shards();
    result.shard_summary.observations = sharded->observations();
    result.shard_summary.distinct_contents =
        result.shard_dedup->distinct_contents;
    result.shard_summary.metadata_conflicts =
        sharded->metadata_conflicts() + result.shard_dedup->metadata_conflicts;
    result.shard_summary.spills = spill.spills;
    result.shard_summary.spilled_bytes = spill.spilled_bytes;
    result.shard_summary.peak_resident_bytes = spill.peak_resident_bytes;
  }

  result.pipeline_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    pipeline_start)
          .count();
  result.service = service.stats();
  if (resilient) result.resilience = resilient->stats();
  if (faulty) result.fault_stats = faulty->stats();
  if (throttled) result.throttled_ms = throttled->throttled_ms();
  return result;
}

namespace {

/// Fixed quantile grid: enough points to pin distribution shape, few enough
/// to keep reports small. Quantiles are order statistics over a multiset,
/// so the emitted values are independent of sample insertion order.
json::Value ecdf_json(const stats::Ecdf& cdf) {
  static constexpr double kGrid[] = {0.0,  0.01, 0.05, 0.1,  0.25, 0.5,
                                     0.75, 0.9,  0.95, 0.99, 1.0};
  auto obj = json::Value::object();
  obj.set("samples", static_cast<std::uint64_t>(cdf.size()));
  auto values = json::Value::array();
  if (!cdf.empty()) {
    for (double q : kGrid) values.push_back(cdf.quantile(q));
  }
  obj.set("quantiles", std::move(values));
  return obj;
}

}  // namespace

json::Value analysis_report_json(const PipelineResult& result) {
  auto report = json::Value::object();

  // --- images: aggregates over the delivered image profiles ---
  {
    stats::Ecdf cis, fis, layers_per_image, files_per_image;
    std::uint64_t total_cis = 0;
    std::uint64_t total_fis = 0;
    for (const auto& image : result.images) {
      cis.add(static_cast<double>(image.cis));
      fis.add(static_cast<double>(image.fis));
      layers_per_image.add(static_cast<double>(image.layer_count));
      files_per_image.add(static_cast<double>(image.file_count));
      total_cis += image.cis;
      total_fis += image.fis;
    }
    auto images = json::Value::object();
    images.set("count", static_cast<std::uint64_t>(result.images.size()));
    images.set("total_cis", total_cis);
    images.set("total_fis", total_fis);
    images.set("cis", ecdf_json(cis));
    images.set("fis", ecdf_json(fis));
    images.set("layers_per_image", ecdf_json(layers_per_image));
    images.set("files_per_image", ecdf_json(files_per_image));
    report.set("images", std::move(images));
  }

  // --- layers: unique layers referenced by the delivered manifests ---
  // (not the raw profile store: under faults the streamed pipeline may have
  // analyzed layers of images that later failed, and those must not skew
  // the report).
  {
    std::unordered_set<digest::Digest, digest::DigestHash> seen;
    stats::Ecdf cls, fls, files_per_layer;
    std::uint64_t total_cls = 0;
    std::uint64_t total_fls = 0;
    std::uint64_t count = 0;
    for (const auto& manifest : result.manifests) {
      for (const auto& ref : manifest.layers) {
        if (!seen.insert(ref.digest).second) continue;
        auto profile = result.layer_profiles.find(ref.digest);
        if (!profile) continue;
        ++count;
        cls.add(static_cast<double>(profile->cls));
        fls.add(static_cast<double>(profile->fls));
        files_per_layer.add(static_cast<double>(profile->file_count));
        total_cls += profile->cls;
        total_fls += profile->fls;
      }
    }
    auto layers = json::Value::object();
    layers.set("count", count);
    layers.set("total_cls", total_cls);
    layers.set("total_fls", total_fls);
    layers.set("cls", ecdf_json(cls));
    layers.set("fls", ecdf_json(fls));
    layers.set("files_per_layer", ecdf_json(files_per_layer));
    report.set("layers", std::move(layers));
  }

  // --- layer sharing (totals are insertion-order independent) ---
  {
    auto sharing = json::Value::object();
    sharing.set("images", result.sharing.images_seen());
    sharing.set("distinct_layers", result.sharing.distinct_layers());
    sharing.set("logical_bytes", result.sharing.logical_bytes());
    sharing.set("physical_bytes", result.sharing.physical_bytes());
    sharing.set("sharing_ratio", result.sharing.sharing_ratio());
    report.set("sharing", std::move(sharing));
  }

  // --- file dedup (totals and per-content counts are order independent;
  // first_layer ids are not and are deliberately excluded) ---
  // The monolithic index and the sharded backend emit the same fields in
  // the same order from the same order-independent quantities, so the two
  // backends are byte-interchangeable here.
  if (result.file_index) {
    const dedup::DedupTotals totals = result.file_index->totals();
    auto dedup = json::Value::object();
    dedup.set("total_files", totals.total_files);
    dedup.set("unique_files", totals.unique_files);
    dedup.set("total_bytes", totals.total_bytes);
    dedup.set("unique_bytes", totals.unique_bytes);
    dedup.set("count_ratio", totals.count_ratio());
    dedup.set("capacity_ratio", totals.capacity_ratio());
    dedup.set("repeat_counts", ecdf_json(result.file_index->repeat_count_cdf()));
    report.set("dedup", std::move(dedup));
  } else if (result.shard_dedup) {
    const dedup::DedupTotals& totals = result.shard_dedup->totals;
    auto dedup = json::Value::object();
    dedup.set("total_files", totals.total_files);
    dedup.set("unique_files", totals.unique_files);
    dedup.set("total_bytes", totals.total_bytes);
    dedup.set("unique_bytes", totals.unique_bytes);
    dedup.set("count_ratio", totals.count_ratio());
    dedup.set("capacity_ratio", totals.capacity_ratio());
    dedup.set("repeat_counts", ecdf_json(result.shard_dedup->repeat_counts));
    report.set("dedup", std::move(dedup));
  }

  return report;
}

json::Value pipeline_report_json(const PipelineResult& result) {
  auto report = json::Value::object();
  {
    const downloader::DownloadStats& d = result.download;
    auto download = json::Value::object();
    download.set("attempted", d.attempted);
    download.set("succeeded", d.succeeded);
    download.set("failed_auth", d.failed_auth);
    download.set("failed_no_tag", d.failed_no_tag);
    download.set("failed_missing", d.failed_missing);
    download.set("failed_digest", d.failed_digest);
    download.set("failed_other", d.failed_other);
    download.set("repos_resumed", d.repos_resumed);
    download.set("repos_canceled", d.repos_canceled);
    download.set("layers_fetched", d.layers_fetched);
    download.set("layers_deduped", d.layers_deduped);
    download.set("layers_resumed", d.layers_resumed);
    download.set("bytes_downloaded", d.bytes_downloaded);
    report.set("download", std::move(download));
  }
  report.set("analysis", analysis_report_json(result));
  return report;
}

}  // namespace dockmine::core
