#include "dockmine/downloader/downloader.h"

#include "dockmine/obs/journal.h"
#include "dockmine/obs/obs.h"
#include "dockmine/registry/manifest.h"
#include "dockmine/util/stopwatch.h"
#include "dockmine/util/thread_pool.h"

namespace dockmine::downloader {

namespace {

struct DownloaderMetrics {
  obs::Counter& layers;
  obs::Counter& bytes;
  obs::Counter& cache_hits;
  obs::Counter& digest_failures;
  obs::Counter& bytes_discarded;
  obs::Counter& layers_resumed;
  obs::Counter& repos_succeeded;
  obs::Counter& repos_failed;
  obs::Counter& repos_resumed;
  obs::Gauge& inflight_repos;
  obs::Histogram& layer_bytes;
  obs::Histogram& layer_ms;

  static DownloaderMetrics& get() {
    auto& reg = obs::Registry::global();
    static DownloaderMetrics m{
        reg.counter("dockmine_download_layers_total"),
        reg.counter("dockmine_download_bytes_total"),
        reg.counter("dockmine_download_cache_hits_total"),
        reg.counter("dockmine_download_digest_failures_total"),
        reg.counter("dockmine_download_bytes_discarded_total"),
        reg.counter("dockmine_download_layers_resumed_total"),
        reg.counter("dockmine_download_repos_succeeded_total"),
        reg.counter("dockmine_download_repos_failed_total"),
        reg.counter("dockmine_download_repos_resumed_total"),
        reg.gauge("dockmine_download_inflight_repos"),
        reg.histogram("dockmine_download_layer_bytes"),
        reg.histogram("dockmine_download_layer_ms")};
    return m;
  }
};

}  // namespace

util::Result<blob::BlobPtr> Downloader::acquire_layer(
    const digest::Digest& digest) {
  DownloaderMetrics& metrics = DownloaderMetrics::get();
  // Checkpointed layers are re-verified as they are reloaded; reloading
  // costs disk I/O and a hash, not registry traffic.
  if (options_.checkpoint != nullptr && options_.checkpoint->has_layer(digest)) {
    auto restored = options_.checkpoint->layer(digest);
    if (restored.ok()) {
      layers_resumed_.fetch_add(1, std::memory_order_relaxed);
      metrics.layers_resumed.add();
      return restored;
    }
    // Checkpoint copy unreadable or corrupt: fall through to a transfer.
  }

  const obs::Timer timer;
  for (int transfer = 1;; ++transfer) {
    auto blob = service_.fetch_blob(digest);
    if (!blob.ok()) return blob;
    if (digest::Digest::of(*blob.value()) != digest) {
      // Truncated or bit-flipped in flight. One silent re-fetch, as the
      // paper's downloader did; a second mismatch means the upstream copy
      // itself is bad and retrying cannot help.
      bytes_discarded_.fetch_add(blob.value()->size(),
                                 std::memory_order_relaxed);
      metrics.bytes_discarded.add(blob.value()->size());
      if (transfer >= 2) {
        metrics.digest_failures.add();
        return util::corrupt("digest mismatch for layer " + digest.short_hex());
      }
      digest_retries_.fetch_add(1, std::memory_order_relaxed);
      metrics.digest_failures.add();
      continue;
    }
    bytes_fetched_.fetch_add(blob.value()->size(), std::memory_order_relaxed);
    blobs_fetched_.fetch_add(1, std::memory_order_relaxed);
    metrics.layers.add();
    metrics.bytes.add(blob.value()->size());
    metrics.layer_bytes.observe(static_cast<double>(blob.value()->size()));
    metrics.layer_ms.observe(timer.ms());
    if (options_.checkpoint != nullptr) {
      // Best effort: a failed checkpoint write only costs a future re-fetch.
      (void)options_.checkpoint->put_layer(digest, *blob.value());
    }
    return blob;
  }
}

util::Result<blob::BlobPtr> Downloader::fetch_layer(
    const digest::Digest& digest) {
  if (!options_.dedup_unique_layers) {
    const obs::EventSpan layer_span("download_layer");
    auto blob = acquire_layer(digest);
    if (blob.ok() && options_.layer_sink) {
      options_.layer_sink(digest, blob.value());
    }
    return blob;
  }

  {
    std::unique_lock lock(cache_mutex_);
    for (;;) {
      const auto it = layer_cache_.find(digest);
      if (it != layer_cache_.end()) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        DownloaderMetrics::get().cache_hits.add();
        return it->second;
      }
      if (in_flight_.insert(digest).second) break;  // we fetch
      // Another worker is transferring this layer; wait for it.
      cache_cv_.wait(lock);
    }
  }

  // One journal event per unique transferred layer (cache hits return
  // above without one). The sink below fires while this span is open, so
  // downstream consumers can parent their work to this layer's download.
  const obs::EventSpan layer_span("download_layer");
  auto blob = acquire_layer(digest);
  {
    std::lock_guard lock(cache_mutex_);
    in_flight_.erase(digest);
    if (blob.ok()) {
      // Only verified blobs enter the cache, so a corrupt transfer can
      // never be replayed to other images sharing the layer. Without
      // retain_blobs the entry is a null completion marker: later
      // references learn the layer is done without pinning its bytes.
      layer_cache_.emplace(digest,
                           options_.retain_blobs ? blob.value() : nullptr);
    }
  }
  cache_cv_.notify_all();
  // The sink runs after the cache insert so a blocking downstream (bounded
  // queue backpressure) stalls only this worker — same-digest waiters were
  // already released by the notify above.
  if (blob.ok() && options_.layer_sink) {
    options_.layer_sink(digest, blob.value());
  }
  return blob;
}

util::Result<DownloadedImage> Downloader::fetch_image(
    const std::string& repository) {
  auto manifest_body =
      service_.fetch_manifest(repository, options_.tag, options_.authenticated);
  if (!manifest_body.ok()) return std::move(manifest_body).error();
  auto manifest = registry::manifest_from_json(manifest_body.value());
  if (!manifest.ok()) return std::move(manifest).error();

  DownloadedImage image;
  image.manifest = std::move(manifest).value();
  if (options_.retain_blobs) {
    image.layer_blobs.resize(image.manifest.layers.size());
  }

  for (std::size_t i = 0; i < image.manifest.layers.size(); ++i) {
    auto blob = fetch_layer(image.manifest.layers[i].digest);
    if (!blob.ok()) return std::move(blob).error();
    if (options_.retain_blobs) image.layer_blobs[i] = std::move(blob).value();
  }
  return image;
}

util::Result<DownloadedImage> Downloader::download_one(
    const std::string& repository) {
  return fetch_image(repository);
}

DownloadStats Downloader::run(
    const std::vector<std::string>& repositories,
    const std::function<void(DownloadedImage&&)>& sink) {
  DownloadStats stats;
  stats.attempted = repositories.size();
  const std::uint64_t cache_hits_before = cache_hits_.load();
  const std::uint64_t bytes_before = bytes_fetched_.load();
  const std::uint64_t blobs_before = blobs_fetched_.load();
  const std::uint64_t discarded_before = bytes_discarded_.load();
  const std::uint64_t digest_retries_before = digest_retries_.load();
  const std::uint64_t resumed_before = layers_resumed_.load();

  std::mutex stats_mutex;  // also serializes sink
  util::Stopwatch clock;
  util::ThreadPool pool(options_.workers);
  DownloaderMetrics& metrics = DownloaderMetrics::get();
  // Pool threads have no span context of their own; adopt the calling
  // thread's (the pipeline's "download"/"stream" span) so per-layer events
  // parent into the run's trace instead of floating as roots.
  const obs::TraceContext run_ctx = obs::current_trace_context();
  util::parallel_for(pool, 0, repositories.size(), /*grain=*/1,
                     [&](std::size_t i) {
    const obs::ContextGuard adopt(run_ctx);
    if (options_.cancel != nullptr &&
        options_.cancel->load(std::memory_order_relaxed)) {
      std::lock_guard lock(stats_mutex);
      ++stats.repos_canceled;
      return;
    }
    const bool resumed = options_.checkpoint != nullptr &&
                         options_.checkpoint->repo_done(repositories[i]);
    if (resumed && !options_.deliver_resumed) {
      metrics.repos_resumed.add();
      std::lock_guard lock(stats_mutex);
      ++stats.repos_resumed;
      return;
    }
    metrics.inflight_repos.add(1);
    // A resumed repository re-runs fetch_image, but its layers resolve from
    // the checkpoint store (no registry blob traffic) — only the small
    // manifest is re-fetched so the sinks can see the complete image set.
    auto image = fetch_image(repositories[i]);
    metrics.inflight_repos.sub(1);
    if (image.ok() && !resumed && options_.checkpoint != nullptr) {
      (void)options_.checkpoint->mark_repo_done(repositories[i]);
    }
    if (image.ok()) {
      if (resumed) {
        metrics.repos_resumed.add();
      } else {
        metrics.repos_succeeded.add();
      }
    } else {
      metrics.repos_failed.add();
    }
    std::lock_guard lock(stats_mutex);
    if (!image.ok()) {
      // Each attempted repository lands in exactly one failure bucket —
      // transient errors retried (below us) into success never show here.
      const util::Error& error = image.error();
      switch (error.code()) {
        case util::ErrorCode::kUnauthorized:
          ++stats.failed_auth;
          break;
        case util::ErrorCode::kNotFound: {
          // Distinguish unknown repo from missing tag by the message the
          // service produced.
          if (error.message().find("has no tag") != std::string::npos) {
            ++stats.failed_no_tag;
          } else {
            ++stats.failed_missing;
          }
          break;
        }
        case util::ErrorCode::kCorrupt: {
          if (error.message().find("digest mismatch") != std::string::npos) {
            ++stats.failed_digest;
          } else {
            ++stats.failed_other;
          }
          break;
        }
        default:
          ++stats.failed_other;
      }
      return;
    }
    if (resumed) {
      ++stats.repos_resumed;
    } else {
      ++stats.succeeded;
    }
    if (sink) sink(std::move(image).value());
  });
  pool.shutdown();

  stats.layers_deduped = cache_hits_.load() - cache_hits_before;
  stats.bytes_downloaded = bytes_fetched_.load() - bytes_before;
  stats.layers_fetched = blobs_fetched_.load() - blobs_before;
  stats.bytes_discarded = bytes_discarded_.load() - discarded_before;
  stats.retries = digest_retries_.load() - digest_retries_before;
  stats.layers_resumed = layers_resumed_.load() - resumed_before;
  stats.wall_seconds = clock.seconds();
  return stats;
}

}  // namespace dockmine::downloader
