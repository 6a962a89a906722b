#include "dockmine/analyzer/pipeline.h"

#include <unordered_set>

#include "dockmine/mem/arena.h"
#include "dockmine/obs/journal.h"
#include "dockmine/obs/obs.h"
#include "dockmine/obs/span.h"
#include "dockmine/util/thread_pool.h"

namespace dockmine::analyzer {

namespace {

struct AnalyzerMetrics {
  obs::Counter& layers;
  obs::Counter& files;
  obs::Counter& failures;
  obs::Histogram& layer_ms;

  static AnalyzerMetrics& get() {
    auto& reg = obs::Registry::global();
    static AnalyzerMetrics m{
        reg.counter("dockmine_analyzer_layers_total"),
        reg.counter("dockmine_analyzer_files_total"),
        reg.counter("dockmine_analyzer_failures_total"),
        reg.histogram("dockmine_analyzer_layer_ms")};
    return m;
  }
};

std::string capture_span_base(bool timed) {
  // Worker threads carry no span stack; their per-stage totals fold into
  // the orchestrator's hierarchy under the path open right now.
  return timed ? obs::Tracer::global().current_path() : std::string{};
}

}  // namespace

AnalysisPipeline::Session::Session(const AnalysisPipeline& pipeline,
                                   const Sink& sink)
    : analyzer_(pipeline.options().analyzer),
      sink_(sink),
      timed_(obs::enabled()),
      span_base_(capture_span_base(timed_)) {}

void AnalysisPipeline::Session::analyze(const digest::Digest& digest,
                                        const std::string& gzip_blob) {
  {
    std::lock_guard lock(mutex_);
    if (!first_error_.ok()) return;          // fail fast
    if (store_.contains(digest)) return;     // idempotent re-delivery
  }

  // One journal event per analyzed layer (duplicates returned above). In
  // the streamed pipeline the caller adopted the producer's context, so
  // this parents to the layer's download_layer event.
  const obs::EventSpan event_span("analyze_layer");

  AnalyzerMetrics& metrics = AnalyzerMetrics::get();
  auto child_path = [&](const char* name) {
    return span_base_.empty() ? std::string(name) : span_base_ + "/" + name;
  };

  // Per-layer scratch: each pool thread owns one arena, reset at the end
  // of every layer (DESIGN.md §14). Nothing allocated below may escape
  // this call.
  static thread_local mem::Arena scratch;
  struct ResetGuard {
    mem::Arena& arena;
    ~ResetGuard() { arena.reset(); }
  } reset_guard{scratch};

  // Buffer file records locally; flush in batches to bound lock traffic.
  std::vector<FileRecord, mem::ArenaAllocator<FileRecord>> batch{
      mem::ArenaAllocator<FileRecord>(scratch)};
  FileVisitor visitor = [&](std::string_view, const FileRecord& record) {
    batch.push_back(record);
  };
  LayerAnalyzer::Timing timing;
  const double start_ms = timed_ ? obs::now_ms() : 0.0;
  const bool want_files = sink_.on_file || sink_.on_file_concurrent;
  auto profile = analyzer_.analyze_blob(
      gzip_blob, digest, want_files ? &visitor : nullptr,
      /*dir_visitor=*/nullptr, timed_ ? &timing : nullptr, &scratch);
  if (timed_) {
    const double total_ms = obs::now_ms() - start_ms;
    metrics.layer_ms.observe(total_ms);
    auto& tracer = obs::Tracer::global();
    tracer.record_at(child_path("gunzip"), timing.gunzip_ms);
    tracer.record_at(child_path("digest"), timing.digest_ms);
    tracer.record_at(child_path("classify"), timing.classify_ms);
    // Whatever analyze_blob spent outside gunzip/digest/classify is the
    // tar walk.
    tracer.record_at(child_path("untar"),
                     std::max(0.0, total_ms - timing.gunzip_ms -
                                       timing.digest_ms - timing.classify_ms));
  }
  if (profile.ok()) {
    metrics.layers.add();
    metrics.files.add(profile.value().file_count);
  } else {
    metrics.failures.add();
  }

  {
    std::lock_guard lock(mutex_);
    if (!profile.ok()) {
      if (first_error_.ok()) first_error_ = std::move(profile).error();
      return;
    }
    // Two workers racing the same digest both analyze, but only the first
    // one's results are delivered — duplicate sink calls would skew dedup.
    if (store_.contains(profile.value().digest)) return;
    store_.put(profile.value());
    analyzed_.fetch_add(1, std::memory_order_relaxed);
    if (sink_.on_layer) sink_.on_layer(profile.value());
    if (sink_.on_file) {
      for (const FileRecord& record : batch) {
        sink_.on_file(profile.value().digest, record);
      }
    }
  }
  // The delivery race is settled (this thread won it), so concurrent file
  // delivery outside the mutex is still exactly-once per unique layer.
  if (sink_.on_file_concurrent) {
    for (const FileRecord& record : batch) {
      sink_.on_file_concurrent(profile.value().digest, record);
    }
  }
}

void AnalysisPipeline::Session::reserve_layers(std::size_t layers) {
  std::lock_guard lock(mutex_);
  store_.reserve(layers);
}

void AnalysisPipeline::Session::fail(util::Error error) {
  std::lock_guard lock(mutex_);
  if (first_error_.ok()) first_error_ = std::move(error);
}

util::Status AnalysisPipeline::Session::finish(
    const std::vector<registry::Manifest>& manifests) {
  std::lock_guard lock(mutex_);
  if (!first_error_.ok()) return first_error_;
  for (const auto& manifest : manifests) {
    auto image = build_image_profile(manifest, store_);
    if (!image.ok()) return std::move(image).error();
    if (sink_.on_image) sink_.on_image(image.value());
  }
  return util::Status::success();
}

util::Status AnalysisPipeline::Session::status() const {
  std::lock_guard lock(mutex_);
  return first_error_;
}

ProfileStore AnalysisPipeline::Session::take_store() {
  std::lock_guard lock(mutex_);
  return std::move(store_);
}

util::Result<ProfileStore> AnalysisPipeline::run(
    const std::vector<registry::Manifest>& manifests, const BlobFetch& fetch,
    const Sink& sink) const {
  // Unique layer digests in first-reference order.
  std::vector<digest::Digest> unique;
  {
    std::unordered_set<digest::Digest, digest::DigestHash> seen;
    for (const auto& manifest : manifests) {
      for (const auto& ref : manifest.layers) {
        if (seen.insert(ref.digest).second) unique.push_back(ref.digest);
      }
    }
  }

  Session session(*this, sink);
  session.reserve_layers(unique.size());
  util::ThreadPool pool(options_.workers);
  // Parent pool-thread events into the caller's open span ("analyze").
  const obs::TraceContext run_ctx = obs::current_trace_context();
  util::parallel_for(pool, 0, unique.size(), /*grain=*/1, [&](std::size_t i) {
    const obs::ContextGuard adopt(run_ctx);
    if (!session.status().ok()) return;  // fail fast
    auto blob = fetch(unique[i]);
    if (!blob.ok()) {
      // Latch the fetch error through a poison analyze: simplest is to
      // record it directly.
      session.fail(std::move(blob).error());
      return;
    }
    session.analyze(unique[i], *blob.value());
  });
  pool.shutdown();
  if (auto status = session.finish(manifests); !status.ok()) {
    return status.error();
  }
  return session.take_store();
}

}  // namespace dockmine::analyzer
