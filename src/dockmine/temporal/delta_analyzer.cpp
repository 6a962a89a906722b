#include "dockmine/temporal/delta_analyzer.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <unordered_set>
#include <utility>

#include "dockmine/analyzer/image_analyzer.h"
#include "dockmine/obs/obs.h"
#include "dockmine/registry/manifest.h"

namespace dockmine::temporal {

namespace {

struct TemporalMetrics {
  obs::Histogram& epoch_ms;
  obs::Counter& images_repushed;
  obs::Counter& layers_changed;
  obs::Counter& layers_removed;
  obs::Counter& layers_reused;

  static TemporalMetrics& get() {
    auto& reg = obs::Registry::global();
    static TemporalMetrics m{
        reg.histogram("dockmine_temporal_epoch_ms"),
        reg.counter("dockmine_temporal_images_repushed_total"),
        reg.counter("dockmine_temporal_layers_changed_total"),
        reg.counter("dockmine_temporal_layers_removed_total"),
        reg.counter("dockmine_temporal_layers_reused_total")};
    return m;
  }
};

}  // namespace

util::Result<blob::BlobPtr> DeltaAnalyzer::fetch_blob(
    registry::Source& source, const digest::Digest& digest,
    EpochDelta& delta) {
  if (options_.checkpoint != nullptr && options_.checkpoint->has_layer(digest)) {
    auto resumed = options_.checkpoint->layer(digest);
    if (resumed.ok()) {
      // Checkpoint::layer re-verified the bytes against the digest.
      ++delta.layers_resumed;
      ++download_.layers_resumed;
      return resumed;
    }
  }
  auto blob = source.fetch_blob(digest);
  if (!blob.ok()) return blob;
  if (!(digest::Digest::of(*blob.value()) == digest)) {
    // One silent re-fetch, mirroring the downloader; a second mismatch on
    // the in-process registry means blob-store corruption — abort, never
    // fold unverified bytes into the resident aggregates.
    blob = source.fetch_blob(digest);
    if (!blob.ok()) return blob;
    if (!(digest::Digest::of(*blob.value()) == digest)) {
      return util::Error(util::ErrorCode::kCorrupt,
                         "layer digest mismatch for " + digest.to_string());
    }
  }
  delta.bytes_fetched += blob.value()->size();
  ++download_.layers_fetched;
  download_.bytes_downloaded += blob.value()->size();
  if (options_.checkpoint != nullptr) {
    // Best-effort persistence: a failed checkpoint write only costs a
    // re-fetch on resume, never correctness.
    (void)options_.checkpoint->put_layer(digest, *blob.value());
  }
  return blob;
}

util::Result<EpochDelta> DeltaAnalyzer::apply_epoch(
    registry::Source& source, std::uint32_t epoch,
    const std::vector<std::string>& churned) {
  if (!initialized_ && epoch != 0) {
    return util::Error(util::ErrorCode::kInvalidArgument,
                       "epoch 0 (initial ingest) must be applied first");
  }
  if (initialized_ && epoch != epoch_ + 1) {
    return util::Error(util::ErrorCode::kInvalidArgument,
                       "epochs must be applied in order");
  }
  const auto start = std::chrono::steady_clock::now();
  EpochDelta delta;
  delta.epoch = epoch;
  delta.repos_churned = churned.size();

  const bool canceled_early =
      options_.cancel != nullptr &&
      options_.cancel->load(std::memory_order_relaxed);
  // --- stage 1: fetch manifests of the churn set ---
  std::vector<std::pair<std::string, std::optional<registry::Manifest>>>
      fetched;
  fetched.reserve(churned.size());
  for (const std::string& repo : churned) {
    if (canceled_early) break;
    ++download_.attempted;
    auto body = source.fetch_manifest(repo, "latest", /*authenticated=*/false);
    if (!body.ok()) {
      switch (body.error().code()) {
        case util::ErrorCode::kUnauthorized:
          ++download_.failed_auth;
          break;
        case util::ErrorCode::kNotFound:
          if (body.error().message().find("has no tag") != std::string::npos) {
            ++download_.failed_no_tag;
          } else {
            ++download_.failed_missing;
          }
          break;
        default:
          ++download_.failed_other;
      }
      ++delta.repos_failed;
      // Mirror the batch pipeline: an undeliverable repository is simply
      // absent from the report (and retired if it was resident before).
      fetched.emplace_back(repo, std::nullopt);
      continue;
    }
    auto manifest = registry::manifest_from_json(body.value());
    if (!manifest.ok()) return std::move(manifest).error();
    fetched.emplace_back(repo, std::move(manifest).value());
  }

  // --- stage 2: fetch + analyze layers absent from the resident set ---
  std::unordered_map<digest::Digest, ResidentLayer, digest::DigestHash> staged;
  std::unordered_set<digest::Digest, digest::DigestHash> seen;
  std::uint64_t analyzed_this_epoch = 0;
  for (const auto& [repo, manifest] : fetched) {
    if (!manifest.has_value()) continue;
    for (const auto& ref : manifest->layers) {
      if (!seen.insert(ref.digest).second) continue;
      if (layers_.find(ref.digest) != layers_.end()) {
        ++delta.layers_reused;
        ++download_.layers_deduped;
        continue;
      }
      if (staged.find(ref.digest) != staged.end()) continue;
      if (options_.cancel != nullptr &&
          options_.cancel->load(std::memory_order_relaxed)) {
        delta.canceled = true;
        delta.wall_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        return delta;  // nothing committed; the epoch can be re-applied
      }
      auto blob = fetch_blob(source, ref.digest, delta);
      if (!blob.ok()) return std::move(blob).error();

      ResidentLayer layer;
      std::vector<shard::RunEntry> records;
      const std::uint32_t layer_index =
          static_cast<std::uint32_t>(ref.digest.key64() >> 32);
      analyzer::FileVisitor visitor =
          [&](std::string_view, const analyzer::FileRecord& record) {
            shard::RunEntry entry;
            entry.key = dedup::FileDedupIndex::remap_key(record.digest.key64());
            entry.entry.count = 1;
            entry.entry.size = record.size;
            entry.entry.type = record.type;
            entry.entry.first_layer = layer_index;
            records.push_back(entry);
          };
      auto profile =
          analyzer_.analyze_blob(*blob.value(), ref.digest, &visitor);
      if (!profile.ok()) return std::move(profile).error();
      layer.profile = profile.value();
      layer.file_instances = records.size();

      // Pre-fold the layer's contribution, sorted by content key: folding
      // is associative, so the grouped insert (and the exact retraction it
      // enables) lands on the same entries the per-file adds would.
      std::sort(records.begin(), records.end(),
                [](const shard::RunEntry& a, const shard::RunEntry& b) {
                  return a.key < b.key;
                });
      for (const shard::RunEntry& record : records) {
        if (!layer.contribution.empty() &&
            layer.contribution.back().key == record.key) {
          dedup::merge_content_entries(layer.contribution.back().entry,
                                       record.entry);
        } else {
          layer.contribution.push_back(record);
        }
      }
      staged.emplace(ref.digest, std::move(layer));
      ++delta.layers_changed;
      ++analyzed_this_epoch;
      if (options_.on_layer_analyzed) {
        options_.on_layer_analyzed(analyzed_this_epoch);
      }
    }
  }
  if (canceled_early ||
      (options_.cancel != nullptr &&
       options_.cancel->load(std::memory_order_relaxed))) {
    delta.canceled = true;
    delta.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    return delta;
  }

  // --- commit: swap manifests, fold additions, retract retirements ---
  for (auto& [digest, layer] : staged) {
    delta.files_added += layer.file_instances;
    for (const shard::RunEntry& entry : layer.contribution) {
      index_.insert_entry(entry.key, entry.entry);
    }
    layers_.emplace(digest, std::move(layer));
  }
  for (auto& [repo, manifest] : fetched) {
    auto old = manifests_.find(repo);
    if (old != manifests_.end()) {
      for (const auto& ref : old->second.layers) {
        auto it = layers_.find(ref.digest);
        if (it != layers_.end() && it->second.refs > 0) --it->second.refs;
      }
    }
    if (manifest.has_value()) {
      for (const auto& ref : manifest->layers) ++layers_[ref.digest].refs;
      manifests_[repo] = std::move(*manifest);
      ++delta.repos_delivered;
      ++download_.succeeded;
    } else if (old != manifests_.end()) {
      manifests_.erase(old);
    }
  }
  std::vector<digest::Digest> retired;
  for (const auto& [digest, layer] : layers_) {
    if (layer.refs == 0) retired.push_back(digest);
  }
  for (const digest::Digest& digest : retired) {
    auto it = layers_.find(digest);
    delta.files_retracted += it->second.file_instances;
    for (const shard::RunEntry& entry : it->second.contribution) {
      index_.retract_entry(entry.key, entry.entry);
    }
    layers_.erase(it);
    ++delta.layers_removed;
  }

  epoch_ = epoch;
  initialized_ = true;
  delta.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  last_delta_ = delta;

  TemporalMetrics& metrics = TemporalMetrics::get();
  metrics.epoch_ms.observe(delta.wall_ms);
  metrics.images_repushed.add(delta.repos_delivered);
  metrics.layers_changed.add(delta.layers_changed);
  metrics.layers_removed.add(delta.layers_removed);
  metrics.layers_reused.add(delta.layers_reused);
  return delta;
}

util::Result<core::PipelineResult> DeltaAnalyzer::result() const {
  core::PipelineResult out;
  out.download = download_;

  analyzer::ProfileStore store;
  store.reserve(layers_.size());
  for (const auto& [digest, layer] : layers_) store.put(layer.profile);

  std::vector<dedup::LayerSharingAnalysis::LayerUse> uses;
  for (const auto& [repo, manifest] : manifests_) {
    auto image = analyzer::build_image_profile(manifest, store);
    if (!image.ok()) return std::move(image).error();
    out.images.push_back(std::move(image).value());
    uses.clear();
    for (const auto& ref : manifest.layers) {
      uses.push_back({ref.digest.key64(), ref.compressed_size});
    }
    out.sharing.add_image(uses);
    out.manifests.push_back(manifest);
  }
  out.layer_profiles = std::move(store);
  out.file_index = std::make_unique<dedup::FileDedupIndex>(index_);
  return out;
}

util::Result<json::Value> DeltaAnalyzer::report() const {
  auto snapshot = result();
  if (!snapshot.ok()) return std::move(snapshot).error();
  return core::analysis_report_json(snapshot.value());
}

}  // namespace dockmine::temporal
