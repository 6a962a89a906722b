// Parallel analysis pipeline: profile every unique layer of a set of
// manifests (fetching blobs through a caller-supplied function), then build
// image profiles. Mirrors Fig. 2 of the paper — the Analyzer stage — with
// the unique-layer economy of §III-B.
//
// Two consumption styles share one engine:
//   * run(): the staged batch API — all manifests known up front, unique
//     layers profiled in parallel on an internal pool;
//   * Session: the streaming API — workers feed layer blobs as they arrive
//     (e.g. popped off the download→analyze queue), then finish() builds
//     the image profiles once the manifest set is complete.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "dockmine/analyzer/image_analyzer.h"
#include "dockmine/analyzer/layer_analyzer.h"
#include "dockmine/blob/store.h"
#include "dockmine/registry/model.h"
#include "dockmine/util/error.h"

namespace dockmine::analyzer {

class AnalysisPipeline {
 public:
  struct Options {
    std::size_t workers = 0;  ///< 0 => hardware concurrency
    LayerAnalyzer::Options analyzer;
  };

  /// Consumer callbacks. Except for on_file_concurrent, all are invoked
  /// under an internal mutex (thread safe to use plain accumulators); any
  /// may be null.
  struct Sink {
    std::function<void(const LayerProfile&)> on_layer;  ///< per unique layer
    std::function<void(const digest::Digest& layer_digest,
                       const FileRecord& record)>
        on_file;                                        ///< per file
    /// Per file, like on_file, but invoked OUTSIDE the session mutex — from
    /// whichever worker thread won the layer's delivery race, after the
    /// race is decided (still exactly once per unique layer). The callback
    /// must be safe to run from many threads at once; sharded dedup routing
    /// uses this to keep the streamed hot path lock-free.
    std::function<void(const digest::Digest& layer_digest,
                       const FileRecord& record)>
        on_file_concurrent;
    std::function<void(const ImageProfile&)> on_image;
  };

  using BlobFetch =
      std::function<util::Result<blob::BlobPtr>(const digest::Digest&)>;

  AnalysisPipeline() = default;
  explicit AnalysisPipeline(Options options) : options_(options) {}

  /// Incremental analysis over layers that arrive one at a time. Any number
  /// of threads may call analyze() concurrently; sink callbacks and profile
  /// store updates are serialized internally. Errors are latched: after the
  /// first failure every later analyze() returns immediately (fail fast),
  /// and status()/finish() surface it.
  class Session {
   public:
    /// `sink` is captured by reference and must outlive the session.
    Session(const AnalysisPipeline& pipeline, const Sink& sink);

    /// Profile one compressed layer blob and deliver layer/file results.
    /// `gzip_blob` must already be verified to hash to `digest` (the
    /// downloader verifies every blob it delivers); it is not hashed again.
    /// A digest already profiled in this session is skipped, so re-delivery
    /// (checkpoint replays, retries) cannot double-count.
    void analyze(const digest::Digest& digest, const std::string& gzip_blob);

    /// Pre-size the profile store for an expected number of unique layers
    /// (see ProfileStore::reserve). Call before the analyze() storm.
    void reserve_layers(std::size_t layers);

    /// Latch an external failure (e.g. a blob fetch error) so the session
    /// fails fast exactly as if analysis itself had failed.
    void fail(util::Error error);

    /// Build and deliver image profiles for `manifests` from the layers
    /// analyzed so far. Call once, after all analyze() calls completed.
    util::Status finish(const std::vector<registry::Manifest>& manifests);

    util::Status status() const;
    std::uint64_t layers_analyzed() const noexcept {
      return analyzed_.load(std::memory_order_relaxed);
    }
    ProfileStore take_store();

   private:
    const LayerAnalyzer analyzer_;
    const Sink& sink_;
    const bool timed_;
    const std::string span_base_;  ///< tracer path open at construction
    mutable std::mutex mutex_;     ///< store + sinks + first_error_
    ProfileStore store_;
    util::Status first_error_;
    std::atomic<std::uint64_t> analyzed_{0};
  };

  /// Analyze all manifests. Unique layers are profiled exactly once, in
  /// parallel. `fetch` must return bytes that hash to the requested digest.
  /// Returns the profile store (reusable for further queries).
  util::Result<ProfileStore> run(const std::vector<registry::Manifest>& manifests,
                                 const BlobFetch& fetch, const Sink& sink) const;

  const Options& options() const noexcept { return options_; }

 private:
  Options options_{};
};

}  // namespace dockmine::analyzer
