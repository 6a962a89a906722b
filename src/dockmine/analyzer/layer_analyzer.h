// Bytes-mode layer analysis: gunzip the blob, walk the tar, profile every
// entry — the paper's "decompresses and extracts each layer tarball ...
// recursively traverses each subdirectory and obtains its metadata"
// (§III-C), except we stream the archive instead of extracting to disk.
#pragma once

#include <functional>
#include <string_view>

#include "dockmine/analyzer/profile.h"
#include "dockmine/digest/digest.h"
#include "dockmine/util/error.h"

namespace dockmine::mem {
class Arena;
}

namespace dockmine::analyzer {

using FileVisitor = std::function<void(std::string_view path,
                                       const FileRecord& record)>;

/// Per-directory metadata, the third element of the paper's layer profile
/// ("directory name; directory depth; file count", §III-C). `file_count`
/// counts direct children only.
struct DirectoryRecord {
  std::string path;
  std::uint32_t depth = 1;
  std::uint64_t file_count = 0;
};
using DirectoryVisitor = std::function<void(const DirectoryRecord&)>;

class LayerAnalyzer {
 public:
  struct Options {
    /// Cap on the decompressed layer size (bomb guard).
    std::uint64_t max_uncompressed = 1ULL << 34;
    /// Bytes of each file examined by the type classifier (libmagic-style).
    std::size_t classify_prefix = 512;
  };

  /// Optional stage-timing breakdown, filled only when a non-null pointer
  /// is passed (the null path performs no clock reads at all).
  struct Timing {
    double gunzip_ms = 0.0;    ///< decompressing the blob
    double digest_ms = 0.0;    ///< per-file SHA-256
    double classify_ms = 0.0;  ///< per-file type classification
  };

  LayerAnalyzer() = default;
  explicit LayerAnalyzer(Options options) : options_(options) {}

  /// Analyze a compressed layer blob whose SHA-256 the caller has already
  /// verified to be `blob_digest` (the downloader does, for every blob it
  /// delivers); the blob is not hashed again. `visitor` (optional) receives
  /// every regular file. The returned profile's `digest` is `blob_digest`
  /// and `cls` the blob's size. `scratch`, when given, backs the per-layer
  /// directory map (keys interned, nodes bump-allocated) — the caller owns
  /// the arena and must reset() it between layers (DESIGN.md §14); results
  /// are identical with or without it.
  util::Result<LayerProfile> analyze_blob(
      std::string_view gzip_blob, const digest::Digest& blob_digest,
      const FileVisitor* visitor = nullptr,
      const DirectoryVisitor* dir_visitor = nullptr,
      Timing* timing = nullptr, mem::Arena* scratch = nullptr) const;

  /// As above for a blob of unknown digest: hashes it first.
  util::Result<LayerProfile> analyze_blob(
      std::string_view gzip_blob, const FileVisitor* visitor = nullptr,
      const DirectoryVisitor* dir_visitor = nullptr,
      Timing* timing = nullptr, mem::Arena* scratch = nullptr) const {
    return analyze_blob(gzip_blob, digest::Digest::of(gzip_blob), visitor,
                        dir_visitor, timing, scratch);
  }

  /// Analyze an already-uncompressed tar archive (cls/digest filled by the
  /// caller if known). `dir_visitor`, when given, receives every explicit
  /// directory with its direct-child file count after the walk.
  util::Result<LayerProfile> analyze_tar(
      std::string_view tar_bytes, const FileVisitor* visitor = nullptr,
      const DirectoryVisitor* dir_visitor = nullptr,
      Timing* timing = nullptr, mem::Arena* scratch = nullptr) const;

 private:
  Options options_{};
};

}  // namespace dockmine::analyzer
