// Crash-safe progress record for downloader runs.
//
// The paper's download stage ran for weeks; surviving a mid-run restart
// without re-transferring terabytes is part of why the measurement was
// possible at all. A Checkpoint persists two sets — completed repositories
// and verified layer digests — in a layout made of parts that are each
// individually crash-tolerant:
//
//   <dir>/completed.log   append-only text journal, one record per line:
//                           repo <name>
//                           layer <digest>
//   <dir>/blobs/...       a blob::DiskStore holding the verified bytes of
//                         every checkpointed layer (atomic temp+rename
//                         writes, content-addressed paths)
//
// A record is appended only after its work is durably complete (the layer's
// bytes are in the store; every layer of the repository was delivered), so
// the worst a mid-write kill can leave is a torn trailing line, which
// reload drops. A `layer` line whose blob is missing from the store is
// likewise ignored. Resuming is therefore always safe: the checkpoint may
// under-promise after a crash, never over-promise.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>

#include "dockmine/blob/disk_store.h"
#include "dockmine/blob/store.h"
#include "dockmine/digest/digest.h"
#include "dockmine/util/error.h"

namespace dockmine::downloader {

class Checkpoint {
 public:
  /// Open (creating if needed) a checkpoint rooted at `dir`, replaying any
  /// existing journal.
  static util::Result<Checkpoint> open(const std::filesystem::path& dir);

  Checkpoint(Checkpoint&&) = default;
  Checkpoint& operator=(Checkpoint&&) = default;

  bool repo_done(const std::string& name) const;
  util::Status mark_repo_done(const std::string& name);

  bool has_layer(const digest::Digest& digest) const;
  /// Bytes of a checkpointed layer, hashed again on the way out: a copy
  /// that no longer matches `digest` (bit rot, a torn disk) is `corrupt`,
  /// so callers may trust what this returns and re-fetch otherwise.
  util::Result<blob::BlobPtr> layer(const digest::Digest& digest) const;
  /// Persist a verified layer: bytes first, journal line second.
  util::Status put_layer(const digest::Digest& digest,
                         const std::string& content);

  std::size_t repos_completed() const;
  std::size_t layers_recorded() const;
  const std::filesystem::path& dir() const noexcept { return dir_; }

 private:
  Checkpoint(std::filesystem::path dir, blob::DiskStore store)
      : dir_(std::move(dir)), store_(std::move(store)) {}

  util::Status append_line(const std::string& line);

  std::filesystem::path dir_;
  blob::DiskStore store_;
  // Behind unique_ptr so Checkpoint stays movable (Result<T> needs a
  // movable T).
  mutable std::unique_ptr<std::mutex> mutex_ = std::make_unique<std::mutex>();
  std::unordered_set<std::string> repos_;
  std::unordered_set<digest::Digest, digest::DigestHash> layers_;
  std::ofstream journal_;
};

}  // namespace dockmine::downloader
