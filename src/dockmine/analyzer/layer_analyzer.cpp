#include "dockmine/analyzer/layer_analyzer.h"

#include <algorithm>
#include <map>

#include "dockmine/compress/gzip.h"
#include "dockmine/filetype/classifier.h"
#include "dockmine/mem/arena.h"
#include "dockmine/obs/obs.h"
#include "dockmine/tar/reader.h"

namespace dockmine::analyzer {

namespace {

/// Number of path components ("a/b/c" -> 3; trailing '/' ignored).
std::uint32_t path_depth(std::string_view path) noexcept {
  if (!path.empty() && path.back() == '/') path.remove_suffix(1);
  if (path.empty()) return 0;
  std::uint32_t depth = 1;
  for (char c : path) {
    if (c == '/') ++depth;
  }
  return depth;
}

/// The walk, generic over the directory-map storage: `dir_files` is an
/// ordered map (heap strings, or arena-interned views via `make_key`), so
/// emission order — and therefore every visitor observation — is identical
/// on both paths.
template <typename DirMap, typename MakeKey>
util::Result<LayerProfile> walk_tar(const LayerAnalyzer::Options& options,
                                    std::string_view tar_bytes,
                                    const FileVisitor* visitor,
                                    const DirectoryVisitor* dir_visitor,
                                    LayerAnalyzer::Timing* timing,
                                    DirMap& dir_files, MakeKey make_key) {
  LayerProfile profile;
  profile.cls = tar_bytes.size();  // caller overwrites for gzip blobs

  std::uint64_t explicit_dirs = 0;
  // Tars list a directory's files consecutively, so one memoized
  // (parent, count-slot) pair absorbs almost every lookup; map nodes are
  // stable, and the memo key views the node's own stable storage (not the
  // reused Entry buffer, which the next header overwrites).
  std::string_view last_parent;
  std::uint64_t* last_count = nullptr;
  tar::Reader reader(tar_bytes);
  auto status = reader.for_each([&](const tar::Entry& entry) {
    const std::uint32_t depth = path_depth(entry.header.name);
    if (entry.is_directory()) {
      ++explicit_dirs;
      profile.max_depth = std::max(profile.max_depth, std::max(1u, depth));
      if (dir_visitor != nullptr) {
        std::string_view path = entry.header.name;
        while (!path.empty() && path.back() == '/') path.remove_suffix(1);
        if (dir_files.find(path) == dir_files.end()) {
          dir_files.emplace(make_key(path), 0);
        }
      }
      return;
    }
    if (!entry.is_file() || entry.is_whiteout()) return;
    ++profile.file_count;
    profile.fls += entry.content.size();
    // Parent directory of a file bounds the depth too.
    if (depth > 1) profile.max_depth = std::max(profile.max_depth, depth - 1);
    if (dir_visitor != nullptr) {
      const std::string_view name = entry.header.name;
      const std::size_t slash = name.rfind('/');
      const std::string_view parent =
          slash == std::string_view::npos ? std::string_view{}
                                          : name.substr(0, slash);
      if (last_count != nullptr && parent == last_parent) {
        ++*last_count;
      } else {
        auto it = dir_files.find(parent);  // implicit parents count too
        if (it != dir_files.end()) {
          ++it->second;
        } else {
          it = dir_files.emplace(make_key(parent), 1).first;
        }
        last_parent = std::string_view(it->first);
        last_count = &it->second;
      }
    }
    if (visitor != nullptr) {
      const double digest_start = timing != nullptr ? obs::now_ms() : 0.0;
      FileRecord record;
      record.size = entry.content.size();
      record.digest = digest::Digest::of(entry.content);
      const double classify_start = timing != nullptr ? obs::now_ms() : 0.0;
      record.type = filetype::classify(
          entry.header.name,
          entry.content.substr(
              0, std::max(options.classify_prefix,
                          static_cast<std::size_t>(262))));
      if (timing != nullptr) {
        timing->digest_ms += classify_start - digest_start;
        timing->classify_ms += obs::now_ms() - classify_start;
      }
      (*visitor)(entry.header.name, record);
    }
  });
  if (!status.ok()) return status.error();
  profile.dir_count = std::max<std::uint64_t>(1, explicit_dirs);
  if (dir_visitor != nullptr) {
    for (const auto& [path, files] : dir_files) {
      DirectoryRecord record;
      record.path = path.empty() ? "." : std::string(path);
      record.depth = path.empty() ? 1 : path_depth(path);
      record.file_count = files;
      (*dir_visitor)(record);
    }
  }
  return profile;
}

}  // namespace

util::Result<LayerProfile> LayerAnalyzer::analyze_tar(
    std::string_view tar_bytes, const FileVisitor* visitor,
    const DirectoryVisitor* dir_visitor, Timing* timing,
    mem::Arena* scratch) const {
  if (scratch != nullptr && dir_visitor != nullptr) {
    // Per-directory direct-child file counts, nodes and keys in the
    // caller's per-layer arena: zero heap traffic, discarded wholesale at
    // the caller's reset().
    using Alloc = mem::ArenaAllocator<
        std::pair<const std::string_view, std::uint64_t>>;
    std::map<std::string_view, std::uint64_t, std::less<>, Alloc> dir_files{
        std::less<>{}, Alloc(*scratch)};
    return walk_tar(options_, tar_bytes, visitor, dir_visitor, timing,
                    dir_files,
                    [scratch](std::string_view key) {
                      return scratch->intern(key);
                    });
  }
  // Per-directory direct-child file counts (paper's directory metadata).
  std::map<std::string, std::uint64_t, std::less<>> dir_files;
  return walk_tar(options_, tar_bytes, visitor, dir_visitor, timing,
                  dir_files,
                  [](std::string_view key) { return std::string(key); });
}

util::Result<LayerProfile> LayerAnalyzer::analyze_blob(
    std::string_view gzip_blob, const digest::Digest& blob_digest,
    const FileVisitor* visitor, const DirectoryVisitor* dir_visitor,
    Timing* timing, mem::Arena* scratch) const {
  const double gunzip_start = timing != nullptr ? obs::now_ms() : 0.0;
  auto tar_bytes =
      compress::gzip_decompress(gzip_blob, options_.max_uncompressed);
  if (timing != nullptr) timing->gunzip_ms += obs::now_ms() - gunzip_start;
  if (!tar_bytes.ok()) return std::move(tar_bytes).error();
  auto profile =
      analyze_tar(tar_bytes.value(), visitor, dir_visitor, timing, scratch);
  if (!profile.ok()) return profile;
  profile.value().cls = gzip_blob.size();
  profile.value().digest = blob_digest;
  return profile;
}

}  // namespace dockmine::analyzer
