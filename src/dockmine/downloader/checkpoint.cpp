#include "dockmine/downloader/checkpoint.h"

#include "dockmine/obs/obs.h"

namespace dockmine::downloader {

namespace {
constexpr char kRepoPrefix[] = "repo ";
constexpr char kLayerPrefix[] = "layer ";

struct CheckpointMetrics {
  obs::Counter& journal_writes;
  obs::Counter& layer_bytes;

  static CheckpointMetrics& get() {
    auto& reg = obs::Registry::global();
    static CheckpointMetrics m{
        reg.counter("dockmine_checkpoint_journal_writes_total"),
        reg.counter("dockmine_checkpoint_layer_bytes_total")};
    return m;
  }
};

}  // namespace

util::Result<Checkpoint> Checkpoint::open(const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return util::internal("checkpoint mkdir '" + dir.string() +
                          "': " + ec.message());
  }
  auto store = blob::DiskStore::open(dir / "blobs");
  if (!store.ok()) return std::move(store).error();

  Checkpoint checkpoint(dir, std::move(store).value());
  const std::filesystem::path journal_path = dir / "completed.log";
  {
    std::ifstream in(journal_path);
    std::string line;
    std::uintmax_t complete_bytes = 0;
    bool torn = false;
    while (std::getline(in, line)) {
      // getline() hands back a final unterminated fragment too; that is
      // exactly the torn tail a mid-append kill leaves, so drop it — and
      // truncate it from the file below, or the next append would fuse
      // onto the fragment and corrupt an unrelated record.
      if (in.eof() && !line.empty()) {
        torn = true;
        break;
      }
      complete_bytes += line.size() + 1;
      if (line.rfind(kRepoPrefix, 0) == 0) {
        checkpoint.repos_.insert(line.substr(sizeof kRepoPrefix - 1));
      } else if (line.rfind(kLayerPrefix, 0) == 0) {
        auto digest =
            digest::Digest::parse(line.substr(sizeof kLayerPrefix - 1));
        // A journal line without its blob (or a torn/unparseable trailing
        // line) means the kill landed between the two writes; drop it and
        // the layer is simply re-fetched.
        if (digest.ok() && checkpoint.store_.contains(digest.value())) {
          checkpoint.layers_.insert(digest.value());
        }
      }
    }
    if (torn) {
      in.close();
      std::error_code trunc_ec;
      std::filesystem::resize_file(journal_path, complete_bytes, trunc_ec);
      if (trunc_ec) {
        return util::internal("checkpoint journal '" + journal_path.string() +
                              "' has a torn tail that could not be "
                              "truncated: " + trunc_ec.message());
      }
    }
  }
  checkpoint.journal_.open(journal_path, std::ios::app);
  if (!checkpoint.journal_) {
    return util::internal("checkpoint journal '" + journal_path.string() +
                          "' not writable");
  }
  return checkpoint;
}

util::Status Checkpoint::append_line(const std::string& line) {
  journal_ << line << '\n';
  journal_.flush();
  if (!journal_) return util::internal("checkpoint journal write failed");
  CheckpointMetrics::get().journal_writes.add();
  return util::Status::success();
}

bool Checkpoint::repo_done(const std::string& name) const {
  std::lock_guard lock(*mutex_);
  return repos_.count(name) != 0;
}

util::Status Checkpoint::mark_repo_done(const std::string& name) {
  std::lock_guard lock(*mutex_);
  if (!repos_.insert(name).second) return util::Status::success();
  return append_line(kRepoPrefix + name);
}

bool Checkpoint::has_layer(const digest::Digest& digest) const {
  std::lock_guard lock(*mutex_);
  return layers_.count(digest) != 0;
}

util::Result<blob::BlobPtr> Checkpoint::layer(
    const digest::Digest& digest) const {
  auto content = store_.get(digest);
  if (!content.ok()) return std::move(content).error();
  if (digest::Digest::of(content.value()) != digest) {
    return util::corrupt("checkpointed layer " + digest.short_hex() +
                         " does not match its digest");
  }
  return std::make_shared<const std::string>(std::move(content).value());
}

util::Status Checkpoint::put_layer(const digest::Digest& digest,
                                   const std::string& content) {
  {
    std::lock_guard lock(*mutex_);
    if (layers_.count(digest) != 0) return util::Status::success();
  }
  // Bytes first (atomic temp+rename inside DiskStore), journal line second:
  // a kill between the two leaves an orphan blob, never a dangling record.
  auto stored = store_.put_with_digest(digest, content);
  if (!stored.ok()) return stored;
  CheckpointMetrics::get().layer_bytes.add(content.size());
  std::lock_guard lock(*mutex_);
  if (!layers_.insert(digest).second) return util::Status::success();
  return append_line(kLayerPrefix + digest.to_string());
}

std::size_t Checkpoint::repos_completed() const {
  std::lock_guard lock(*mutex_);
  return repos_.size();
}

std::size_t Checkpoint::layers_recorded() const {
  std::lock_guard lock(*mutex_);
  return layers_.size();
}

}  // namespace dockmine::downloader
