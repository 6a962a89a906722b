#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "dockmine/synth/generator.h"

namespace dmbench {

using namespace dockmine;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

json::Value Metrics::to_json() const {
  auto doc = json::Value::object();
  for (const auto& [name, value] : items_) {
    auto entry = json::Value::object();
    entry.set("value", std::isfinite(value.first) ? value.first : 0.0);
    entry.set("unit", value.second);
    doc.set(name, std::move(entry));
  }
  return doc;
}

void Samples::add(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second.first.push_back(value);
      return;
    }
  }
  items_.push_back({name, {{value}, unit}});
}

void Samples::emit(Metrics& metrics) const {
  for (const auto& [name, values] : items_) {
    metrics.set(name, median(values.first), values.second);
  }
}

void print_outcome(const Outcome& outcome) {
  auto doc = json::Value::object();
  doc.set("correct", outcome.correct);
  doc.set("attempted", outcome.attempted);
  doc.set("failed", outcome.failed);
  doc.set("metrics", outcome.metrics.to_json());
  auto problems = json::Value::array();
  for (const std::string& p : outcome.problems) problems.push_back(p);
  doc.set("problems", std::move(problems));
  std::printf("%s\n", doc.dump().c_str());
  std::fflush(stdout);
}

int SpanLog::open(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start = now_s();
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end = now_s();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void SpanLog::record(const std::string& name, double start, double end) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end - span.start);
  }
  return out;
}

double SpanLog::self_time(int root) const {
  const Span& r = spans_[static_cast<std::size_t>(root)];
  double covered = 0.0;
  for (const Span& span : spans_) {
    if (span.parent == root) covered += span.end - span.start;
  }
  return std::max(0.0, (r.end - r.start) - covered);
}

bool SpanLog::write(const std::string& path) const {
  auto events = json::Value::array();
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto event = json::Value::object();
    event.set("name", span.name);
    event.set("ph", "X");
    event.set("ts", (span.start - origin) * 1e6);
    event.set("dur", (span.end - span.start) * 1e6);
    event.set("pid", std::uint64_t{1});
    event.set("tid", std::uint64_t{1});
    auto args = json::Value::object();
    args.set("id", static_cast<std::uint64_t>(i));
    args.set("parent", static_cast<std::int64_t>(span.parent));
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  auto doc = json::Value::object();
  doc.set("traceEvents", std::move(events));
  return write_file(path, doc.dump());
}

namespace {

CorpusSize measure_corpus(const synth::Calibration& cal, std::uint64_t repos,
                          std::uint64_t seed, bool with_bytes,
                          bool delivered_only) {
  const synth::HubModel hub(cal, synth::Scale{repos, seed});
  CorpusSize size;
  size.repositories = repos;
  std::unordered_set<synth::LayerId> layers;
  if (delivered_only) {
    for (const synth::RepoSpec& repo : hub.repositories()) {
      if (repo.image_index < 0 || repo.requires_auth || !repo.has_latest) {
        continue;
      }
      for (synth::LayerId id :
           hub.images()[static_cast<std::size_t>(repo.image_index)].layers) {
        layers.insert(id);
      }
    }
  } else {
    layers.insert(hub.unique_layers().begin(), hub.unique_layers().end());
  }
  for (synth::LayerId id : layers) {
    const synth::LayerSpec spec = hub.layer_spec(id);
    size.files += spec.file_count;
    if (with_bytes) {
      std::uint64_t layer_bytes = 0;
      hub.layers().for_each_file(
          spec, [&](const synth::FileInstance& f) { layer_bytes += f.size; });
      size.bytes += layer_bytes;
      size.max_layer_bytes = std::max(size.max_layer_bytes, layer_bytes);
    }
  }
  return size;
}

double relative_error(std::uint64_t got, std::uint64_t want) {
  return want == 0 ? 0.0
                   : std::fabs(static_cast<double>(got) /
                                   static_cast<double>(want) -
                               1.0);
}

}  // namespace

CorpusSize size_corpus(const synth::Calibration& cal, std::uint64_t seed,
                       const CorpusTarget& target, std::uint64_t lo,
                       std::uint64_t hi, std::uint64_t candidates,
                       bool delivered_only, std::uint64_t seeds) {
  const std::uint64_t step = std::max<std::uint64_t>(1, (hi - lo) / candidates);
  const bool with_bytes = target.bytes > 0 || target.max_layer_bytes > 0;
  CorpusSize best;
  double best_error = 1e300;
  for (std::uint64_t k = 0; k < std::max<std::uint64_t>(1, seeds); ++k) {
    const std::uint64_t candidate_seed = seed + k * 104729ull;
    for (std::uint64_t repos = lo; repos <= hi; repos += step) {
      CorpusSize size = measure_corpus(cal, repos, candidate_seed, with_bytes,
                                       delivered_only);
      size.seed = candidate_seed;
      const double error =
          relative_error(size.files, target.files) +
          relative_error(size.bytes, target.bytes) +
          relative_error(size.max_layer_bytes, target.max_layer_bytes);
      if (error < best_error) {
        best_error = error;
        best = size;
      }
    }
  }
  return best;
}

std::uint64_t corpus_seed(std::uint64_t base, std::uint64_t seed) {
  return base + seed * 7919ull;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
}

}  // namespace dmbench
