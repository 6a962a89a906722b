// Shared plumbing of the dockmine benchmark program (dmbench): arguments, clocks,
// in-memory span log, metric output, corpus sizing and file helpers.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dockmine/json/json.h"
#include "dockmine/synth/calibration.h"

namespace dmbench {

struct Args {
  std::string workload;
  std::string mode = "measure";  ///< measure | check
  std::string work;              ///< scratch directory of this run
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< traced runs: where the span log is written
};

/// Monotonic seconds.
double now_s();

/// Peak resident set of this process, in MB (getrusage ru_maxrss).
double peak_rss_mb();

double median(std::vector<double> values);
/// Linear-interpolated percentile, p in [0, 1].
double percentile(std::vector<double> values, double p);

/// Named metrics in insertion order, printed as the benchmark's
/// {"value":..,"unit":..} map.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  dockmine::json::Value to_json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Per-iteration samples of named metrics; each is reported as the median
/// of its samples.
class Samples {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  void emit(Metrics& metrics) const;

 private:
  std::vector<std::pair<std::string, std::pair<std::vector<double>, std::string>>>
      items_;
};

/// One workload run's outcome, printed as the last stdout line.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> problems;  ///< why `correct` is false

  void fail_check(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};
void print_outcome(const Outcome& outcome);

/// Span log for traced runs: spans live in memory and are written out once
/// at the end. A span records the benchmark's call into one public
/// function of a layer; `parent` is the index of the enclosing span or -1.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  /// Time `fn` as span `name` under the currently open span.
  template <typename Fn>
  auto time(const std::string& name, Fn&& fn) {
    const int index = open(name);
    struct Closer {
      SpanLog* log;
      int index;
      ~Closer() { log->close(index); }
    } closer{this, index};
    return fn();
  }

  int open(const std::string& name);
  void close(int index);
  /// Record an already measured interval under the open span.
  void record(const std::string& name, double start, double end);

  /// Durations of every span called `name`, seconds.
  std::vector<double> durations(const std::string& name) const;
  /// Wall of `root` not covered by its direct children, seconds.
  double self_time(int root) const;
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Chrome trace-event JSON of every span.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Size of a generated corpus, as the generator models it.
struct CorpusSize {
  std::uint64_t repositories = 0;
  std::uint64_t seed = 0;
  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
  std::uint64_t max_layer_bytes = 0;  ///< largest single layer
};

/// What a workload's corpus should look like; a zero field is not targeted.
struct CorpusTarget {
  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
  std::uint64_t max_layer_bytes = 0;
};

/// Pick the generator seed and repository count whose corpus lies closest
/// to `target` (sum of relative errors), among `seeds` seeds derived from
/// `seed` times `candidates` evenly spaced counts in [lo, hi]. Corpus size
/// at a fixed repository count varies about 2x between seeds, because a few
/// heavy images and heavy-tailed file sizes dominate, so sizing by
/// repository count alone would make the work and the peak memory of a run
/// depend on the seed. `delivered_only` counts only the unique layers of
/// images a crawl can download; otherwise every unique layer of the
/// snapshot (metadata mode streams them all).
CorpusSize size_corpus(const dockmine::synth::Calibration& cal,
                       std::uint64_t seed, const CorpusTarget& target,
                       std::uint64_t lo, std::uint64_t hi,
                       std::uint64_t candidates, bool delivered_only,
                       std::uint64_t seeds = 1);

/// Corpus seed of one workload: a fixed per-workload base plus the run
/// seed, so different workloads never share a corpus.
std::uint64_t corpus_seed(std::uint64_t base, std::uint64_t seed);

bool write_file(const std::string& path, const std::string& text);
bool read_file(const std::string& path, std::string& out);
void remove_tree(const std::string& path);
void make_dirs(const std::string& path);

}  // namespace dmbench
