#pragma once

// Shared plumbing of the perfbench harness: options, the span tracer, the
// metric table, small statistics helpers, and the generated fixtures.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "fi/campaign.h"
#include "radiation/soft_error_db.h"

namespace perfbench {

namespace core = ssresf::core;
namespace fi = ssresf::fi;
namespace ml = ssresf::ml;
namespace net = ssresf::net;
namespace netlist = ssresf::netlist;
namespace radiation = ssresf::radiation;
namespace sim = ssresf::sim;
namespace soc = ssresf::soc;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";  // temp files, traces
};

// --- metrics -------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Ordered name -> (value, unit) table; the end-to-end and per-layer sets
/// of a run both live here before being printed.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = Metric{value, unit};
  }
  [[nodiscard]] const std::map<std::string, Metric>& all() const {
    return values_;
  }

 private:
  std::map<std::string, Metric> values_;
};

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile (q in [0, 100]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);

// --- tracing -------------------------------------------------------------------

/// In-memory span recorder. Spans carry name, start, end and parent; they
/// are written as Chrome trace-event JSON when the run ends. Disabled (the
/// default) it records nothing, so the timed runs pay one branch per span.
class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    double start = 0.0;  // seconds since the tracer epoch
    double end = 0.0;
    int parent = -1;     // index into spans(), -1 = root
  };

  static Tracer& instance();
  void enable() { enabled_ = true; }

  /// Opens a span on the calling thread's stack; returns its index (-1 when
  /// disabled).
  int open(const std::string& name);
  void close(int index);

  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// Self time (duration minus the part covered by child spans) and count,
  /// summed per span name.
  struct Totals {
    double self_s = 0.0;
    double total_s = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  void write_chrome_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op when tracing is off.
class Span {
 public:
  explicit Span(const std::string& name)
      : index_(Tracer::instance().open(name)) {}
  ~Span() { Tracer::instance().close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

// --- fixtures ------------------------------------------------------------------

/// Campaign seed of every generated scenario: the seed of the shipped
/// benchmark-light scenario. The campaign is pinned because its cost swings
/// with the seed far beyond any regression bound: which cells the plan
/// strikes (memory macros stay latent to the end of the workload and cost
/// ~0.45 s each on the event engine) moves a 65-injection session between
/// 2.1 and 6.4 s and a 1250-injection bit-parallel campaign by 16-25%.
inline constexpr std::uint64_t kCampaignSeed = 23;

enum class Shape {
  kE2e,    // benchmark-light as shipped: fraction 0.02, 4..20 per cluster, ML
  kLarge,  // fraction 1.0, 4..125 per cluster: an execution-dominated plan
};

/// A generated scenario on the benchmark-light SoC (RV32IM / AHB, 6
/// clusters). `engine` empty leaves the key out (the library's default
/// engine); `ml_seed` seeds the ML phase (CV folds, grid search, feature
/// selection) of the kE2e shape.
[[nodiscard]] std::string scenario_yaml(Shape shape, const std::string& engine,
                                        std::uint64_t ml_seed);

/// FNV-1a over the canonical record encoding (fi::encode_records).
[[nodiscard]] std::uint64_t records_digest(
    const std::vector<fi::InjectionRecord>& records);

/// The differential oracle of a timed campaign: the same campaign on
/// another execution route whose records must be identical.
///  - bit-parallel runs are checked on the levelized engine (the same
///    zero-delay timing model, record-identical by design);
///  - event-engine runs are checked on the event engine with checkpoints,
///    early exit and masked exit off (full re-simulation per injection).
///    No other engine shares the event engine's timing model: levelized and
///    bit-parallel ignore gate delays, so their SET records differ by design
///    (in the 2000-injection plan of the campaign-large shape with at most
///    500 per cluster, injection 1651 is a SET the event engine reports as a
///    soft error and the zero-delay engines mask).
struct Oracle {
  fi::CampaignConfig config;
  std::string route;        // human-readable description
  std::size_t sample = 0;   // target number of re-simulated records
};
[[nodiscard]] Oracle oracle_for(const fi::CampaignConfig& timed);

/// Re-simulates one shard of the plan (about oracle.sample records; the
/// shard index is the workload seed modulo the shard count) on the oracle's
/// route and compares each record with `records` at the same global index.
/// Returns the number of mismatches (0 = pass); `checked` receives the
/// sample size when non-null.
[[nodiscard]] std::size_t shard_oracle(
    const soc::SocModel& model, const Oracle& oracle,
    const radiation::SoftErrorDatabase& db, std::uint64_t seed,
    const std::vector<fi::InjectionRecord>& records, std::size_t* checked);
/// The shard count shard_oracle uses for a plan of `plan_size` records.
[[nodiscard]] std::size_t oracle_shards(const Oracle& oracle,
                                        std::size_t plan_size);

[[nodiscard]] std::string hex64(std::uint64_t v);

/// Peak resident set size of the process in MiB (VmHWM): since the process
/// started, or since the last successful reset_peak_rss().
[[nodiscard]] double peak_rss_mb();
/// Returns freed heap memory to the system and restarts the peak count at
/// the current resident set. False when the kernel refuses the reset.
[[nodiscard]] bool reset_peak_rss();

/// Fresh, empty scratch directory under the options' output directory.
[[nodiscard]] std::string scratch_dir(const Options& options,
                                      const std::string& tag);
void remove_tree(const std::string& path);

// --- workload entry points -----------------------------------------------------

/// Everything one run reports: end-to-end metrics (trace off) or per-layer
/// metrics (trace on), the operation tallies, and the free-form report.
struct RunResult {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Deterministic fingerprints and settings, printed in the report line.
  std::map<std::string, std::string> fingerprint;
  std::map<std::string, std::string> settings;
  std::vector<std::string> notes;
};

/// Outcome of one core::Session unit (the scenario-e2e unit of work).
struct SessionOutcome {
  double wall_s = 0.0;
  std::vector<fi::InjectionRecord> records;
  std::size_t dataset_rows = 0;
  std::size_t positive = 0;
  bool single_class = false;
  double cv_accuracy_pct = -1.0;  // -1 = undefined (ML stages skipped)
  std::size_t predict_rows = 0;
};

/// One `ssresf run` of `spec` through the public Session stages, artifacts
/// in a scratch directory. With `publish_dir` set, the trained bundle is
/// published there and predict is skipped (the serve-mixed fixture);
/// otherwise a single-class dataset skips tune/train/predict. `traced`
/// builds the model separately and splits simulate into its fi phases.
[[nodiscard]] SessionOutcome run_session(const Options& options,
                                         const core::ScenarioSpec& spec,
                                         const radiation::SoftErrorDatabase& db,
                                         const std::string& publish_dir,
                                         bool traced);

RunResult run_scenario_e2e(const Options& options);
RunResult run_campaign_large(const Options& options);
RunResult run_serve_mixed(const Options& options);

/// Fills every per-layer metric with 0 that the workload does not reach, and
/// adds the trace accounting (trace.wall_s, trace.unattributed_s,
/// trace.overhead_s).
void finish_layer_metrics(RunResult& result, double traced_wall_s,
                          double untraced_wall_s);

/// Oracle self-tests: each oracle must accept its reference and fire on a
/// deliberately altered copy of it. Each returns the number of checks that
/// went the wrong way.
int sim_self_test(const Options& options);
int serve_self_test(const Options& options);

}  // namespace perfbench
