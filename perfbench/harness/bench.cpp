#include "bench.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "fi/shard.h"
#include "util/bytes.h"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(values.size()))) -
      1;
  return values[index];
}

// --- tracing -------------------------------------------------------------------

namespace {
thread_local std::vector<int> open_spans;
}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

int Tracer::open(const std::string& name) {
  if (!enabled_) return -1;
  const double now = std::chrono::duration<double>(Clock::now() - epoch_).count();
  std::lock_guard<std::mutex> lock(mu_);
  const int parent = open_spans.empty() ? -1 : open_spans.back();
  spans_.push_back(SpanRecord{name, now, now, parent});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_spans.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  const double now = std::chrono::duration<double>(Clock::now() - epoch_).count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end = now;
  if (!open_spans.empty() && open_spans.back() == index) open_spans.pop_back();
}

std::vector<Tracer::SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  const std::vector<SpanRecord> all = spans();
  std::vector<double> child_time(all.size(), 0.0);
  for (const SpanRecord& span : all) {
    if (span.parent >= 0) {
      child_time[static_cast<std::size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    Totals& t = out[all[i].name];
    const double duration = all[i].end - all[i].start;
    t.total_s += duration;
    t.self_s += duration - child_time[i];
    t.count += 1;
  }
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",\n", all[i].name.c_str(),
                  all[i].name.substr(0, all[i].name.find('.')).c_str(),
                  all[i].start * 1e6, (all[i].end - all[i].start) * 1e6, i,
                  all[i].parent);
    out << line;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

// --- fixtures ------------------------------------------------------------------

std::string scenario_yaml(Shape shape, const std::string& engine,
                          std::uint64_t ml_seed) {
  const bool e2e = shape == Shape::kE2e;
  std::string yaml =
      "scenario: " + std::string(e2e ? "perfbench-e2e" : "perfbench-large") +
      "\n"
      "model:\n"
      "  workload: benchmark-light\n"
      "  isa: RV32IM\n"
      "  bus: ahb\n"
      "  mem_kb: 4\n"
      "campaign:\n";
  if (!engine.empty()) yaml += "  engine: " + engine + "\n";
  yaml += "  seed: " + std::to_string(kCampaignSeed) +
          "\n"
          "  max_cycles: 3000\n"
          "  clustering:\n"
          "    clusters: 6\n"
          "  sampling:\n";
  yaml += e2e ? "    fraction: 0.02\n"
                "    min_per_cluster: 4\n"
                "    max_per_cluster: 20\n"
              : "    fraction: 1.0\n"
                "    min_per_cluster: 4\n"
                "    max_per_cluster: 125\n";
  yaml +=
      "    weighting: mixed\n"
      "    memory_macro_draws: 10\n";
  if (e2e) {
    yaml +=
        "ml:\n"
        "  cv_folds: 4\n"
        "  grid_search: true\n"
        "  feature_selection: true\n"
        "  seed: " + std::to_string(ml_seed) + "\n";
  }
  return yaml;
}

std::uint64_t records_digest(const std::vector<fi::InjectionRecord>& records) {
  std::vector<fi::ShardRecord> tagged;
  tagged.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    tagged.push_back(fi::ShardRecord{i, records[i]});
  }
  ssresf::util::ByteWriter out;
  fi::encode_records(out, tagged);
  return ssresf::util::fnv1a(out.data());
}

Oracle oracle_for(const fi::CampaignConfig& timed) {
  Oracle oracle;
  oracle.config = timed;
  oracle.config.progress = nullptr;
  if (timed.engine == sim::EngineKind::kBitParallel) {
    oracle.config.engine = sim::EngineKind::kLevelized;
    oracle.route = "levelized engine";
    oracle.sample = 40;
  } else {
    oracle.config.use_checkpoint = false;
    oracle.config.early_exit = false;
    oracle.config.masked_exit = false;
    oracle.route = std::string(core::engine_name(timed.engine)) +
                   " engine, full re-simulation";
    oracle.sample = 8;
  }
  return oracle;
}

std::size_t oracle_shards(const Oracle& oracle, std::size_t plan_size) {
  return std::max<std::size_t>(1, plan_size / std::max<std::size_t>(1, oracle.sample));
}

std::size_t shard_oracle(const soc::SocModel& model, const Oracle& oracle,
                         const radiation::SoftErrorDatabase& db,
                         std::uint64_t seed,
                         const std::vector<fi::InjectionRecord>& records,
                         std::size_t* checked) {
  const std::size_t count = oracle_shards(oracle, records.size());
  const fi::ShardSpec spec{static_cast<int>(seed % count),
                           static_cast<int>(count)};
  const fi::ShardRunResult shard =
      fi::run_campaign_shard(model, oracle.config, db, spec);
  std::size_t mismatches = 0;
  if (shard.total_injections != records.size()) ++mismatches;
  for (const fi::ShardRecord& r : shard.records) {
    if (r.index >= records.size() || !(records[r.index] == r.record)) {
      ++mismatches;
    }
  }
  if (checked != nullptr) *checked = shard.records.size();
  return mismatches;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // 5: reset the peak resident set size
  clear.close();
  return !clear.fail();
}

std::string scratch_dir(const Options& options, const std::string& tag) {
  namespace fs = std::filesystem;
  static int counter = 0;
  const fs::path dir = fs::path(options.out_dir) /
                       ("tmp-" + std::to_string(::getpid()) + "-" + tag + "-" +
                        std::to_string(counter++));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

// --- per-layer metric set ------------------------------------------------------

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every traced run reports all of these; a layer the workload never reaches
// reads 0. Span-timed entries (unit "s") are filled from the trace.
// Deterministic counts (plan size, soft errors, labels, accuracy) are not
// here: they are fingerprints, printed in the report, and must not change
// with a speed-up.
constexpr LayerMetric kLayerMetrics[] = {
    {"soc.build_model_s", "s"},
    {"fi.prepare_s", "s"},
    {"fi.execute_s", "s"},
    {"fi.finalize_s", "s"},
    {"core.simulate_s", "s"},
    {"core.persist_records_s", "s"},
    {"core.build_dataset_s", "s"},
    {"core.predict_s", "s"},
    {"ml.tune_s", "s"},
    {"ml.train_s", "s"},
    {"ml.classify_rows_per_s", "1/s"},
    {"net.predict_codec_ms", "ms"},
    {"serve.registry_load_s", "s"},
    {"serve.handle_small_ms", "ms"},
    {"serve.handle_bulk_ms", "ms"},
    {"serve.ssnp_p50_ms", "ms"},
    {"serve.ssnp_p99_ms", "ms"},
    {"serve.http_p50_ms", "ms"},
    {"serve.http_p99_ms", "ms"},
    {"serve.bulk_p50_ms", "ms"},
    {"serve.bulk_p90_ms", "ms"},
    {"serve.max_rps", "1/s"},
    {"serve.generator_lag_ms", "ms"},
    {"serve.ladder_s", "s"},
    {"serve.mixed_s", "s"},
    {"serve.ssnp_sent", "count"},
    {"serve.ssnp_ok", "count"},
    {"serve.http_sent", "count"},
    {"serve.http_ok", "count"},
    {"serve.bulk_sent", "count"},
    {"serve.bulk_ok", "count"},
    {"trace.wall_s", "s"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead_s", "s"},
};

}  // namespace

void finish_layer_metrics(RunResult& result, double traced_wall_s,
                          double untraced_wall_s) {
  const Tracer& tracer = Tracer::instance();
  double attributed = 0.0;
  for (const auto& [name, totals] : tracer.totals()) {
    if (name == "run") continue;
    attributed += totals.self_s;
    // core.simulate is a stage the traced run splits into the fi phases it
    // calls; its metric includes them. Every other span reports self time.
    const bool inclusive = name == "core.simulate";
    const std::string metric = name + "_s";
    for (const LayerMetric& m : kLayerMetrics) {
      if (metric == m.name) {
        result.metrics.set(metric, inclusive ? totals.total_s : totals.self_s,
                           "s");
      }
    }
  }
  result.metrics.set("trace.wall_s", traced_wall_s, "s");
  result.metrics.set("trace.unattributed_s", traced_wall_s - attributed, "s");
  result.metrics.set("trace.overhead_s", traced_wall_s - untraced_wall_s, "s");
  for (const LayerMetric& m : kLayerMetrics) {
    if (result.metrics.all().count(m.name) == 0) {
      result.metrics.set(m.name, 0.0, m.unit);
    }
  }
  // Anything the workload set beyond the declared set is a harness bug.
  for (const auto& [name, metric] : result.metrics.all()) {
    bool known = false;
    for (const LayerMetric& m : kLayerMetrics) known |= name == m.name;
    if (!known) {
      throw std::logic_error("undeclared per-layer metric '" + name + "'");
    }
  }
}

}  // namespace perfbench
