// Reproduces Table III: runtime comparison between full fault-injection
// simulation on the two engines (the roles of Synopsys VCS and OSS-CVC)
// and SVM model prediction, across flux 4e8..8e8, with the model's
// agreement ("Model Accuracy") per flux.
//
// Expected shape vs the paper: simulation runtime grows with flux (more
// injections to simulate), prediction time is flat and far smaller; the
// paper reports 11.44x / 12.78x average speed-ups at 94.58% accuracy.
//
// Also benchmarks the campaign execution engine itself: a throughput matrix
// over {engine: event / levelized / bit-parallel / bit-parallel-256} x
// {threads} x {checkpoint on/off}, in injections per second and speedup
// against the serial seed path (1 thread, no checkpoint, no early exit).
// Packed rows are additionally checked record-identical against the
// levelized reference (the engines share the zero-delay timing model). The
// matrix is emitted as machine-readable BENCH_table3.json for CI artifacts,
// stamped with hardware_threads so downstream gates can judge thread
// scaling relative to the cores that were actually available (a 1-core
// container cannot show wall-clock speedup at any thread count).
// SSRESF_BENCH_SCALE=smoke runs a trimmed matrix at a smaller injection
// volume and skips the flux/ML table (the CI smoke mode); every other scale
// runs the full matrix, which raises sampling until the campaign exceeds
// 2000 injections per cell so the rates are steady-state, not fixed-cost
// noise.
#include <fstream>
#include <thread>

#include "bench_common.h"

using namespace ssresf;

namespace {

double campaign_runtime(const soc::SocModel& model, sim::EngineKind engine,
                        fi::CampaignConfig cfg,
                        const radiation::SoftErrorDatabase& db,
                        fi::CampaignResult* out = nullptr) {
  cfg.engine = engine;
  util::Timer timer;
  auto result = fi::run_campaign(model, cfg, db);
  const double seconds = timer.seconds();
  if (out != nullptr) *out = std::move(result);
  return seconds;
}

/// A row family of the throughput matrix: an engine plus its lane width
/// (the packed engine appears twice, at 64 and 256 lanes).
struct EngineVariant {
  sim::EngineKind kind;
  int lanes;
  const char* name;
};

constexpr EngineVariant kVariants[] = {
    {sim::EngineKind::kEvent, 64, "event"},
    {sim::EngineKind::kLevelized, 64, "levelized"},
    {sim::EngineKind::kBitParallel, 64, "bit-parallel"},
    {sim::EngineKind::kBitParallel, 256, "bit-parallel-256"},
};

struct MatrixCell {
  const char* engine;
  int threads;
  bool checkpoint;
  int lanes;
  std::size_t injections;
  double sim_seconds;
  double inj_per_sec;
  double speedup;
  bool identical;
};

bool records_identical(const fi::CampaignResult& a,
                       const fi::CampaignResult& b) {
  if (a.records.size() != b.records.size() ||
      a.chip_ser_percent != b.chip_ser_percent) {
    return false;
  }
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    if (a.records[i].soft_error != b.records[i].soft_error ||
        a.records[i].event.time_ps != b.records[i].event.time_ps ||
        a.records[i].first_mismatch_cycle !=
            b.records[i].first_mismatch_cycle) {
      return false;
    }
  }
  return true;
}

void write_bench_json(const std::vector<MatrixCell>& cells,
                      double bitparallel_speedup, double packed_4t_over_1t,
                      bool all_identical, bool smoke) {
  std::ofstream out("BENCH_table3.json");
  out << "{\n  \"benchmark\": \"table3_campaign_throughput\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"bitparallel_vs_levelized_1thread_ckpt\": "
      << util::format("%.3f", bitparallel_speedup) << ",\n"
      << "  \"packed_4t_over_1t\": "
      << util::format("%.3f", packed_4t_over_1t) << ",\n"
      << "  \"all_identical\": " << (all_identical ? "true" : "false")
      << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const MatrixCell& c = cells[i];
    out << "    {\"engine\": \"" << c.engine << "\", \"threads\": " << c.threads
        << ", \"checkpoint\": " << (c.checkpoint ? "true" : "false")
        << ", \"lanes\": " << c.lanes
        << ", \"injections\": " << c.injections
        << ", \"sim_seconds\": " << util::format("%.4f", c.sim_seconds)
        << ", \"inj_per_sec\": " << util::format("%.2f", c.inj_per_sec)
        << ", \"speedup\": " << util::format("%.3f", c.speedup)
        << ", \"identical\": " << (c.identical ? "true" : "false") << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int run_throughput_matrix(const soc::SocModel& model,
                          const radiation::SoftErrorDatabase& db, bool smoke) {
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf(
      "campaign throughput matrix (baseline: 1 thread, checkpoint off,\n"
      "early exit off = the serial seed path; %u hardware threads)\n",
      hw_threads);
  util::Table table({"Engine", "Threads", "Checkpoint", "Injections",
                     "Sim (s)", "Inj/s", "Speedup", "Identical"});
  // Checkpoint-on rows carry the thread-scaling story, so the full matrix
  // sweeps {1,2,4,8} there; checkpoint-off rows only anchor the serial seed
  // rate and get a trimmed sweep (they are the slowest cells by far).
  const std::vector<int> ckpt_threads =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  const std::vector<int> nockpt_threads = std::vector<int>{1, 4};

  std::vector<MatrixCell> cells;
  bool all_identical = true;
  // Injections/sec at {1 thread, checkpoint on} per engine, for the
  // headline acceptance ratios.
  double level_ckpt_rate = 0.0;
  double bitpar_ckpt_rate = 0.0;
  // Packed-engine thread scaling (checkpoint on): rate at 4 threads over
  // rate at 1 thread, best of the two lane widths.
  double packed_1t_rate = 0.0;
  double packed_4t_rate = 0.0;
  fi::CampaignResult levelized_reference;
  bool have_levelized_reference = false;

  for (const EngineVariant& variant : kVariants) {
    double base_rate = 0.0;
    bool have_reference = false;
    fi::CampaignResult reference;
    for (const bool checkpoint : {false, true}) {
      for (const int threads : checkpoint ? ckpt_threads : nockpt_threads) {
        fi::CampaignConfig cfg = bench::row_campaign(0, 90210);
        // Throughput is a steady-state metric: raise the injection volume
        // above the quick-scale default so per-campaign fixed costs (golden
        // run, clustering, checkpoint ladder) do not dominate the rates.
        // The full matrix pushes past 2000 injections per cell; smoke keeps
        // the volume small enough for the CI time budget.
        if (smoke) {
          cfg.sampling.fraction = 0.05;
          cfg.sampling.min_per_cluster = 10;
          cfg.sampling.max_per_cluster = 48;
          cfg.sampling.memory_macro_draws = 40;
        } else {
          cfg.sampling.fraction = 1.0;
          cfg.sampling.min_per_cluster = 64;
          cfg.sampling.max_per_cluster = 1000;
          cfg.sampling.memory_macro_draws = 320;
        }
        cfg.engine = variant.kind;
        cfg.lanes = variant.lanes;
        cfg.threads = threads;
        cfg.use_checkpoint = checkpoint;
        // "Checkpoint off" disables the whole fast path: the seed execution
        // model of one full re-simulation per fault.
        cfg.early_exit = checkpoint;
        cfg.masked_exit = checkpoint;
        const auto result = fi::run_campaign(model, cfg, db);

        // Bit-identical results across every cell of the matrix; the
        // packed engines must also match the levelized records.
        bool identical = true;
        if (!have_reference) {
          reference = result;
          have_reference = true;
        } else {
          identical = records_identical(result, reference);
        }
        if (variant.kind == sim::EngineKind::kLevelized &&
            !have_levelized_reference) {
          levelized_reference = result;
          have_levelized_reference = true;
        }
        if (variant.kind == sim::EngineKind::kBitParallel &&
            have_levelized_reference) {
          identical = identical && records_identical(result, levelized_reference);
        }
        all_identical = all_identical && identical;

        const double rate =
            static_cast<double>(result.records.size()) /
            std::max(result.simulation_seconds, 1e-9);
        if (!checkpoint && threads == 1) base_rate = rate;
        if (checkpoint && threads == 1) {
          if (variant.kind == sim::EngineKind::kLevelized) {
            level_ckpt_rate = rate;
          }
          if (variant.kind == sim::EngineKind::kBitParallel &&
              variant.lanes == 64) {
            bitpar_ckpt_rate = rate;
          }
        }
        if (checkpoint && variant.kind == sim::EngineKind::kBitParallel) {
          if (threads == 1) packed_1t_rate = std::max(packed_1t_rate, rate);
          if (threads == 4) packed_4t_rate = std::max(packed_4t_rate, rate);
        }
        cells.push_back({variant.name, threads, checkpoint, variant.lanes,
                         result.records.size(), result.simulation_seconds,
                         rate, rate / base_rate, identical});
        table.add_row({variant.name, std::to_string(threads),
                       checkpoint ? "on" : "off",
                       std::to_string(result.records.size()),
                       util::format("%.2f", result.simulation_seconds),
                       util::format("%.1f", rate),
                       util::format("%.2fx", rate / base_rate),
                       identical ? "yes" : "NO"});
        std::fflush(stdout);
      }
    }
  }
  std::printf("%s\n", table.render().c_str());

  const double word_speedup =
      level_ckpt_rate > 0 ? bitpar_ckpt_rate / level_ckpt_rate : 0.0;
  const double packed_scaling =
      packed_1t_rate > 0 ? packed_4t_rate / packed_1t_rate : 0.0;
  std::printf(
      "bit-parallel vs levelized (1 thread, checkpoint on): %.2fx "
      "injections/sec, records %s\n",
      word_speedup, all_identical ? "identical" : "NOT IDENTICAL");
  std::printf(
      "packed engine 4 threads vs 1 thread (checkpoint on): %.2fx on %u "
      "hardware threads\n\n",
      packed_scaling, hw_threads);
  write_bench_json(cells, word_speedup, packed_scaling, all_identical, smoke);
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: matrix cells disagree on campaign records\n");
    return 1;
  }
  // Thread-scaling gate, judged against the cores actually available: on a
  // >= 4-core machine 4 campaign workers must beat 1 (the historical bug
  // this pins was 4 threads running *slower* than 1 due to false sharing
  // and per-injection allocation churn); on fewer cores wall-clock speedup
  // is physically impossible, so the gate only rejects outright collapse
  // from contention overhead.
  const double floor = hw_threads >= 4 ? 1.0 : 0.75;
  if (packed_scaling > 0.0 && packed_scaling < floor) {
    std::fprintf(stderr,
                 "FAIL: packed 4-thread throughput %.2fx of 1-thread "
                 "(floor %.2fx on %u hardware threads)\n",
                 packed_scaling, floor, hw_threads);
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  const auto scale = bench::bench_scale();
  std::printf("SSRESF Table III reproduction (scale: %s)\n", scale.name);
  std::printf("benchmark: PULP SoC1, injection volume scales with flux\n\n");

  const auto rows = soc::pulp_soc_table();
  const soc::SocModel model = bench::build_row_soc(rows[0]);
  const auto db = radiation::SoftErrorDatabase::default_database();

  const bool smoke = std::string(scale.name) == "smoke";
  const int matrix_status = run_throughput_matrix(model, db, smoke);
  if (smoke || matrix_status != 0) return matrix_status;

  util::Table table({"Flux", "Event sim (s)", "Levelized sim (s)",
                     "Model pred (s)", "Speedup(evt)", "Speedup(lvl)",
                     "Model accuracy"});
  double sum_s_event = 0;
  double sum_s_level = 0;
  double sum_acc = 0;
  int n = 0;

  for (const double flux : {4e8, 5e8, 6e8, 7e8, 8e8}) {
    fi::CampaignConfig cfg = bench::row_campaign(0, 31337 + n);
    cfg.environment.flux = flux;
    // The fault-injection volume follows the expected number of beam
    // upsets: more flux, more events to simulate (as in the paper's
    // growing VCS runtimes).
    const double flux_factor = flux / 4e8;
    cfg.sampling.fraction *= flux_factor;
    cfg.sampling.min_per_cluster =
        static_cast<int>(cfg.sampling.min_per_cluster * flux_factor);
    cfg.sampling.memory_macro_draws =
        static_cast<int>(cfg.sampling.memory_macro_draws * flux_factor);

    fi::CampaignResult event_result;
    const double s_event =
        campaign_runtime(model, sim::EngineKind::kEvent, cfg, db, &event_result);
    const double s_level =
        campaign_runtime(model, sim::EngineKind::kLevelized, cfg, db);

    // ML phase: train on the event campaign's dataset, measure prediction
    // over every node of the netlist, accuracy from held-out CV folds.
    core::PipelineConfig pcfg;
    pcfg.campaign = cfg;
    pcfg.cv_folds = scale.cv_folds;
    pcfg.svm.kernel.gamma = 0.5;
    pcfg.svm.c = 4.0;
    const auto pipeline = core::run_pipeline(model, pcfg, db);
    const double s_model = pipeline.train_seconds + pipeline.predict_seconds;
    const double accuracy = pipeline.model_accuracy();

    table.add_row({util::format("%.0e", flux), util::format("%.2f", s_event),
                   util::format("%.2f", s_level),
                   util::format("%.4f", s_model),
                   util::format("%.1fx", s_event / s_model),
                   util::format("%.1fx", s_level / s_model),
                   util::format("%.1f%%", 100 * accuracy)});
    sum_s_event += s_event / s_model;
    sum_s_level += s_level / s_model;
    sum_acc += accuracy;
    ++n;
    std::fflush(stdout);
  }
  table.add_row({"Avg.", "", "", "", util::format("%.1fx", sum_s_event / n),
                 util::format("%.1fx", sum_s_level / n),
                 util::format("%.1f%%", 100 * sum_acc / n)});
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Paper reference (Table III): VCS 170-380s, CVC 200-410s, model\n"
      "~24s; average speed-ups 11.44x (VCS) and 12.78x (CVC) at 94.58%%\n"
      "average accuracy. Our absolute times are smaller (simulated\n"
      "substrate); compare the growth with flux and the sim >> model gap.\n");
  return 0;
}
