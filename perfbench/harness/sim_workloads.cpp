// The two simulate workloads: scenario-e2e (a whole core::Session run) and
// campaign-large (fi::run_campaign on an execution-dominated plan).

#include <cstdio>
#include <numeric>
#include <optional>

#include "bench.h"
#include "core/session.h"
#include "fi/campaign_exec.h"

namespace perfbench {
namespace {

constexpr int kSimThreads = 2;     // campaign threads of every simulate run
constexpr int kSetupPerUnit = 8;   // set-up samples taken next to each unit

/// Times `n` set-ups (scenario parse + SoC model build) into `times`.
void time_setups(const std::string& yaml, int n, std::vector<double>& times) {
  for (int i = 0; i < n; ++i) {
    const Clock::time_point t0 = Clock::now();
    const core::ScenarioSpec spec = core::ScenarioSpec::parse(yaml);
    const soc::SocModel model = spec.build_model();
    times.push_back(seconds_since(t0));
  }
}

/// Runs `unit` (returning its wall seconds) until the measurement budget is
/// spent: at least `min_units` times, and never starting a unit expected to
/// end past the budget once that minimum is met. kSetupPerUnit set-up
/// samples go before every unit and after the last one, so the set-up
/// figure sees the same host phases as the units.
template <typename Unit>
std::vector<double> measure_units(double budget_s, int min_units,
                                  const std::string& yaml,
                                  std::vector<double>& setups, Unit&& unit) {
  std::vector<double> walls;
  const Clock::time_point start = Clock::now();
  for (;;) {
    time_setups(yaml, kSetupPerUnit, setups);
    walls.push_back(unit());
    const double elapsed = seconds_since(start);
    if (static_cast<int>(walls.size()) >= min_units &&
        elapsed + median(walls) > budget_s) {
      break;
    }
  }
  time_setups(yaml, kSetupPerUnit, setups);
  return walls;
}

struct Setup {
  std::string yaml;
  core::ScenarioSpec spec;
  soc::SocModel model;
};

Setup make_setup(std::string yaml) {
  Setup out;
  out.spec = core::ScenarioSpec::parse(yaml);
  out.model = out.spec.build_model();
  out.yaml = std::move(yaml);
  return out;
}

std::size_t count_soft_errors(const std::vector<fi::InjectionRecord>& records) {
  std::size_t n = 0;
  for (const fi::InjectionRecord& r : records) n += r.soft_error ? 1 : 0;
  return n;
}

/// Checks every unit's records against the first unit's digest, then runs
/// the differential shard oracle on the first unit. Returns failed units.
std::uint64_t check_units(const std::vector<std::uint64_t>& digests,
                          const soc::SocModel& model,
                          const fi::CampaignConfig& config,
                          const radiation::SoftErrorDatabase& db,
                          std::uint64_t seed,
                          const std::vector<fi::InjectionRecord>& reference,
                          RunResult& result) {
  const Oracle oracle = oracle_for(config);
  std::size_t checked = 0;
  const std::size_t mismatches =
      shard_oracle(model, oracle, db, seed, reference, &checked);
  result.notes.push_back("oracle: " + std::to_string(checked) +
                         " records re-simulated (" + oracle.route + "), " +
                         std::to_string(mismatches) + " mismatches");
  std::uint64_t failed = 0;
  for (const std::uint64_t d : digests) {
    if (mismatches != 0 || d != digests.front()) ++failed;
  }
  return failed;
}

void set_end_to_end(RunResult& result, double setup_s,
                    const std::vector<double>& walls, double planned) {
  result.metrics.set("setup_s", setup_s, "s");
  result.metrics.set("wall_s", median(walls), "s");
  std::vector<double> rates;
  for (const double w : walls) rates.push_back(planned / w);
  result.metrics.set("rate_per_s", median(rates), "1/s");
  result.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  std::string list;
  for (const double w : walls) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.3f", list.empty() ? "" : " ", w);
    list += buf;
  }
  result.notes.push_back("unit walls (s): " + list);
}

// --- scenario-e2e --------------------------------------------------------------

void fill_ml_outcome(const ml::Dataset& data, SessionOutcome& out) {
  out.dataset_rows = data.size();
  out.positive = data.count_label(1);
  out.single_class = out.positive == 0 || out.positive == data.size();
}

double majority_pct(const SessionOutcome& o) {
  if (o.dataset_rows == 0) return 0.0;
  const std::size_t major = std::max(o.positive, o.dataset_rows - o.positive);
  return 100.0 * static_cast<double>(major) /
         static_cast<double>(o.dataset_rows);
}

/// fi::run_campaign split into its fi::detail prepare / execute / finalize
/// phases, one span each: the traced form of a campaign.
fi::CampaignResult run_campaign_split(const soc::SocModel& model,
                                      const fi::CampaignConfig& config,
                                      const radiation::SoftErrorDatabase& db) {
  std::optional<fi::detail::CampaignPrep> prep;
  {
    Span span("fi.prepare");
    prep.emplace(fi::detail::prepare_campaign(model, config, db,
                                              /*for_execution=*/true));
  }
  std::vector<fi::InjectionRecord> records(prep->plan.size());
  std::vector<std::size_t> owned(prep->plan.size());
  std::iota(owned.begin(), owned.end(), std::size_t{0});
  {
    Span span("fi.execute");
    fi::detail::execute_injections(model, config, *prep, owned, records);
  }
  Span span("fi.finalize");
  return fi::detail::finalize_campaign(model, config, db, std::move(*prep),
                                       std::move(records));
}

void report_campaign_fingerprint(const std::vector<fi::InjectionRecord>& records,
                                 RunResult& result) {
  result.fingerprint["records_digest"] = hex64(records_digest(records));
  result.fingerprint["fi.plan_injections"] = std::to_string(records.size());
  result.fingerprint["fi.soft_errors"] =
      std::to_string(count_soft_errors(records));
}

}  // namespace

SessionOutcome run_session(const Options& options,
                           const core::ScenarioSpec& spec,
                           const radiation::SoftErrorDatabase& db,
                           const std::string& publish_dir, bool traced) {
  const std::string dir = scratch_dir(options, "session");
  core::SessionOptions so;
  so.artifact_dir = dir;
  so.resume = false;
  so.threads = kSimThreads;
  so.publish_dir = publish_dir;
  fi::CampaignConfig config = spec.campaign.config;
  config.threads = kSimThreads;
  SessionOutcome out;
  const Clock::time_point t0 = Clock::now();
  {
    std::optional<core::Session> session;
    if (traced) {
      soc::SocModel model;
      {
        Span span("soc.build_model");
        model = spec.build_model();
      }
      session.emplace(std::move(model), spec, db, so);
      // Session::simulate, split: the fi phases, then adopt_campaign.
      fi::CampaignResult campaign;
      {
        Span stage("core.simulate");
        campaign = run_campaign_split(session->model(), config, db);
      }
      Span span("core.persist_records");
      session->adopt_campaign(std::move(campaign));
    } else {
      session.emplace(spec, db, so);
      session->simulate();
    }
    {
      Span span("core.build_dataset");
      fill_ml_outcome(session->build_dataset(), out);
    }
    // A single-class dataset is reported as such and the ML stages are
    // skipped, unless the caller needs a published model regardless.
    if (!out.single_class || !publish_dir.empty()) {
      {
        Span span("ml.tune");
        session->tune();
      }
      {
        Span span("ml.train");
        session->train();
      }
      if (publish_dir.empty()) {
        Span span("core.predict");
        out.predict_rows = session->predict().labels.size();
      }
      out.cv_accuracy_pct = 100.0 * session->cv().mean_accuracy;
    }
    out.wall_s = seconds_since(t0);
    out.records = session->simulate().records;
  }
  remove_tree(dir);
  return out;
}

namespace {

void report_session_fingerprint(const SessionOutcome& o, RunResult& result) {
  report_campaign_fingerprint(o.records, result);
  result.fingerprint["ml.positive_labels"] = std::to_string(o.positive);
  result.fingerprint["ml.dataset_rows"] = std::to_string(o.dataset_rows);
  result.fingerprint["core.predict_rows"] = std::to_string(o.predict_rows);
  char cv[48];
  if (o.single_class) {
    std::snprintf(cv, sizeof(cv), "undefined (single-class dataset)");
    result.notes.push_back(
        "single-class dataset: tune/train/predict skipped for this seed");
  } else {
    std::snprintf(cv, sizeof(cv), "%.4f", o.cv_accuracy_pct);
  }
  result.fingerprint["ml.cv_accuracy_pct"] = cv;
  char base[32];
  std::snprintf(base, sizeof(base), "%.4f", majority_pct(o));
  result.fingerprint["ml.majority_baseline_pct"] = base;
}

}  // namespace

RunResult run_scenario_e2e(const Options& options) {
  RunResult result;
  const auto db = radiation::SoftErrorDatabase::default_database();
  const Setup setup =
      make_setup(scenario_yaml(Shape::kE2e, "", options.seed));
  result.settings["engine"] =
      std::string(core::engine_name(setup.spec.campaign.config.engine));
  result.settings["threads"] = std::to_string(kSimThreads);
  result.settings["lanes"] = "n/a (scalar engine)";

  std::vector<double> walls;
  std::vector<double> setups;
  std::vector<std::uint64_t> digests;
  SessionOutcome first;
  const auto unit = [&] {
    SessionOutcome o = run_session(options, setup.spec, db, "", false);
    const double wall = o.wall_s;
    digests.push_back(records_digest(o.records));
    if (digests.size() == 1) first = std::move(o);
    return wall;
  };
  if (!options.trace) {
    walls = measure_units(options.seconds, 2, setup.yaml, setups, unit);
    set_end_to_end(result, median(setups), walls,
                   static_cast<double>(first.records.size()));
  } else {
    walls.push_back(unit());  // untraced reference for the overhead
    Tracer::instance().enable();
    const Clock::time_point t0 = Clock::now();
    SessionOutcome traced;
    {
      Span root("run");
      traced = run_session(options, setup.spec, db, "", true);
    }
    const double traced_wall = seconds_since(t0);
    digests.push_back(records_digest(traced.records));
    finish_layer_metrics(result, traced_wall, walls.front());
  }
  report_session_fingerprint(first, result);
  fi::CampaignConfig config = setup.spec.campaign.config;
  config.threads = kSimThreads;
  result.attempted = digests.size();
  result.failed = check_units(digests, setup.model, config, db, options.seed,
                              first.records, result);
  return result;
}

RunResult run_campaign_large(const Options& options) {
  RunResult result;
  const auto db = radiation::SoftErrorDatabase::default_database();
  const Setup setup = make_setup(
      scenario_yaml(Shape::kLarge, "bit-parallel", options.seed));
  fi::CampaignConfig config = setup.spec.campaign.config;
  config.threads = kSimThreads;
  result.settings["engine"] = "bit-parallel";
  result.settings["threads"] = std::to_string(config.threads);
  result.settings["lanes"] = std::to_string(config.lanes);

  std::vector<double> walls;
  std::vector<double> setups;
  std::vector<std::uint64_t> digests;
  std::vector<fi::InjectionRecord> reference;
  const auto unit = [&] {
    const Clock::time_point t0 = Clock::now();
    fi::CampaignResult campaign = fi::run_campaign(setup.model, config, db);
    const double wall = seconds_since(t0);
    digests.push_back(records_digest(campaign.records));
    if (reference.empty()) reference = std::move(campaign.records);
    return wall;
  };
  if (!options.trace) {
    walls = measure_units(options.seconds, 3, setup.yaml, setups, unit);
    set_end_to_end(result, median(setups), walls,
                   static_cast<double>(reference.size()));
  } else {
    walls.push_back(unit());
    Tracer::instance().enable();
    const Clock::time_point t0 = Clock::now();
    fi::CampaignResult campaign;
    {
      Span root("run");
      soc::SocModel model;
      {
        Span span("soc.build_model");
        model = setup.spec.build_model();
      }
      campaign = run_campaign_split(model, config, db);
    }
    const double traced_wall = seconds_since(t0);
    digests.push_back(records_digest(campaign.records));
    finish_layer_metrics(result, traced_wall, walls.front());
  }
  report_campaign_fingerprint(reference, result);
  result.attempted = digests.size();
  result.failed = check_units(digests, setup.model, config, db, options.seed,
                              reference, result);
  return result;
}

int sim_self_test(const Options& options) {
  const auto db = radiation::SoftErrorDatabase::default_database();
  int misses = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("self-test: %s: %s\n", what.c_str(), ok ? "ok" : "FAILED");
    misses += ok ? 0 : 1;
  };
  // Both oracle routes: bit-parallel checked on levelized, and the event
  // engine checked against its own full re-simulation.
  for (const char* engine : {"bit-parallel", "event"}) {
    const core::ScenarioSpec spec = core::ScenarioSpec::parse(
        scenario_yaml(Shape::kE2e, engine, options.seed));
    const soc::SocModel model = spec.build_model();
    fi::CampaignConfig config = spec.campaign.config;
    config.threads = kSimThreads;
    const Oracle oracle = oracle_for(config);
    const std::vector<fi::InjectionRecord> reference =
        fi::run_campaign(model, config, db).records;
    const auto fires = [&](const std::vector<fi::InjectionRecord>& records) {
      return shard_oracle(model, oracle, db, options.seed, records, nullptr) != 0;
    };
    const std::string name = "shard oracle (" + oracle.route + ")";
    expect(!fires(reference), name + " accepts the unaltered reference");
    // The sampled shard owns global index (seed mod shard count).
    const std::size_t owned =
        options.seed % oracle_shards(oracle, reference.size());
    std::vector<fi::InjectionRecord> altered = reference;
    altered[owned].soft_error = !altered[owned].soft_error;
    expect(fires(altered), name + " fires on one flipped soft_error");
    altered = reference;
    altered[owned].first_mismatch_cycle += 1;
    expect(fires(altered), name + " fires on one shifted first_mismatch_cycle");
    altered = reference;
    altered.back().cluster += 1;
    expect(records_digest(altered) != records_digest(reference),
           "records-digest oracle fires on one altered cluster id");
  }
  return misses;
}

}  // namespace perfbench
