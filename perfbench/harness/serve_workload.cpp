// serve-mixed: traffic against an in-process serve::PredictServer on three
// connections, one client thread each: SSNP small batches, HTTP small
// batches, and SSNP whole-netlist bulk requests. The timed run is a closed
// loop on all three at once: small-request capacity and bulk latency while
// each kind shares the server with the other. The traced run adds an open
// loop of seeded Poisson arrivals over a fixed rate ladder (multiples of the
// reference rates) that runs past saturation.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <thread>

#include "bench.h"
#include "core/features.h"
#include "core/model_io.h"
#include "core/session.h"
#include "net/protocol.h"
#include "serve/predict_client.h"
#include "serve/predict_server.h"
#include "serve/registry.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace perfbench {

namespace serve = ssresf::serve;

namespace {

constexpr int kSetupRepeats = 101;
constexpr int kMaxSmallRows = 64;
// Reference (lowest) rung rates in requests per second. Rung k offers
// kLadder[k] times the small-request rates; the bulk stream keeps its rate
// on every rung, as background load the small requests share the server with.
constexpr double kSsnpRate = 100.0;
constexpr double kHttpRate = 50.0;
constexpr double kBulkRate = 3.0;
constexpr int kLadder[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
constexpr std::size_t kRungs = std::size(kLadder);
// Latency limits that define max_rps.
constexpr double kSsnpP99LimitMs = 1.0;
constexpr double kHttpP99LimitMs = 5.0;
constexpr double kBulkP90LimitMs = 250.0;
// The mixed closed-loop phase counts small-request completions per window
// of this length.
constexpr double kCapacityWindowS = 0.25;

using Rows = std::vector<std::vector<double>>;
using PredictFn = std::function<serve::PredictResult(const Rows&)>;

enum class StreamKind { kSsnpSmall, kHttpSmall, kSsnpBulk };
constexpr StreamKind kStreams[] = {StreamKind::kSsnpSmall,
                                   StreamKind::kHttpSmall,
                                   StreamKind::kSsnpBulk};

const char* stream_name(StreamKind kind) {
  switch (kind) {
    case StreamKind::kSsnpSmall: return "ssnp";
    case StreamKind::kHttpSmall: return "http";
    case StreamKind::kSsnpBulk: return "bulk";
  }
  return "?";
}

double base_rate(StreamKind kind) {
  switch (kind) {
    case StreamKind::kSsnpSmall: return kSsnpRate;
    case StreamKind::kHttpSmall: return kHttpRate;
    case StreamKind::kSsnpBulk: return kBulkRate;
  }
  return 0.0;
}

/// The served model and the reference answers the oracle checks against.
struct Fixture {
  std::string alias;
  std::uint64_t digest = 0;
  Rows rows;                 // every injectable cell of the netlist
  std::vector<int> expected;  // core::bundle_classify of each row
};

/// The serve oracle: a response is correct when it carries the expected
/// alias and model digest and every label equals the precomputed
/// core::bundle_classify answer for its row.
bool response_matches(const serve::PredictResult& result,
                      const Fixture& fixture, std::size_t first_row,
                      std::size_t count) {
  return result.alias == fixture.alias &&
         result.config_digest == fixture.digest &&
         result.labels.size() == count &&
         std::equal(result.labels.begin(), result.labels.end(),
                    fixture.expected.begin() + std::ptrdiff_t(first_row));
}

struct StreamStats {
  std::vector<double> latency_ms;  // from due time to response
  std::vector<double> lag_ms;      // send time minus due time
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t unsent = 0;  // due but never sent before the rung's deadline
  std::string first_error;
};

/// Backlog test of an open-loop stream: the generator falls further behind
/// over the rung (second-half mean lag exceeds the first half's by 10 ms).
bool lag_grows(const std::vector<double>& lag_ms) {
  if (lag_ms.size() < 10) return false;
  const std::size_t half = lag_ms.size() / 2;
  double first = 0.0;
  double second = 0.0;
  for (std::size_t i = 0; i < half; ++i) first += lag_ms[i];
  for (std::size_t i = half; i < lag_ms.size(); ++i) second += lag_ms[i];
  first /= static_cast<double>(half);
  second /= static_cast<double>(lag_ms.size() - half);
  return second > first + 10.0;
}

/// One stream's open loop for one rung: exponential inter-arrival gaps at
/// `rate`, each request timed from its due time. Requests still unsent a
/// quarter-rung past the rung's end are abandoned (counted as unsent).
void run_stream(StreamKind kind, double rate, Clock::time_point start,
                double duration_s, std::uint64_t rng_seed,
                const Fixture& fixture, const PredictFn& predict,
                StreamStats& stats) {
  ssresf::util::Rng rng(rng_seed);
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(duration_s * 1.25));
  double t = 0.0;
  Rows window;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration_s) break;
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(t));
    std::size_t first_row = 0;
    std::size_t count = fixture.rows.size();
    if (kind != StreamKind::kSsnpBulk) {
      count = 1 + rng.below(kMaxSmallRows);
      first_row = rng.below(fixture.rows.size() - count + 1);
    }
    if (Clock::now() >= deadline) {
      ++stats.unsent;
      continue;
    }
    std::this_thread::sleep_until(due);
    const auto sent_at = Clock::now();
    ++stats.sent;
    bool correct = false;
    try {
      const Rows* request = &fixture.rows;
      if (kind != StreamKind::kSsnpBulk) {
        window.assign(fixture.rows.begin() + std::ptrdiff_t(first_row),
                      fixture.rows.begin() + std::ptrdiff_t(first_row + count));
        request = &window;
      }
      const serve::PredictResult result = predict(*request);
      correct = response_matches(result, fixture, first_row, count);
      if (!correct && stats.first_error.empty()) {
        stats.first_error = "wrong answer";
      }
    } catch (const std::exception& e) {
      if (stats.first_error.empty()) stats.first_error = e.what();
    }
    const auto done = Clock::now();
    stats.lag_ms.push_back(
        std::chrono::duration<double, std::milli>(sent_at - due).count());
    stats.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(done - due).count());
    (correct ? stats.ok : stats.failed) += 1;
  }
}

struct RungResult {
  double offered_rps = 0.0;
  StreamStats streams[3];
  bool passes = false;
  std::string misses;  // which limits the rung missed, for the report
};

double tail_ms(StreamKind kind, const StreamStats& s) {
  return percentile(s.latency_ms, kind == StreamKind::kSsnpBulk ? 90.0 : 99.0);
}

RungResult run_rung(int multiplier, double duration_s, std::uint64_t seed,
                    const Fixture& fixture,
                    const std::vector<PredictFn>& clients) {
  RungResult rung;
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < 3; ++s) {
    const double rate = kStreams[s] == StreamKind::kSsnpBulk
                            ? kBulkRate
                            : base_rate(kStreams[s]) * multiplier;
    rung.offered_rps += rate;
    threads.emplace_back([&, s, rate] {
      run_stream(kStreams[s], rate, start, duration_s,
                 seed * 1000003u + std::uint64_t(multiplier) * 16 + s,
                 fixture, clients[s], rung.streams[s]);
    });
  }
  for (std::thread& t : threads) t.join();
  const double limits[] = {kSsnpP99LimitMs, kHttpP99LimitMs, kBulkP90LimitMs};
  rung.passes = true;
  for (std::size_t s = 0; s < 3; ++s) {
    const StreamStats& st = rung.streams[s];
    const bool ok = st.failed == 0 && st.unsent == 0 &&
                    tail_ms(kStreams[s], st) <= limits[s] &&
                    !lag_grows(st.lag_ms);
    if (!ok) {
      char why[160];
      std::snprintf(why, sizeof(why), " %s(tail %.3f ms%s%s%s)",
                    stream_name(kStreams[s]), tail_ms(kStreams[s], st),
                    st.failed ? ", failed" : "", st.unsent ? ", unsent" : "",
                    lag_grows(st.lag_ms) ? ", lag grows" : "");
      rung.misses += why;
    }
    rung.passes = rung.passes && ok;
  }
  return rung;
}

struct MixedLoad {
  std::vector<double> small_rps;  // correct small completions per window
  std::vector<double> bulk_ms;    // bulk latencies under the small load
};

/// Closed loop on all three connections for `duration_s`: the two
/// small-request streams send back to back while the bulk stream keeps a
/// whole-netlist request in flight. Small requests therefore share the
/// server with a bulk classify at all times, and bulk requests with the
/// small-request traffic. Small completions are counted per
/// kCapacityWindowS window; every bulk latency is kept.
MixedLoad run_mixed_load(double duration_s, std::uint64_t seed,
                         const Fixture& fixture,
                         const std::vector<PredictFn>& clients,
                         RunResult& result) {
  std::uint64_t sent[3] = {};
  std::uint64_t ok[3] = {};
  const std::size_t windows =
      std::max<std::size_t>(1, std::size_t(duration_s / kCapacityWindowS));
  std::vector<std::uint64_t> done[2] = {std::vector<std::uint64_t>(windows),
                                        std::vector<std::uint64_t>(windows)};
  MixedLoad out;
  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(duration_s));
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < 2; ++s) {
    threads.emplace_back([&, s] {
      ssresf::util::Rng rng(seed * 1000003u + 7 + s);
      Rows window;
      while (Clock::now() < deadline) {
        const std::size_t count = 1 + rng.below(kMaxSmallRows);
        const std::size_t first = rng.below(fixture.rows.size() - count + 1);
        window.assign(fixture.rows.begin() + std::ptrdiff_t(first),
                      fixture.rows.begin() + std::ptrdiff_t(first + count));
        ++sent[s];
        bool correct = false;
        try {
          correct = response_matches(clients[s](window), fixture, first, count);
        } catch (const std::exception&) {
        }
        const auto w = std::size_t(seconds_since(start) / kCapacityWindowS);
        if (correct) {
          ++ok[s];
          if (w < windows) ++done[s][w];
        }
      }
    });
  }
  threads.emplace_back([&] {
    while (Clock::now() < deadline) {
      const Clock::time_point t0 = Clock::now();
      ++sent[2];
      try {
        ok[2] += response_matches(clients[2](fixture.rows), fixture, 0,
                                  fixture.rows.size())
                     ? 1
                     : 0;
      } catch (const std::exception&) {
      }
      out.bulk_ms.push_back(seconds_since(t0) * 1e3);
    }
  });
  for (std::thread& t : threads) t.join();
  for (std::size_t s = 0; s < 3; ++s) {
    result.attempted += sent[s];
    result.failed += sent[s] - ok[s];
  }
  for (std::size_t w = 0; w < windows; ++w) {
    out.small_rps.push_back(double(done[0][w] + done[1][w]) / kCapacityWindowS);
  }
  return out;
}

/// Trains and publishes the seed's scenario-e2e model on the bit-parallel
/// engine, then extracts the whole-netlist feature rows and their labels.
Fixture build_fixture(const Options& options, const core::ScenarioSpec& spec,
                      const radiation::SoftErrorDatabase& db,
                      const std::string& models_dir, bool traced,
                      SessionOutcome& outcome) {
  outcome = run_session(options, spec, db, models_dir, traced);
  Fixture fixture;
  fixture.alias = spec.name;
  const auto bundle = serve::ModelRegistry::load_file(
      models_dir + "/" + fixture.alias + ".ssmd");
  fixture.digest = bundle->config_digest;
  const soc::SocModel model = spec.build_model();
  const core::FeatureExtractor extractor(model.netlist);
  for (const netlist::CellId id : model.netlist.all_cells()) {
    const netlist::CellKind kind = model.netlist.cell(id).kind;
    if (kind == netlist::CellKind::kConst0 ||
        kind == netlist::CellKind::kConst1) {
      continue;
    }
    fixture.rows.push_back(extractor.extract(id));
  }
  Span span("ml.classify");
  fixture.expected.reserve(fixture.rows.size());
  for (const auto& row : fixture.rows) {
    fixture.expected.push_back(core::bundle_classify(*bundle, row));
  }
  return fixture;
}

std::unique_ptr<serve::PredictServer> start_server(const std::string& dir) {
  serve::PredictServerOptions so;
  so.models_dir = dir;
  so.ssnp_port = 0;
  so.http_port = 0;
  so.reload_interval_seconds = 0;  // no hot reload during a measurement
  auto server = std::make_unique<serve::PredictServer>(so);
  server->start();
  return server;
}

net::PredictRequestMsg make_request(const Fixture& f, std::size_t first,
                                    std::size_t count) {
  net::PredictRequestMsg req;
  req.alias = f.alias;
  req.config_digest = f.digest;
  req.rows.assign(f.rows.begin() + std::ptrdiff_t(first),
                  f.rows.begin() + std::ptrdiff_t(first + count));
  req.num_rows = count;
  req.num_features = f.rows.front().size();
  return req;
}

/// In-process probes of the request core and the predict codec, for the
/// per-layer split of client latency into handling and transport.
void probe_in_process(serve::PredictServer& server, const Fixture& fixture,
                      std::uint64_t seed, RunResult& result) {
  ssresf::util::Rng rng(seed ^ 0x5eedull);
  std::vector<double> small_ms;
  for (int i = 0; i < 200; ++i) {
    const std::size_t count = 1 + rng.below(kMaxSmallRows);
    const std::size_t first = rng.below(fixture.rows.size() - count + 1);
    const net::PredictRequestMsg req = make_request(fixture, first, count);
    const Clock::time_point t0 = Clock::now();
    {
      Span span("serve.handle_small");
      (void)server.handle_batch(req);
    }
    small_ms.push_back(seconds_since(t0) * 1e3);
  }
  const net::PredictRequestMsg bulk =
      make_request(fixture, 0, fixture.rows.size());
  std::vector<double> bulk_ms;
  std::vector<double> codec_ms;
  for (int i = 0; i < 5; ++i) {
    Clock::time_point t0 = Clock::now();
    net::PredictResponseMsg response;
    {
      Span span("serve.handle_bulk");
      response = server.handle_batch(bulk);
    }
    bulk_ms.push_back(seconds_since(t0) * 1e3);
    t0 = Clock::now();
    {
      Span span("net.predict_codec");
      const auto req_bytes = net::encode_payload(bulk);
      ssresf::util::ByteReader req_in(req_bytes);
      const net::PredictRequestMsg decoded = net::PredictRequestMsg::decode(req_in);
      const auto resp_bytes = net::encode_payload(response);
      ssresf::util::ByteReader resp_in(resp_bytes);
      const net::PredictResponseMsg back = net::PredictResponseMsg::decode(resp_in);
      result.attempted += 1;
      if (decoded.num_rows != bulk.num_rows || back.labels != response.labels) {
        result.failed += 1;
      }
    }
    codec_ms.push_back(seconds_since(t0) * 1e3);
  }
  result.metrics.set("serve.handle_small_ms", median(small_ms), "ms");
  result.metrics.set("serve.handle_bulk_ms", median(bulk_ms), "ms");
  result.metrics.set("net.predict_codec_ms", median(codec_ms), "ms");
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

/// The open-loop ladder of the traced run: each rung's operations into the
/// tallies, the reference-rung latencies and max_rps into the per-layer
/// metrics, and a pass/fail line per rung into the notes.
void report_ladder(const std::vector<RungResult>& rungs, RunResult& result) {
  double max_rps = 0.0;
  for (const RungResult& rung : rungs) {
    if (!rung.passes) break;
    max_rps = rung.offered_rps;
  }
  std::uint64_t sent[3] = {};
  std::uint64_t ok[3] = {};
  std::string ladder = "ladder:";
  for (const RungResult& rung : rungs) {
    ladder += " " + std::to_string(int(rung.offered_rps)) +
              (rung.passes ? "/pass" : "/fail" + rung.misses);
    for (std::size_t s = 0; s < 3; ++s) {
      const StreamStats& st = rung.streams[s];
      sent[s] += st.sent;
      ok[s] += st.ok;
      result.attempted += st.sent;
      result.failed += st.failed;
      if (!st.first_error.empty()) {
        result.notes.push_back(std::string(stream_name(kStreams[s])) +
                               " x" + std::to_string(int(rung.offered_rps)) +
                               ": " + st.first_error);
      }
    }
  }
  result.notes.push_back(ladder + "; max_rps " + fmt(max_rps) + " 1/s");

  const RungResult& ref = rungs.front();
  const StreamStats& rs = ref.streams[0];
  const StreamStats& rh = ref.streams[1];
  const StreamStats& rb = ref.streams[2];
  std::vector<double> ref_lag;
  for (const StreamStats& st : ref.streams) {
    ref_lag.insert(ref_lag.end(), st.lag_ms.begin(), st.lag_ms.end());
  }
  result.metrics.set("serve.ssnp_p50_ms", median(rs.latency_ms), "ms");
  result.metrics.set("serve.ssnp_p99_ms", percentile(rs.latency_ms, 99), "ms");
  result.metrics.set("serve.http_p50_ms", median(rh.latency_ms), "ms");
  result.metrics.set("serve.http_p99_ms", percentile(rh.latency_ms, 99), "ms");
  result.metrics.set("serve.bulk_p50_ms", median(rb.latency_ms), "ms");
  result.metrics.set("serve.bulk_p90_ms", percentile(rb.latency_ms, 90), "ms");
  result.metrics.set("serve.max_rps", max_rps, "1/s");
  result.metrics.set("serve.generator_lag_ms", percentile(ref_lag, 99), "ms");
  for (std::size_t s = 0; s < 3; ++s) {
    const std::string name = stream_name(kStreams[s]);
    result.metrics.set("serve." + name + "_sent", double(sent[s]), "count");
    result.metrics.set("serve." + name + "_ok", double(ok[s]), "count");
  }
}

}  // namespace

int serve_self_test(const Options& options) {
  const auto db = radiation::SoftErrorDatabase::default_database();
  // The served model is the same for every seed (ML seed pinned with the
  // campaign), so the seed varies the traffic only.
  const core::ScenarioSpec spec = core::ScenarioSpec::parse(
      scenario_yaml(Shape::kE2e, "bit-parallel", kCampaignSeed));
  const std::string dir = scratch_dir(options, "selftest-models");
  SessionOutcome outcome;
  const Fixture fixture = build_fixture(options, spec, db, dir, false, outcome);
  const auto server = start_server(dir);
  serve::PredictClient client("127.0.0.1", server->ssnp_port());
  constexpr std::size_t kFirst = 5;
  constexpr std::size_t kCount = 16;
  const Rows rows(fixture.rows.begin() + kFirst,
                  fixture.rows.begin() + kFirst + kCount);
  const serve::PredictResult answer =
      client.predict(fixture.alias, fixture.digest, rows);
  int misses = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("self-test: serve oracle %s: %s\n", what, ok ? "ok" : "FAILED");
    misses += ok ? 0 : 1;
  };
  expect(response_matches(answer, fixture, kFirst, kCount),
         "accepts the unaltered reference");
  Fixture altered = fixture;
  altered.expected[kFirst + 3] = -altered.expected[kFirst + 3];
  expect(!response_matches(answer, altered, kFirst, kCount),
         "fires on one flipped reference label");
  altered = fixture;
  altered.alias += "-other";
  expect(!response_matches(answer, altered, kFirst, kCount),
         "fires on a different reference alias");
  altered = fixture;
  altered.digest ^= 1;
  expect(!response_matches(answer, altered, kFirst, kCount),
         "fires on a different reference model digest");
  server->stop();
  remove_tree(dir);
  return misses;
}

RunResult run_serve_mixed(const Options& options) {
  RunResult result;
  const auto db = radiation::SoftErrorDatabase::default_database();
  // The served model is the same for every seed (ML seed pinned with the
  // campaign), so the seed varies the traffic only.
  const core::ScenarioSpec spec = core::ScenarioSpec::parse(
      scenario_yaml(Shape::kE2e, "bit-parallel", kCampaignSeed));

  // --- untimed fixture (traced in the traced run) ---------------------------
  double fixture_untraced_s = 0.0;
  if (options.trace) {
    const std::string dir = scratch_dir(options, "models-reference");
    SessionOutcome reference;
    const Clock::time_point t0 = Clock::now();
    (void)build_fixture(options, spec, db, dir, false, reference);
    fixture_untraced_s = seconds_since(t0);
    remove_tree(dir);
    Tracer::instance().enable();
  }
  const Clock::time_point traced_start = Clock::now();
  std::optional<Span> root;
  root.emplace("run");
  const std::string models_dir = scratch_dir(options, "models");
  SessionOutcome outcome;
  Clock::time_point t0 = Clock::now();
  const Fixture fixture =
      build_fixture(options, spec, db, models_dir, options.trace, outcome);
  const double fixture_s = seconds_since(t0);
  const std::string bundle_path = models_dir + "/" + fixture.alias + ".ssmd";
  if (options.trace) {
    for (const auto& [name, totals] : Tracer::instance().totals()) {
      if (name == "ml.classify") {
        result.metrics.set("ml.classify_rows_per_s",
                           double(fixture.rows.size()) / totals.total_s, "1/s");
      }
    }
  }

  // --- set-up: registry load + listener bind, on fresh copies of the bundle
  // (the process-wide bundle cache is keyed by path) ------------------------
  std::vector<std::string> copies;
  for (int i = 0; i <= kSetupRepeats; ++i) {
    copies.push_back(scratch_dir(options, "models-copy"));
    std::filesystem::copy_file(bundle_path,
                               copies.back() + "/" + fixture.alias + ".ssmd");
  }
  // peak_rss_mb covers serving only: the count restarts after the fixture.
  if (!reset_peak_rss()) {
    result.notes.push_back(
        "peak RSS count could not be reset: peak_rss_mb includes the fixture");
  }
  // The serving instance is the first set-up sample; the other set-ups run
  // after the traffic, so their threads and allocations do not precede it.
  std::vector<double> setups;
  t0 = Clock::now();
  std::unique_ptr<serve::PredictServer> server = start_server(copies[0]);
  setups.push_back(seconds_since(t0));
  if (options.trace) {
    serve::ModelRegistry registry(copies.back());
    Span span("serve.registry_load");
    (void)registry.refresh();
  }
  result.settings["server_threads"] = "default (max(4, nproc))";
  result.settings["connections"] = "3 (ssnp small, http small, ssnp bulk)";
  result.settings["generator_threads"] = "3";
  result.settings["engine"] = "bit-parallel (fixture training only)";
  result.settings["threads"] = "2 (fixture training only)";
  result.settings["bulk_rows"] = std::to_string(fixture.rows.size());
  if (options.trace) {
    char rates[96];
    std::snprintf(rates, sizeof(rates),
                  "ssnp %.0f/s http %.0f/s x {1..256}, bulk %.0f/s on every "
                  "rung",
                  kSsnpRate, kHttpRate, kBulkRate);
    result.settings["ladder"] = rates;
    probe_in_process(*server, fixture, options.seed, result);
  }

  // --- traffic ---------------------------------------------------------------
  const std::string host = "127.0.0.1";
  serve::PredictClient ssnp(host, server->ssnp_port());
  serve::HttpPredictClient http(host, server->http_port());
  serve::PredictClient bulk(host, server->ssnp_port());
  const std::vector<PredictFn> clients = {
      [&](const Rows& r) { return ssnp.predict(fixture.alias, fixture.digest, r); },
      [&](const Rows& r) { return http.predict(fixture.alias, fixture.digest, r); },
      [&](const Rows& r) { return bulk.predict(fixture.alias, fixture.digest, r); },
  };
  // The mixed closed loop takes all of --seconds; in the traced run it
  // takes half and the open-loop ladder the other half.
  MixedLoad mixed;
  {
    Span span("serve.mixed");
    mixed = run_mixed_load((options.trace ? 0.5 : 1.0) * options.seconds,
                           options.seed, fixture, clients, result);
  }
  std::vector<RungResult> rungs;
  if (options.trace) {
    // The reference rung gets 40% of the ladder's time and the top rung 20%;
    // the rungs between share the other 40%.
    const double ladder_s = 0.5 * options.seconds;
    Span span("serve.ladder");
    for (std::size_t k = 0; k < kRungs; ++k) {
      const double share =
          k == 0 ? 0.4 : (k + 1 == kRungs ? 0.2 : 0.4 / double(kRungs - 2));
      rungs.push_back(
          run_rung(kLadder[k], share * ladder_s, options.seed, fixture, clients));
    }
  }
  root.reset();
  const double traced_wall = seconds_since(traced_start);
  const double rss_mb = peak_rss_mb();
  server.reset();
  for (int i = 1; i < kSetupRepeats; ++i) {
    t0 = Clock::now();
    server = start_server(copies[static_cast<std::size_t>(i)]);
    setups.push_back(seconds_since(t0));
    server.reset();
  }

  // Fingerprint and serving figures, printed in every run's report.
  result.fingerprint["ml.positive_labels"] = std::to_string(outcome.positive);
  result.fingerprint["records_digest"] = hex64(records_digest(outcome.records));
  result.fingerprint["model_digest"] = hex64(fixture.digest);
  result.fingerprint["ml.cv_accuracy_pct"] = fmt(outcome.cv_accuracy_pct);
  result.notes.push_back(
      "mixed load: small completions per " + fmt(kCapacityWindowS) +
      " s window p50 " + fmt(median(mixed.small_rps)) + " 1/s, p90 " +
      fmt(percentile(mixed.small_rps, 90)) + " 1/s (n=" +
      std::to_string(mixed.small_rps.size()) + "); bulk p50 " +
      fmt(median(mixed.bulk_ms)) + " ms, p90 " +
      fmt(percentile(mixed.bulk_ms, 90)) + " ms (n=" +
      std::to_string(mixed.bulk_ms.size()) + ")");
  result.notes.push_back("fixture (untimed): " + fmt(fixture_s) + " s");

  if (!options.trace) {
    result.metrics.set("setup_s", median(setups), "s");
    result.metrics.set("wall_s", median(mixed.bulk_ms) / 1e3, "s");
    result.metrics.set("rate_per_s", median(mixed.small_rps), "1/s");
    result.metrics.set("peak_rss_mb", rss_mb, "MB");
  } else {
    report_ladder(rungs, result);
    // Tracing overhead: the traced fixture against the untraced one.
    const double overhead = fixture_s - fixture_untraced_s;
    finish_layer_metrics(result, traced_wall, traced_wall - overhead);
  }
  for (const std::string& dir : copies) remove_tree(dir);
  remove_tree(models_dir);
  return result;
}

}  // namespace perfbench
