// Engine snapshot/restore semantics and the campaign execution model built
// on them: a restored checkpoint must continue bit-identically to an
// uninterrupted run (even after an injected fault perturbed the engine in
// between), and campaign results must not depend on thread count,
// checkpointing, or early exit.
#include <gtest/gtest.h>

#include <array>

#include "fi/campaign.h"
#include "fi/shard.h"
#include "netlist/builder.h"
#include "sim/event_sim.h"
#include "sim/levelized_sim.h"
#include "sim/testbench.h"
#include "soc/programs.h"
#include "soc/run.h"
#include "util/bytes.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace ssresf {
namespace {

using netlist::NetlistBuilder;
using sim::Engine;
using sim::EventSimulator;
using sim::LevelizedSimulator;
using sim::Logic;
using sim::NetId;
using sim::OutputTrace;
using sim::Testbench;
using sim::TestbenchConfig;

// A self-stimulating sequential design (twisted-ring counter with some
// combinational logic): needs only clk/rstn, so a testbench can run it from
// any checkpoint without replaying input stimulus.
struct RingDesign {
  netlist::Netlist netlist;
  NetId clk, rstn;
  std::vector<NetId> monitored;
  netlist::CellId ff0;
  NetId stage0;
};

RingDesign make_ring() {
  NetlistBuilder b("ring");
  RingDesign d;
  d.clk = b.input("clk");
  d.rstn = b.input("rstn");
  // 5-stage Johnson counter: the head recaptures the inverted tail, so the
  // state pattern oscillates forever (period 10) after reset.
  const NetId feedback = b.wire("fb");
  std::vector<NetId> qs(5);
  NetId prev = feedback;
  for (int i = 0; i < 5; ++i) {
    const auto ff = b.dffr(prev, d.clk, d.rstn, "s" + std::to_string(i));
    if (i == 0) {
      d.ff0 = ff.cell;
      d.stage0 = ff.q;
    }
    qs[static_cast<std::size_t>(i)] = ff.q;
    prev = ff.q;
  }
  b.drive(feedback, b.inv(qs[4]));
  // Combinational observers over the state: exercise AND/XOR/MUX cones.
  const NetId parity = b.xor2(b.xor2(qs[0], qs[2]), qs[4]);
  const NetId gated = b.and2(qs[1], b.inv(qs[3]));
  const NetId mux = b.mux2(qs[0], qs[4], parity);
  b.output(qs[4], "tail");
  b.output(parity, "parity");
  b.output(gated, "gated");
  b.output(mux, "mux");
  d.netlist = b.finish();
  for (const auto& [net, name] : d.netlist.primary_outputs()) {
    d.monitored.push_back(net);
  }
  return d;
}

TestbenchConfig ring_tb_config(const RingDesign& d) {
  TestbenchConfig cfg;
  cfg.clk = d.clk;
  cfg.rstn = d.rstn;
  cfg.monitored = d.monitored;
  cfg.clock_period_ps = 1000;
  return cfg;
}

// snapshot -> inject faults -> restore -> re-run golden must equal a fresh
// uninterrupted golden run, on either engine.
template <typename Sim>
void check_snapshot_inject_restore() {
  const RingDesign d = make_ring();
  const TestbenchConfig cfg = ring_tb_config(d);
  constexpr int kWarm = 10;
  constexpr int kTail = 30;

  // Uninterrupted golden run.
  Sim fresh(d.netlist);
  Testbench fresh_tb(fresh, cfg);
  fresh_tb.reset();
  fresh_tb.run_cycles(kWarm - cfg.reset_cycles + kTail);
  const OutputTrace& golden = fresh_tb.trace();

  // Warm up a second engine to the checkpoint.
  Sim sim(d.netlist);
  Testbench warm_tb(sim, cfg);
  warm_tb.reset();
  warm_tb.run_cycles(kWarm - cfg.reset_cycles);
  const auto snapshot = sim.save_state();
  const OutputTrace prefix = warm_tb.trace();
  ASSERT_EQ(prefix.num_cycles(), static_cast<std::size_t>(kWarm));

  // Perturb the engine thoroughly: SET force, SEU deposit, extra cycles.
  {
    Testbench faulty_tb(sim, cfg);
    faulty_tb.resume_at(kWarm, prefix);
    faulty_tb.at(kWarm * 1000 + 100, [&](Engine& e) {
      e.force_net(d.stage0, Logic::L1);
      e.deposit_ff(d.ff0, Logic::X);
    });
    faulty_tb.run_cycles(7);
  }

  // Restore and re-run the tail cleanly: must match the fresh golden run.
  sim.restore_state(*snapshot);
  Testbench resumed_tb(sim, cfg);
  resumed_tb.resume_at(kWarm, prefix);
  resumed_tb.run_cycles(kTail);
  EXPECT_EQ(OutputTrace::first_mismatch(golden, resumed_tb.trace()),
            std::nullopt);
  EXPECT_EQ(resumed_tb.trace().num_cycles(), golden.num_cycles());
}

TEST(Checkpoint, EventEngineRestoreReproducesGolden) {
  check_snapshot_inject_restore<EventSimulator>();
}

TEST(Checkpoint, LevelizedEngineRestoreReproducesGolden) {
  check_snapshot_inject_restore<LevelizedSimulator>();
}

TEST(Checkpoint, SnapshotRestoresAcrossEngineInstances) {
  // A snapshot from one engine instance seeds a different instance over the
  // same netlist (how campaign workers consume the shared checkpoint).
  const RingDesign d = make_ring();
  const TestbenchConfig cfg = ring_tb_config(d);

  EventSimulator a(d.netlist);
  Testbench tb_a(a, cfg);
  tb_a.reset();
  tb_a.run_cycles(6);
  const auto snapshot = a.save_state();

  EventSimulator b(d.netlist);
  b.restore_state(*snapshot);
  Testbench tb_b(b, cfg);
  tb_b.resume_at(tb_a.cycles_run(), tb_a.trace());

  tb_a.run_cycles(20);
  tb_b.run_cycles(20);
  EXPECT_EQ(OutputTrace::first_mismatch(tb_a.trace(), tb_b.trace()),
            std::nullopt);
}

TEST(Checkpoint, RestoreRejectsForeignState) {
  const RingDesign d = make_ring();
  EventSimulator event_sim(d.netlist);
  LevelizedSimulator level_sim(d.netlist);
  const auto event_state = event_sim.save_state();
  const auto level_state = level_sim.save_state();
  EXPECT_THROW(event_sim.restore_state(*level_state), InvalidArgument);
  EXPECT_THROW(level_sim.restore_state(*event_state), InvalidArgument);
}

TEST(Testbench, EarlyExitStopsAfterConfirmationWindow) {
  const RingDesign d = make_ring();
  const TestbenchConfig cfg = ring_tb_config(d);

  EventSimulator golden_sim(d.netlist);
  Testbench golden_tb(golden_sim, cfg);
  golden_tb.reset();
  golden_tb.run_cycles(40);

  EventSimulator faulty_sim(d.netlist);
  Testbench faulty_tb(faulty_sim, cfg);
  faulty_tb.compare_against(&golden_tb.trace(), /*confirm_cycles=*/3);
  // A stuck-at on the first stage diverges the ring permanently.
  faulty_tb.at(12'000, [&](Engine& e) { e.force_net(d.stage0, Logic::L1); });
  faulty_tb.reset();
  faulty_tb.run_cycles(40);

  ASSERT_TRUE(faulty_tb.first_divergence().has_value());
  EXPECT_TRUE(faulty_tb.stopped_early());
  const std::size_t diverged = *faulty_tb.first_divergence();
  EXPECT_EQ(faulty_tb.trace().num_cycles(), diverged + 1 + 3);
  // The reported divergence matches a full-trace comparison.
  EXPECT_EQ(OutputTrace::first_mismatch(golden_tb.trace(), faulty_tb.trace()),
            diverged);
}

// --- campaign determinism ----------------------------------------------------

soc::SocModel small_soc() {
  soc::SocConfig cfg;
  cfg.mem_bytes = 16 * 1024;
  cfg.cpu_isa = "RV32I";
  cfg.bus = soc::BusProtocol::kAhb;
  cfg.bus_width_bits = 64;
  const soc::Workload w = soc::checksum_workload(8);
  const soc::Program programs[] = {soc::assemble(w.source)};
  return soc::build_soc(cfg, programs);
}

fi::CampaignConfig small_campaign(std::uint64_t seed = 17) {
  fi::CampaignConfig cfg;
  cfg.clustering.num_clusters = 5;
  cfg.sampling.fraction = 0.01;
  cfg.sampling.min_per_cluster = 4;
  cfg.sampling.max_per_cluster = 10;
  cfg.sampling.memory_macro_draws = 8;
  cfg.seed = seed;
  return cfg;
}

void expect_identical(const fi::CampaignResult& a, const fi::CampaignResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& ra = a.records[i];
    const auto& rb = b.records[i];
    EXPECT_EQ(ra.event.target.cell, rb.event.target.cell);
    EXPECT_EQ(ra.event.target.kind, rb.event.target.kind);
    EXPECT_EQ(ra.event.target.word, rb.event.target.word);
    EXPECT_EQ(ra.event.target.bit, rb.event.target.bit);
    EXPECT_EQ(ra.event.time_ps, rb.event.time_ps);
    EXPECT_EQ(ra.event.set_width_ps, rb.event.set_width_ps);
    EXPECT_EQ(ra.cluster, rb.cluster);
    EXPECT_EQ(ra.module_class, rb.module_class);
    EXPECT_EQ(ra.soft_error, rb.soft_error);
    EXPECT_EQ(ra.first_mismatch_cycle, rb.first_mismatch_cycle);
  }
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (std::size_t k = 0; k < a.clusters.size(); ++k) {
    EXPECT_EQ(a.clusters[k].samples, b.clusters[k].samples);
    EXPECT_EQ(a.clusters[k].errors, b.clusters[k].errors);
    EXPECT_DOUBLE_EQ(a.clusters[k].ser_percent, b.clusters[k].ser_percent);
  }
  for (std::size_t c = 0; c < a.per_class.size(); ++c) {
    EXPECT_EQ(a.per_class[c].samples, b.per_class[c].samples);
    EXPECT_EQ(a.per_class[c].errors, b.per_class[c].errors);
    EXPECT_DOUBLE_EQ(a.per_class[c].ser_percent, b.per_class[c].ser_percent);
  }
  EXPECT_DOUBLE_EQ(a.chip_ser_percent, b.chip_ser_percent);
}

TEST(CampaignDeterminism, OneVsFourThreads) {
  const auto model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  auto cfg1 = small_campaign();
  cfg1.threads = 1;
  auto cfg4 = small_campaign();
  cfg4.threads = 4;
  expect_identical(fi::run_campaign(model, cfg1, db),
                   fi::run_campaign(model, cfg4, db));
}

TEST(CampaignDeterminism, CheckpointOnVsOff) {
  const auto model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  auto on = small_campaign(23);
  on.use_checkpoint = true;
  auto off = small_campaign(23);
  off.use_checkpoint = false;
  expect_identical(fi::run_campaign(model, on, db),
                   fi::run_campaign(model, off, db));
}

TEST(CampaignDeterminism, EarlyExitOnVsOff) {
  const auto model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  auto on = small_campaign(29);
  on.early_exit = true;
  auto off = small_campaign(29);
  off.early_exit = false;
  expect_identical(fi::run_campaign(model, on, db),
                   fi::run_campaign(model, off, db));
}

TEST(CampaignDeterminism, MaskedExitOnVsOff) {
  // Reconvergence detection must be a pure optimisation: stopping a run once
  // its state equals the golden checkpoint cannot change any record.
  const auto model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  auto on = small_campaign(37);
  on.masked_exit = true;
  auto off = small_campaign(37);
  off.masked_exit = false;
  expect_identical(fi::run_campaign(model, on, db),
                   fi::run_campaign(model, off, db));
}

TEST(CampaignDeterminism, FullFastPathVsFullSlowPath) {
  // Every optimisation on (threads, checkpoint, early exit, masked exit)
  // against the serial seed execution model.
  const auto model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  auto fast = small_campaign(43);
  fast.threads = 4;
  auto slow = small_campaign(43);
  slow.threads = 1;
  slow.use_checkpoint = false;
  slow.early_exit = false;
  slow.masked_exit = false;
  expect_identical(fi::run_campaign(model, fast, db),
                   fi::run_campaign(model, slow, db));
}

// --- event-engine byte identity ----------------------------------------------
//
// Constants recorded from the binary-heap event scheduler the time wheel
// replaced. Any scheduler change that reorders, drops or duplicates an
// applied event moves one of them.

std::uint64_t records_digest(const fi::CampaignResult& result) {
  std::vector<fi::ShardRecord> tagged;
  tagged.reserve(result.records.size());
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    tagged.push_back({i, result.records[i]});
  }
  util::ByteWriter out;
  fi::encode_records(out, tagged);
  return util::fnv1a(out.data());
}

fi::CampaignConfig identity_campaign(bool fast_path) {
  fi::CampaignConfig cfg = small_campaign(53);
  cfg.engine = sim::EngineKind::kEvent;
  cfg.threads = 2;
  cfg.use_checkpoint = fast_path;
  cfg.early_exit = fast_path;
  cfg.masked_exit = fast_path;
  return cfg;
}

TEST(EventEngineIdentity, CampaignRecordsMatchTheRecordedDigest) {
  const auto model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  for (const bool fast_path : {true, false}) {
    SCOPED_TRACE(fast_path ? "checkpoint + early + masked exit"
                           : "full-length runs");
    const fi::CampaignResult result =
        fi::run_campaign(model, identity_campaign(fast_path), db);
    // The plan must exercise every fault model the event engine injects.
    std::array<int, 3> kinds{};
    int soft_errors = 0;
    for (const fi::InjectionRecord& r : result.records) {
      ++kinds[static_cast<std::size_t>(r.event.target.kind)];
      soft_errors += r.soft_error ? 1 : 0;
    }
    EXPECT_GT(kinds[static_cast<std::size_t>(radiation::FaultKind::kSeu)], 0);
    EXPECT_GT(kinds[static_cast<std::size_t>(radiation::FaultKind::kSet)], 0);
    EXPECT_GT(kinds[static_cast<std::size_t>(radiation::FaultKind::kMemBit)],
              0);
    EXPECT_GT(soft_errors, 0);
    EXPECT_EQ(result.records.size(), 42u);
    EXPECT_EQ(records_digest(result), 0x5d132c4a1654a46ull);
  }
}

TEST(EventEngineIdentity, GoldenRunAppliesTheRecordedEventCount) {
  const auto model = small_soc();
  EventSimulator engine(model.netlist);
  TestbenchConfig cfg;
  cfg.clk = model.clk;
  cfg.rstn = model.rstn;
  cfg.monitored = model.monitored;
  cfg.clock_period_ps = soc::pick_clock_period(model.netlist);
  Testbench tb(engine, cfg);
  tb.reset();
  tb.run_cycles(60);
  EXPECT_EQ(engine.events_processed(), 102598u);
}

TEST(ThreadPool, RunsJobsAndPropagatesExceptions) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum += i; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 64 * 63 / 2);

  auto failing = pool.submit([] { throw ssresf::Error("boom"); });
  EXPECT_THROW(failing.get(), ssresf::Error);
}

TEST(Rng, StreamDerivationIsOrderIndependent) {
  const auto a = util::Rng::from_stream(42, 7).next();
  util::Rng scratch(9001);
  scratch.next();
  const auto b = util::Rng::from_stream(42, 7).next();
  EXPECT_EQ(a, b);
  // Neighbouring streams decorrelate.
  EXPECT_NE(util::Rng::from_stream(42, 7).next(),
            util::Rng::from_stream(42, 8).next());
  EXPECT_NE(util::Rng::from_stream(42, 7).next(),
            util::Rng::from_stream(43, 7).next());
}

}  // namespace
}  // namespace ssresf
