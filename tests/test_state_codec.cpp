// The portable checkpoint format: Engine::serialize_state /
// deserialize_state and the framed, optionally RLE-compressed container in
// sim/state_codec.h. The contract under test is round-trip fidelity — for
// every engine kind and both codecs, a decoded snapshot satisfies
// state_matches against the original, restores into a fresh engine, and
// that engine's future is bit-identical to the donor's.
#include <gtest/gtest.h>

#include <utility>

#include "sim/bit_parallel_sim.h"
#include "sim/event_sim.h"
#include "sim/levelized_sim.h"
#include "sim/state_codec.h"
#include "sim/testbench.h"
#include "soc/programs.h"
#include "soc/run.h"
#include "util/bytes.h"
#include "util/error.h"
#include "util/rng.h"

namespace ssresf {
namespace {

using netlist::Logic;
using sim::Engine;
using sim::EngineKind;
using sim::StateCodec;

// --- byte-stream primitives --------------------------------------------------

TEST(Bytes, VarintRoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,    1,    127,        128,
                                  300,  16383, 16384,     (1ull << 32) - 1,
                                  1ull << 32, ~std::uint64_t{0}};
  util::ByteWriter w;
  for (const std::uint64_t v : values) w.varint(v);
  util::ByteReader r(w.data());
  for (const std::uint64_t v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, Fixed64AndVectorsRoundTrip) {
  util::ByteWriter w;
  w.fixed64(0x0123456789abcdefull);
  w.u64_vec({0, ~std::uint64_t{0}, 42});
  w.byte_vec(std::vector<std::uint8_t>{1, 2, 3});
  util::ByteReader r(w.data());
  EXPECT_EQ(r.fixed64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.u64_vec(), (std::vector<std::uint64_t>{0, ~std::uint64_t{0}, 42}));
  EXPECT_EQ(r.byte_vec<std::uint8_t>(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, ReaderThrowsOnTruncation) {
  util::ByteWriter w;
  w.varint(1000);
  std::vector<std::uint8_t> data = w.take();
  data.pop_back();
  util::ByteReader r(data);
  EXPECT_THROW((void)r.varint(), Error);
  util::ByteReader r2(data);
  EXPECT_THROW((void)r2.fixed64(), Error);
}

// --- RLE ---------------------------------------------------------------------

TEST(Rle, RoundTripsRandomBuffers) {
  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint8_t> data(rng.below(2000));
    for (auto& b : data) {
      // Mix long runs with noise: both RLE paths get exercised.
      b = rng.chance(0.7) ? 0 : static_cast<std::uint8_t>(rng.below(256));
    }
    const auto compressed = sim::rle_compress(data);
    EXPECT_EQ(sim::rle_decompress(compressed, data.size()), data);
  }
}

TEST(Rle, CompressesRuns) {
  const std::vector<std::uint8_t> zeros(10000, 0);
  const auto compressed = sim::rle_compress(zeros);
  EXPECT_LT(compressed.size(), zeros.size() / 50);
  EXPECT_EQ(sim::rle_decompress(compressed, zeros.size()), zeros);
}

TEST(Rle, HandlesEmptyAndIncompressible) {
  EXPECT_TRUE(sim::rle_compress({}).empty());
  EXPECT_TRUE(sim::rle_decompress({}, 0).empty());
  std::vector<std::uint8_t> ramp(300);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<std::uint8_t>(i);
  }
  const auto compressed = sim::rle_compress(ramp);
  EXPECT_EQ(sim::rle_decompress(compressed, ramp.size()), ramp);
}

TEST(Rle, DecompressValidatesDeclaredSize) {
  const std::vector<std::uint8_t> data(100, 7);
  const auto compressed = sim::rle_compress(data);
  EXPECT_THROW((void)sim::rle_decompress(compressed, 99), InvalidArgument);
  EXPECT_THROW((void)sim::rle_decompress(compressed, 101), InvalidArgument);
  // Truncated stream.
  auto cut = compressed;
  cut.pop_back();
  EXPECT_THROW((void)sim::rle_decompress(cut, 100), InvalidArgument);
}

// --- engine snapshot round trips --------------------------------------------

soc::SocModel codec_soc() {
  soc::SocConfig cfg;
  cfg.name = "codec-soc";
  cfg.mem_bytes = 4 * 1024;
  cfg.cpu_isa = "RV32I";
  const soc::Workload w = soc::checksum_workload(6);
  const soc::Program programs[] = {soc::assemble(w.source)};
  return soc::build_soc(cfg, programs);
}

/// Round-trips `state` through the codec and verifies semantic identity on
/// `engine` (which currently holds exactly that state).
void expect_roundtrip(const Engine& engine, const sim::EngineState& state,
                      StateCodec codec) {
  const std::vector<std::uint8_t> blob = sim::encode_state(engine, state, codec);
  const std::unique_ptr<sim::EngineState> decoded =
      sim::decode_state(engine, blob);
  EXPECT_TRUE(engine.state_matches(*decoded));
}

/// Full distributed-checkpoint scenario for one engine kind: simulate,
/// snapshot at several depths, ship each snapshot through the codec,
/// restore into a *fresh* engine, and require the clone's future to be
/// bit-identical to the donor's.
void roundtrip_and_continue(EngineKind kind, StateCodec codec) {
  const soc::SocModel model = codec_soc();
  const std::uint64_t period = soc::pick_clock_period(model.netlist);

  sim::TestbenchConfig tb_config;
  tb_config.clk = model.clk;
  tb_config.rstn = model.rstn;
  tb_config.monitored = model.monitored;
  tb_config.clock_period_ps = period;

  const auto donor = sim::make_engine(kind, model.netlist);
  sim::Testbench tb(*donor, tb_config);
  tb.reset();

  for (const int cycles : {3, 17, 40}) {
    tb.run_cycles(cycles);
    const auto snapshot = donor->save_state();
    const std::vector<std::uint8_t> blob =
        sim::encode_state(*donor, *snapshot, codec);
    const auto clone = sim::make_engine(kind, model.netlist);
    clone->restore_state(*sim::decode_state(*clone, blob));
    EXPECT_TRUE(clone->state_matches(*snapshot));
    EXPECT_TRUE(donor->state_matches(*snapshot));
    EXPECT_EQ(clone->now(), donor->now());

    // Drive both engines with the identical stimulus and compare sampled
    // outputs: the decoded checkpoint must seed an indistinguishable future.
    for (int c = 0; c < 12; ++c) {
      const std::uint64_t start = donor->now();
      for (Engine* e : {donor.get(), clone.get()}) {
        e->advance_to(start + period / 2);
        e->set_input(model.clk, Logic::L1);
        e->advance_to(start + period);
        e->set_input(model.clk, Logic::L0);
      }
      for (const netlist::NetId net : model.monitored) {
        ASSERT_EQ(donor->value(net), clone->value(net));
      }
    }
    // Re-sync the testbench-side donor to keep using tb for the next depth:
    // the manual clocking above advanced the donor outside the testbench,
    // so fold those cycles back in by restoring the snapshot.
    donor->restore_state(*snapshot);
  }
}

TEST(StateCodec, EventEngineRoundTripsRaw) {
  roundtrip_and_continue(EngineKind::kEvent, StateCodec::kRaw);
}
TEST(StateCodec, EventEngineRoundTripsRle) {
  roundtrip_and_continue(EngineKind::kEvent, StateCodec::kRle);
}
TEST(StateCodec, LevelizedEngineRoundTripsRaw) {
  roundtrip_and_continue(EngineKind::kLevelized, StateCodec::kRaw);
}
TEST(StateCodec, LevelizedEngineRoundTripsRle) {
  roundtrip_and_continue(EngineKind::kLevelized, StateCodec::kRle);
}
TEST(StateCodec, BitParallelEngineRoundTripsRaw) {
  roundtrip_and_continue(EngineKind::kBitParallel, StateCodec::kRaw);
}
TEST(StateCodec, BitParallelEngineRoundTripsRle) {
  roundtrip_and_continue(EngineKind::kBitParallel, StateCodec::kRle);
}

// --- event-engine scheduling window -------------------------------------------

/// A live event of an event-engine payload: (time_ps, net, value).
struct PayloadEvent {
  std::uint64_t time;
  std::uint64_t net;
  std::uint8_t value;
};

/// Splits an EventSimulator::serialize_state payload into the bytes before
/// its live-event list and the list itself.
std::pair<std::vector<std::uint8_t>, std::vector<PayloadEvent>> split_payload(
    const std::vector<std::uint8_t>& payload) {
  util::ByteReader r(payload);
  (void)r.varint();  // now
  (void)r.varint();  // events processed
  for (int v = 0; v < 4; ++v) (void)r.byte_vec<std::uint8_t>();
  const std::uint64_t num_mems = r.varint();
  for (std::uint64_t m = 0; m < num_mems; ++m) (void)r.u64_vec();
  const std::size_t head = payload.size() - r.remaining();
  std::vector<PayloadEvent> events(r.varint());
  for (PayloadEvent& e : events) {
    e.time = r.varint();
    e.net = r.varint();
    e.value = r.u8();
  }
  EXPECT_TRUE(r.at_end());
  return {std::vector<std::uint8_t>(payload.begin(),
                                    payload.begin() +
                                        static_cast<std::ptrdiff_t>(head)),
          events};
}

std::vector<std::uint8_t> event_payload(const Engine& engine) {
  util::ByteWriter w;
  engine.serialize_state(*engine.save_state(), w);
  return w.take();
}

std::vector<std::uint8_t> with_events(std::vector<std::uint8_t> head,
                                      const std::vector<PayloadEvent>& events) {
  util::ByteWriter w;
  w.varint(events.size());
  for (const PayloadEvent& e : events) {
    w.varint(e.time);
    w.varint(e.net);
    w.u8(e.value);
  }
  head.insert(head.end(), w.data().begin(), w.data().end());
  return head;
}

TEST(StateCodec, EventDecoderRejectsEventsOutsideTheSchedulingWindow) {
  const soc::SocModel model = codec_soc();
  sim::EventSimulator engine(model.netlist);
  engine.advance_to(1000);  // quiescent: no live events at now = 1000
  const auto quiescent = split_payload(event_payload(engine));
  ASSERT_TRUE(quiescent.second.empty());
  const std::vector<std::uint8_t>& head = quiescent.first;
  const auto decode = [&](const std::vector<PayloadEvent>& events) {
    const std::vector<std::uint8_t> payload = with_events(head, events);
    util::ByteReader r(payload);
    return engine.deserialize_state(r);
  };
  constexpr auto L1 = static_cast<std::uint8_t>(Logic::L1);

  // The window is [now, now + 64): both ends of it decode and restore.
  const auto edges = decode({{1000, 3, L1}, {1063, 4, L1}});
  sim::EventSimulator clone(model.netlist);
  clone.restore_state(*edges);
  EXPECT_EQ(clone.now(), 1000u);
  EXPECT_EQ(split_payload(event_payload(clone)).second.size(), 2u);

  // Before now, or a full wheel span ahead: no bucket can hold it.
  EXPECT_THROW((void)decode({{999, 3, L1}}), InvalidArgument);
  EXPECT_THROW((void)decode({{1064, 3, L1}}), InvalidArgument);
  EXPECT_THROW((void)decode({{1000, 3, L1}, {~std::uint64_t{0}, 4, L1}}),
               InvalidArgument);
  // Two live transitions on one net: the inertial model keeps at most one.
  EXPECT_THROW((void)decode({{1010, 3, L1}, {1020, 3, L1}}), InvalidArgument);
  // Out of application order.
  EXPECT_THROW((void)decode({{1020, 3, L1}, {1010, 4, L1}}), InvalidArgument);
  // Net out of range and a value outside the four logic levels.
  EXPECT_THROW((void)decode({{1010, model.netlist.num_nets(), L1}}),
               InvalidArgument);
  EXPECT_THROW((void)decode({{1010, 3, 4}}), InvalidArgument);
}

TEST(StateCodec, EventEngineMidSettleSnapshotContinuesIdentically) {
  // Snapshots taken while a clock edge is still settling carry many live
  // events, several at the same picosecond. Their order within a time is
  // part of the state: a decoded clone must match and evolve identically.
  const soc::SocModel model = codec_soc();
  const std::uint64_t period = soc::pick_clock_period(model.netlist);
  sim::TestbenchConfig tb_config;
  tb_config.clk = model.clk;
  tb_config.rstn = model.rstn;
  tb_config.monitored = model.monitored;
  tb_config.clock_period_ps = period;

  for (const std::uint64_t settle : {std::uint64_t{0}, std::uint64_t{45}}) {
    SCOPED_TRACE("snapshot " + std::to_string(settle) + " ps after the edge");
    sim::EventSimulator donor(model.netlist);
    sim::Testbench tb(donor, tb_config);
    tb.reset();
    tb.run_cycles(10);
    const std::uint64_t edge = donor.now() + period / 2;
    donor.advance_to(edge);
    donor.set_input(model.clk, Logic::L1);
    donor.advance_to(edge + settle);

    const auto snapshot = donor.save_state();
    const std::vector<PayloadEvent> live =
        split_payload(event_payload(donor)).second;
    ASSERT_GT(live.size(), 2u);
    bool same_time = false;
    for (std::size_t i = 1; i < live.size(); ++i) {
      ASSERT_GE(live[i].time, live[i - 1].time);
      same_time = same_time || live[i].time == live[i - 1].time;
    }
    EXPECT_TRUE(same_time);

    for (const StateCodec codec : {StateCodec::kRaw, StateCodec::kRle}) {
      sim::EventSimulator clone(model.netlist);
      clone.restore_state(
          *sim::decode_state(clone, sim::encode_state(donor, *snapshot, codec)));
      ASSERT_TRUE(clone.state_matches(*snapshot));
      ASSERT_TRUE(donor.state_matches(*snapshot));

      // Finish the cycle, then clock both for 12 more, comparing the
      // monitored outputs at every half cycle.
      for (int c = 0; c < 13; ++c) {
        const std::uint64_t start = edge + static_cast<std::uint64_t>(c) * period;
        for (sim::EventSimulator* e : {&donor, &clone}) {
          if (c > 0) {
            e->advance_to(start);
            e->set_input(model.clk, Logic::L1);
          }
          e->advance_to(start + period / 2);
          e->set_input(model.clk, Logic::L0);
        }
        for (const netlist::NetId net : model.monitored) {
          ASSERT_EQ(donor.value(net), clone.value(net)) << "cycle " << c;
        }
      }
      EXPECT_TRUE(clone.state_matches(*donor.save_state()));
      EXPECT_EQ(clone.events_processed(), donor.events_processed());
      donor.restore_state(*snapshot);
    }
  }
}

TEST(StateCodec, RandomPerturbedStatesRoundTrip) {
  // Property test: random mid-simulation perturbations (forces, FF deposits,
  // memory writes) — exactly the state shapes a campaign checkpoint can
  // carry — round-trip on every engine and codec.
  const soc::SocModel model = codec_soc();
  const std::uint64_t period = soc::pick_clock_period(model.netlist);
  std::vector<netlist::CellId> ffs;
  std::vector<netlist::CellId> mems;
  std::vector<netlist::NetId> comb_outs;
  for (const netlist::CellId id : model.netlist.all_cells()) {
    const auto& cell = model.netlist.cell(id);
    if (netlist::is_flip_flop(cell.kind)) {
      ffs.push_back(id);
    } else if (cell.kind == netlist::CellKind::kMemory) {
      mems.push_back(id);
    } else if (!cell.outputs.empty() &&
               cell.kind != netlist::CellKind::kConst0 &&
               cell.kind != netlist::CellKind::kConst1) {
      comb_outs.push_back(cell.outputs[0]);
    }
  }
  ASSERT_FALSE(ffs.empty());
  ASSERT_FALSE(mems.empty());

  for (const EngineKind kind :
       {EngineKind::kEvent, EngineKind::kLevelized, EngineKind::kBitParallel}) {
    util::Rng rng(7 + static_cast<std::uint64_t>(kind));
    const auto engine = sim::make_engine(kind, model.netlist);
    sim::TestbenchConfig tb_config;
    tb_config.clk = model.clk;
    tb_config.rstn = model.rstn;
    tb_config.monitored = model.monitored;
    tb_config.clock_period_ps = period;
    sim::Testbench tb(*engine, tb_config);
    tb.reset();

    for (int trial = 0; trial < 8; ++trial) {
      tb.run_cycles(static_cast<int>(rng.below(6)) + 1);
      // Random perturbation (applied mid-cycle, like an injector).
      switch (rng.below(3)) {
        case 0: {
          const auto ff = ffs[rng.below(ffs.size())];
          engine->deposit_ff(ff, netlist::logic_flip(engine->ff_state(ff)));
          break;
        }
        case 1: {
          const auto net = comb_outs[rng.below(comb_outs.size())];
          if (rng.chance(0.5)) {
            engine->force_net(net, netlist::logic_flip(engine->value(net)));
          } else {
            engine->force_net(net, Logic::X);
          }
          break;
        }
        default: {
          const auto mem = mems[rng.below(mems.size())];
          const auto& mi =
              model.netlist.memory(model.netlist.cell(mem).memory_index);
          const std::uint32_t word =
              static_cast<std::uint32_t>(rng.below(mi.words));
          engine->write_mem_word(mem, word,
                                 engine->read_mem_word(mem, word) ^ 0b101);
          break;
        }
      }
      const auto snapshot = engine->save_state();
      expect_roundtrip(*engine, *snapshot, StateCodec::kRaw);
      expect_roundtrip(*engine, *snapshot, StateCodec::kRle);
    }
  }
}

TEST(StateCodec, RleShrinksSocCheckpoints) {
  const soc::SocModel model = codec_soc();
  const auto engine = sim::make_engine(EngineKind::kLevelized, model.netlist);
  sim::TestbenchConfig tb_config;
  tb_config.clk = model.clk;
  tb_config.rstn = model.rstn;
  tb_config.monitored = model.monitored;
  tb_config.clock_period_ps = soc::pick_clock_period(model.netlist);
  sim::Testbench tb(*engine, tb_config);
  tb.reset();
  tb.run_cycles(20);
  const auto snapshot = engine->save_state();
  const auto raw = sim::encode_state(*engine, *snapshot, StateCodec::kRaw);
  const auto rle = sim::encode_state(*engine, *snapshot, StateCodec::kRle);
  // A real SoC state (mostly-zero memories, settled logic) must compress
  // substantially — this is the "memory-heavy SoC" motivation of the codec.
  EXPECT_LT(rle.size(), raw.size() / 4);
}

TEST(StateCodec, RejectsForeignAndMalformedBlobs) {
  const soc::SocModel model = codec_soc();
  const auto event = sim::make_engine(EngineKind::kEvent, model.netlist);
  const auto levelized = sim::make_engine(EngineKind::kLevelized, model.netlist);
  const auto snapshot = event->save_state();
  const auto blob = sim::encode_state(*event, *snapshot, StateCodec::kRle);

  // Wrong engine kind.
  EXPECT_THROW((void)sim::decode_state(*levelized, blob), InvalidArgument);
  // Wrong snapshot type at encode time.
  EXPECT_THROW((void)sim::encode_state(*levelized, *snapshot, StateCodec::kRaw),
               InvalidArgument);
  // Bad magic.
  auto garbled = blob;
  garbled[0] ^= 0xff;
  EXPECT_THROW((void)sim::decode_state(*event, garbled), InvalidArgument);
  // Truncation anywhere in the frame.
  for (const std::size_t keep :
       {std::size_t{3}, std::size_t{8}, blob.size() / 2, blob.size() - 1}) {
    const std::vector<std::uint8_t> cut(blob.begin(),
                                        blob.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)sim::decode_state(*event, cut), InvalidArgument);
  }
  // Unsupported version.
  auto versioned = blob;
  versioned[4] = 99;
  EXPECT_THROW((void)sim::decode_state(*event, versioned), InvalidArgument);
}

}  // namespace
}  // namespace ssresf
