#include "fi/golden_bundle.h"

#include <algorithm>

#include "fi/campaign.h"
#include "sim/state_codec.h"
#include "util/error.h"

namespace ssresf::fi {

namespace {

void encode_trace(util::ByteWriter& out, const sim::OutputTrace& trace) {
  out.varint(trace.nets().size());
  for (const netlist::NetId net : trace.nets()) out.varint(net.index());
  out.varint(trace.num_cycles());
  for (std::size_t c = 0; c < trace.num_cycles(); ++c) {
    for (const netlist::Logic v : trace.cycle(c)) {
      out.u8(static_cast<std::uint8_t>(v));
    }
  }
}

sim::OutputTrace decode_trace(util::ByteReader& in) {
  const std::size_t num_nets = in.element_count(1);
  std::vector<netlist::NetId> nets;
  nets.reserve(num_nets);
  for (std::size_t n = 0; n < num_nets; ++n) {
    nets.push_back(netlist::NetId{static_cast<std::uint32_t>(in.varint())});
  }
  sim::OutputTrace trace(std::move(nets));
  // max(1) keeps the bound meaningful for a degenerate zero-net trace: the
  // cycle count can never exceed the bytes actually present.
  const std::uint64_t cycles = in.varint();
  if (cycles > in.remaining() / std::max<std::size_t>(num_nets, 1)) {
    throw InvalidArgument("golden bundle: truncated trace");
  }
  std::vector<netlist::Logic> row(num_nets);
  for (std::uint64_t c = 0; c < cycles; ++c) {
    for (std::size_t j = 0; j < num_nets; ++j) {
      const std::uint8_t v = in.u8();
      if (v > static_cast<std::uint8_t>(netlist::Logic::Z)) {
        throw InvalidArgument("golden bundle: bad logic value in trace");
      }
      row[j] = static_cast<netlist::Logic>(v);
    }
    trace.append_cycle(row);
  }
  return trace;
}

}  // namespace

GoldenBundle extract_golden_bundle(const soc::SocModel& model,
                                   const CampaignConfig& config,
                                   const detail::CampaignPrep& prep) {
  GoldenBundle bundle;
  bundle.run_cycles = prep.run_cycles;
  bundle.trace = prep.golden_trace;
  const auto engine =
      sim::make_engine(detail::golden_engine_kind(config), model.netlist);
  bundle.rungs.reserve(prep.ladder.size());
  for (const detail::CampaignPrep::Rung& rung : prep.ladder) {
    bundle.rungs.push_back(
        {rung.cycle,
         sim::encode_state(*engine, *rung.state, sim::StateCodec::kRle)});
  }
  return bundle;
}

void encode_golden_bundle(util::ByteWriter& out, const GoldenBundle& bundle) {
  out.varint(static_cast<std::uint64_t>(bundle.run_cycles));
  encode_trace(out, bundle.trace);
  out.varint(bundle.rungs.size());
  for (const GoldenBundle::Rung& rung : bundle.rungs) {
    out.varint(static_cast<std::uint64_t>(rung.cycle));
    out.byte_vec(rung.state);
  }
}

GoldenBundle decode_golden_bundle(util::ByteReader& in) {
  try {
    GoldenBundle bundle;
    bundle.run_cycles = static_cast<int>(in.varint());
    bundle.trace = decode_trace(in);
    const std::size_t num_rungs = in.element_count(1);
    bundle.rungs.reserve(num_rungs);
    int prev_cycle = -1;
    for (std::size_t r = 0; r < num_rungs; ++r) {
      GoldenBundle::Rung rung;
      rung.cycle = static_cast<int>(in.varint());
      if (rung.cycle <= prev_cycle) {
        throw InvalidArgument("golden bundle: rung cycles not ascending");
      }
      prev_cycle = rung.cycle;
      rung.state = in.byte_vec<std::uint8_t>();
      bundle.rungs.push_back(std::move(rung));
    }
    return bundle;
  } catch (const InvalidArgument&) {
    throw;
  } catch (const Error& e) {
    throw InvalidArgument(std::string("golden bundle: ") + e.what());
  }
}

detail::CampaignPrep prepare_campaign_with_bundle(
    const soc::SocModel& model, const CampaignConfig& config,
    const radiation::SoftErrorDatabase& database, const GoldenBundle& bundle) {
  if (bundle.run_cycles <= 0) {
    throw InvalidArgument("golden bundle: non-positive run length");
  }
  if (config.run_cycles != 0 && config.run_cycles != bundle.run_cycles) {
    throw InvalidArgument(
        "golden bundle: run length " + std::to_string(bundle.run_cycles) +
        " contradicts config.run_cycles " + std::to_string(config.run_cycles));
  }
  // Pinning the resolved run length makes the planning pass simulation-free:
  // the plan (clustering, sampling, strike window) is a pure function of
  // (model, config, run_cycles), so the worker derives the exact plan the
  // coordinator did without ever running the golden workload.
  CampaignConfig pinned = config;
  pinned.run_cycles = bundle.run_cycles;
  detail::CampaignPrep prep =
      detail::prepare_campaign(model, pinned, database, /*for_execution=*/false);

  if (bundle.trace.nets() != prep.tb_config.monitored) {
    throw InvalidArgument(
        "golden bundle: trace monitors different nets than this model");
  }
  if (bundle.trace.num_cycles() != static_cast<std::size_t>(prep.total_cycles)) {
    throw InvalidArgument("golden bundle: trace covers " +
                          std::to_string(bundle.trace.num_cycles()) +
                          " cycles, campaign runs " +
                          std::to_string(prep.total_cycles));
  }
  prep.golden_trace = bundle.trace;

  const auto engine =
      sim::make_engine(detail::golden_engine_kind(config), model.netlist);
  prep.ladder.reserve(bundle.rungs.size());
  for (const GoldenBundle::Rung& rung : bundle.rungs) {
    if (rung.cycle < 0 || rung.cycle >= prep.total_cycles) {
      throw InvalidArgument("golden bundle: rung cycle " +
                            std::to_string(rung.cycle) + " out of range");
    }
    prep.ladder.push_back({rung.cycle, sim::decode_state(*engine, rung.state)});
  }
  return prep;
}

}  // namespace ssresf::fi
