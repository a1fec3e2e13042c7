#include "sim/event_sim.h"

#include <algorithm>

#include "netlist/stats.h"
#include "util/bytes.h"
#include "util/error.h"

namespace ssresf::sim {

using netlist::as_input;
using netlist::Cell;
using netlist::CellKind;
using netlist::eval_cell;
using netlist::Fanout;
using netlist::from_bool;
using netlist::is_flip_flop;
using netlist::is_known;
using netlist::logic_not;
using netlist::MemoryInfo;
using netlist::spec;

EventSimulator::EventSimulator(const Netlist& netlist) : netlist_(netlist) {
  if (!netlist.finalized()) {
    throw InvalidArgument("EventSimulator requires a finalized netlist");
  }
  std::size_t num_inputs = 0;
  for (const CellId id : netlist_.all_cells()) {
    num_inputs += netlist_.cell(id).inputs.size();
  }
  kind_.reserve(netlist_.num_cells());
  out0_.reserve(netlist_.num_cells());
  in_begin_.reserve(netlist_.num_cells() + 1);
  in_nets_.reserve(num_inputs);
  in_begin_.push_back(0);
  for (const CellId id : netlist_.all_cells()) {
    const Cell& cell = netlist_.cell(id);
    kind_.push_back(cell.kind);
    out0_.push_back(cell.outputs.empty() ? NetId{} : cell.outputs[0]);
    in_nets_.insert(in_nets_.end(), cell.inputs.begin(), cell.inputs.end());
    in_begin_.push_back(static_cast<std::uint32_t>(in_nets_.size()));
  }
  const auto depths = netlist::compute_logic_depths(netlist_);
  init_order_ = netlist_.all_cells();
  std::stable_sort(init_order_.begin(), init_order_.end(),
                   [&](CellId a, CellId b) {
                     return depths[a.index()] < depths[b.index()];
                   });
  reset_state();
}

void EventSimulator::reset_state() {
  now_ = 0;
  events_processed_ = 0;
  driven_.assign(netlist_.num_nets(), Logic::X);
  forced_val_.assign(netlist_.num_nets(), Logic::X);
  forced_.assign(netlist_.num_nets(), 0);
  pending_gen_.assign(netlist_.num_nets(), 0);
  has_pending_.assign(netlist_.num_nets(), 0);
  ff_q_.assign(netlist_.num_cells(), Logic::X);
  for (auto& bucket : wheel_) bucket.clear();
  wheel_size_ = 0;

  mems_.clear();
  init_constants_and_memories();
}

struct EventSimulator::State final : EngineState {
  std::uint64_t now = 0;
  std::uint64_t events_processed = 0;
  std::vector<Logic> driven;
  std::vector<Logic> forced_val;
  std::vector<std::uint8_t> forced;
  std::vector<Logic> ff_q;
  std::vector<std::vector<std::uint64_t>> mems;
  std::vector<LiveEvent> live;
};

std::vector<EventSimulator::LiveEvent> EventSimulator::live_events() const {
  std::vector<LiveEvent> out;
  for (std::uint64_t t = now_; t < now_ + kWheelSpan; ++t) {
    for (const Event& e : wheel_[t & kWheelMask]) {
      if (has_pending_[e.net.index()] != 0 &&
          e.gen == pending_gen_[e.net.index()]) {
        out.push_back({t, e.net, e.value});
      }
    }
  }
  return out;
}

std::unique_ptr<EngineState> EventSimulator::save_state() const {
  auto state = std::make_unique<State>();
  state->now = now_;
  state->events_processed = events_processed_;
  state->driven = driven_;
  state->forced_val = forced_val_;
  state->forced = forced_;
  state->ff_q = ff_q_;
  state->mems = mems_;
  state->live = live_events();
  return state;
}

bool EventSimulator::state_matches(const EngineState& state) const {
  const auto* s = dynamic_cast<const State*>(&state);
  if (s == nullptr) return false;
  if (now_ != s->now || driven_ != s->driven || ff_q_ != s->ff_q ||
      forced_ != s->forced || mems_ != s->mems) {
    return false;
  }
  // Forced overlay values matter only where a force is active (released
  // forces leave stale values behind).
  for (std::size_t n = 0; n < forced_.size(); ++n) {
    if (forced_[n] != 0 && forced_val_[n] != s->forced_val[n]) return false;
  }
  // Two engines with equal state vectors and equal live sequences evolve
  // identically.
  return live_events() == s->live;
}

void EventSimulator::serialize_state(const EngineState& state,
                                     util::ByteWriter& out) const {
  const auto* s = dynamic_cast<const State*>(&state);
  if (s == nullptr) {
    throw InvalidArgument(
        "serialize_state: snapshot is not an event-engine state");
  }
  out.varint(s->now);
  out.varint(s->events_processed);
  out.byte_vec(s->driven);
  out.byte_vec(s->forced_val);
  out.byte_vec(s->forced);
  out.byte_vec(s->ff_q);
  out.varint(s->mems.size());
  for (const auto& mem : s->mems) out.u64_vec(mem);
  out.varint(s->live.size());
  for (const LiveEvent& e : s->live) {
    out.varint(e.time);
    out.varint(e.net.index());
    out.u8(static_cast<std::uint8_t>(e.value));
  }
}

std::unique_ptr<EngineState> EventSimulator::deserialize_state(
    util::ByteReader& in) const {
  auto s = std::make_unique<State>();
  s->now = in.varint();
  s->events_processed = in.varint();
  s->driven = in.byte_vec<Logic>();
  s->forced_val = in.byte_vec<Logic>();
  s->forced = in.byte_vec<std::uint8_t>();
  for (std::uint8_t& f : s->forced) f = f != 0 ? 1 : 0;
  s->ff_q = in.byte_vec<Logic>();
  // element_count bounds the count by the remaining input (each array is at
  // least its one-byte length prefix), so a malformed count cannot drive an
  // oversized allocation.
  const std::size_t num_mems = in.element_count(1);
  s->mems.reserve(num_mems);
  for (std::size_t m = 0; m < num_mems; ++m) s->mems.push_back(in.u64_vec());
  if (s->driven.size() != netlist_.num_nets() ||
      s->forced_val.size() != netlist_.num_nets() ||
      s->forced.size() != netlist_.num_nets() ||
      s->ff_q.size() != netlist_.num_cells()) {
    throw InvalidArgument("deserialize_state: snapshot from a different design");
  }
  // Memory arrays must match this engine's shape exactly: a truncated array
  // would otherwise become an out-of-bounds access on the next memory read.
  if (s->mems.size() != mems_.size()) {
    throw InvalidArgument("deserialize_state: memory count mismatch");
  }
  for (std::size_t m = 0; m < mems_.size(); ++m) {
    if (s->mems[m].size() != mems_[m].size()) {
      throw InvalidArgument("deserialize_state: memory array size mismatch");
    }
  }
  // The live list is what save_state produces: at most one transition per
  // net (the inertial model cancels the older one), in application order,
  // and inside the scheduling window [now, now + kWheelSpan) — an event
  // beyond it has no bucket of its own and would apply out of order.
  // Each event is at least 3 bytes, which bounds the reservation.
  const std::size_t num_live = in.element_count(3);
  s->live.reserve(num_live);
  std::vector<std::uint8_t> seen(netlist_.num_nets(), 0);
  for (std::size_t i = 0; i < num_live; ++i) {
    const std::uint64_t time = in.varint();
    const std::uint64_t net = in.varint();
    const std::uint8_t value = in.u8();
    if (net >= netlist_.num_nets() || value > 3 ||
        seen[static_cast<std::size_t>(net)] != 0 ||
        (!s->live.empty() && time < s->live.back().time)) {
      throw InvalidArgument("deserialize_state: malformed event list");
    }
    if (time < s->now || time - s->now >= kWheelSpan) {
      throw InvalidArgument(
          "deserialize_state: event at " + std::to_string(time) +
          " ps lies outside the scheduling window [" + std::to_string(s->now) +
          ", " + std::to_string(s->now) + " + " + std::to_string(kWheelSpan) +
          ") ps");
    }
    seen[static_cast<std::size_t>(net)] = 1;
    s->live.push_back({time, NetId{static_cast<std::uint32_t>(net)},
                       static_cast<Logic>(value)});
  }
  return s;
}

void EventSimulator::restore_state(const EngineState& state) {
  const auto* s = dynamic_cast<const State*>(&state);
  if (s == nullptr) {
    throw InvalidArgument("restore_state: snapshot is not an event-engine state");
  }
  if (s->driven.size() != netlist_.num_nets() ||
      s->ff_q.size() != netlist_.num_cells()) {
    throw InvalidArgument("restore_state: snapshot from a different design");
  }
  now_ = s->now;
  events_processed_ = s->events_processed;
  driven_ = s->driven;
  forced_val_ = s->forced_val;
  forced_ = s->forced;
  ff_q_ = s->ff_q;
  mems_ = s->mems;
  // Re-mint the pending machinery from the live list. Every old wheel entry
  // is dropped, so bumping a net's generation is enough to make its one new
  // entry the live one; appending in list order keeps same-time order.
  for (auto& bucket : wheel_) bucket.clear();
  has_pending_.assign(netlist_.num_nets(), 0);
  for (const LiveEvent& e : s->live) {
    const auto n = e.net.index();
    has_pending_[n] = 1;
    wheel_[e.time & kWheelMask].push_back(
        Event{e.net, e.value, ++pending_gen_[n]});
  }
  wheel_size_ = s->live.size();
}

void EventSimulator::init_constants_and_memories() {
  // Memory arrays from the netlist's initial contents.
  std::vector<std::int32_t> mem_count;
  for (const CellId id : netlist_.all_cells()) {
    const Cell& cell = netlist_.cell(id);
    if (cell.kind != CellKind::kMemory) continue;
    const MemoryInfo& mi = netlist_.memory(cell.memory_index);
    if (mems_.size() <= static_cast<std::size_t>(cell.memory_index)) {
      mems_.resize(static_cast<std::size_t>(cell.memory_index) + 1);
    }
    auto& array = mems_[static_cast<std::size_t>(cell.memory_index)];
    if (mi.init.empty()) {
      array.assign(mi.words, 0);
    } else {
      array = mi.init;
    }
  }

  // Constants drive their outputs from time zero.
  for (const CellId id : netlist_.all_cells()) {
    const Cell& cell = netlist_.cell(id);
    if (cell.kind == CellKind::kConst0) {
      driven_[cell.outputs[0].index()] = Logic::L0;
    } else if (cell.kind == CellKind::kConst1) {
      driven_[cell.outputs[0].index()] = Logic::L1;
    }
  }

  // One settling sweep in topological order so constant cones start resolved
  // (everything else is X until inputs arrive).
  for (const CellId id : init_order_) {
    const Cell& cell = netlist_.cell(id);
    if (netlist::is_sequential(cell.kind)) {
      if (cell.kind == CellKind::kMemory) {
        // Async read with X address yields X — already the default.
      }
      continue;
    }
    if (cell.kind == CellKind::kConst0 || cell.kind == CellKind::kConst1) {
      continue;
    }
    std::vector<Logic> ins;
    ins.reserve(cell.inputs.size());
    for (const NetId in : cell.inputs) ins.push_back(driven_[in.index()]);
    driven_[cell.outputs[0].index()] = eval_cell(cell.kind, ins);
  }
}

Logic EventSimulator::effective(NetId net) const {
  return forced_[net.index()] != 0 ? forced_val_[net.index()]
                                   : driven_[net.index()];
}

Logic EventSimulator::value(NetId net) const { return effective(net); }

void EventSimulator::set_input(NetId net, Logic v) {
  if (!netlist_.net(net).is_primary_input) {
    throw InvalidArgument("set_input on non-primary-input net '" +
                          netlist_.net_name(net) + "'");
  }
  const Logic old_driven = driven_[net.index()];
  if (old_driven == v) return;
  driven_[net.index()] = v;
  if (forced_[net.index()] == 0) propagate_change(net, old_driven, v);
}

void EventSimulator::advance_to(std::uint64_t time_ps) {
  if (time_ps < now_) return;  // every pending event lies at or after now_
  while (wheel_size_ != 0) {
    std::vector<Event>& bucket = wheel_[now_ & kWheelMask];
    // Indexed: a zero-delay transition scheduled while the bucket drains is
    // appended to it and applies in this pass, after every earlier one.
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const Event event = bucket[i];
      if (event.gen == pending_gen_[event.net.index()]) apply_event(event);
    }
    wheel_size_ -= bucket.size();
    bucket.clear();
    if (now_ == time_ps) return;
    ++now_;
  }
  now_ = time_ps;
}

void EventSimulator::schedule(NetId net, Logic v, std::uint64_t delay_ps) {
  const auto n = net.index();
  if (has_pending_[n] != 0) {
    ++pending_gen_[n];  // cancel the pending transition (inertial behaviour)
    if (v == driven_[n]) {
      has_pending_[n] = 0;  // glitch collapsed entirely
      return;
    }
  } else {
    if (v == driven_[n]) return;  // no change
    ++pending_gen_[n];
    has_pending_[n] = 1;
  }
  wheel_[(now_ + delay_ps) & kWheelMask].push_back(
      Event{net, v, pending_gen_[n]});
  ++wheel_size_;
}

void EventSimulator::apply_event(const Event& event) {
  const auto n = event.net.index();
  has_pending_[n] = 0;
  ++events_processed_;
  const Logic old_driven = driven_[n];
  if (old_driven == event.value) return;
  driven_[n] = event.value;
  if (forced_[n] != 0) return;  // hidden behind the force overlay
  propagate_change(event.net, old_driven, event.value);
}

void EventSimulator::propagate_change(NetId net, Logic old_effective,
                                      Logic new_effective) {
  if (has_observer_) observer_(net, now_, new_effective);
  for (const Fanout& fo : netlist_.fanout(net)) {
    const CellKind kind = kind_[fo.cell.index()];
    switch (kind) {
      case CellKind::kDff:
      case CellKind::kDffR:
      case CellKind::kDffE: {
        if (fo.input_index == 1) {  // CK
          const bool posedge =
              old_effective == Logic::L0 && new_effective == Logic::L1;
          const bool maybe_edge =
              (old_effective == Logic::X && new_effective == Logic::L1) ||
              (old_effective == Logic::L0 && new_effective == Logic::X);
          if (posedge) {
            on_clock_edge(fo.cell);
          } else if (maybe_edge) {
            // An edge may or may not have happened: degrade to X if capturing
            // would change the state.
            const Logic d =
                as_input(effective(netlist_.cell(fo.cell).inputs[0]));
            if (d != ff_q_[fo.cell.index()]) {
              set_ff_state(fo.cell, Logic::X, /*immediate=*/false);
            }
          }
        } else if (fo.input_index == 2 && kind != CellKind::kDff) {
          on_async_pin_change(fo.cell);
        }
        // D and EN changes are sampled at the next clock edge.
        break;
      }
      case CellKind::kMemory: {
        if (fo.input_index == 0) {  // CLK
          const bool posedge =
              old_effective == Logic::L0 && new_effective == Logic::L1;
          if (posedge) on_clock_edge(fo.cell);
        } else if (fo.input_index >= 3) {
          const MemoryInfo& mi =
              netlist_.memory(netlist_.cell(fo.cell).memory_index);
          if (fo.input_index < 3u + mi.addr_bits) {
            evaluate_memory_read(fo.cell);  // async read path
          }
          // WDATA is sampled at the write edge.
        }
        break;
      }
      default:
        evaluate_comb(fo.cell);
        break;
    }
  }
}

void EventSimulator::evaluate_comb(CellId id) {
  const auto c = id.index();
  const std::uint32_t begin = in_begin_[c];
  const std::uint32_t num_inputs = in_begin_[c + 1] - begin;
  Logic ins[4];
  for (std::uint32_t i = 0; i < num_inputs; ++i) {
    ins[i] = effective(in_nets_[begin + i]);
  }
  const CellKind kind = kind_[c];
  schedule(out0_[c], eval_cell(kind, std::span<const Logic>(ins, num_inputs)),
           static_cast<std::uint64_t>(spec(kind).delay_ps));
}

void EventSimulator::on_clock_edge(CellId id) {
  const Cell& cell = netlist_.cell(id);
  if (is_flip_flop(cell.kind)) {
    if (cell.kind != CellKind::kDff) {
      const Logic rn = as_input(effective(cell.inputs[2]));
      if (rn == Logic::L0) return;  // held in reset by the async path
      if (rn == Logic::X) {
        if (ff_q_[id.index()] != Logic::L0) {
          set_ff_state(id, Logic::X, /*immediate=*/false);
        }
        return;
      }
    }
    if (cell.kind == CellKind::kDffE) {
      const Logic en = as_input(effective(cell.inputs[3]));
      if (en == Logic::L0) return;  // hold
      if (en == Logic::X) {
        const Logic d = as_input(effective(cell.inputs[0]));
        if (d != ff_q_[id.index()]) {
          set_ff_state(id, Logic::X, /*immediate=*/false);
        }
        return;
      }
    }
    const Logic d = as_input(effective(cell.inputs[0]));
    if (d != ff_q_[id.index()]) set_ff_state(id, d, /*immediate=*/false);
    return;
  }

  // Memory write port: WADDR sits after RADDR, WDATA after both.
  const MemoryInfo& mi = netlist_.memory(cell.memory_index);
  const Logic en = as_input(effective(cell.inputs[1]));
  const Logic we = as_input(effective(cell.inputs[2]));
  if (en != Logic::L1 || we != Logic::L1) return;
  std::uint64_t addr = 0;
  for (int i = 0; i < mi.addr_bits; ++i) {
    const Logic bit =
        as_input(effective(cell.inputs[3u + mi.addr_bits + i]));
    if (!is_known(bit)) return;  // write to unknown address: dropped
    if (bit == Logic::L1) addr |= 1ull << i;
  }
  if (addr >= mi.words) return;
  std::uint64_t word = 0;
  bool word_known = true;
  for (int i = 0; i < mi.width; ++i) {
    const Logic bit =
        as_input(effective(cell.inputs[3u + 2u * mi.addr_bits + i]));
    if (!is_known(bit)) {
      word_known = false;
      break;
    }
    if (bit == Logic::L1) word |= 1ull << i;
  }
  if (!word_known) return;
  mems_[static_cast<std::size_t>(cell.memory_index)][addr] = word;
  evaluate_memory_read(id);  // write-through visibility
}

void EventSimulator::on_async_pin_change(CellId id) {
  const Cell& cell = netlist_.cell(id);
  const Logic rn = as_input(effective(cell.inputs[2]));
  if (rn == Logic::L0) {
    if (ff_q_[id.index()] != Logic::L0) {
      set_ff_state(id, Logic::L0, /*immediate=*/false);
    }
  } else if (rn == Logic::X && ff_q_[id.index()] != Logic::L0) {
    set_ff_state(id, Logic::X, /*immediate=*/false);
  }
}

void EventSimulator::evaluate_memory_read(CellId id) {
  const Cell& cell = netlist_.cell(id);
  const MemoryInfo& mi = netlist_.memory(cell.memory_index);
  std::uint64_t addr = 0;
  bool addr_known = true;
  for (int i = 0; i < mi.addr_bits; ++i) {
    const Logic bit = as_input(effective(cell.inputs[3u + i]));
    if (!is_known(bit)) {
      addr_known = false;
      break;
    }
    if (bit == Logic::L1) addr |= 1ull << i;
  }
  const std::uint64_t delay =
      static_cast<std::uint64_t>(spec(CellKind::kMemory).delay_ps);
  if (!addr_known || addr >= mi.words) {
    for (int i = 0; i < mi.width; ++i) {
      schedule(cell.outputs[i], Logic::X, delay);
    }
    return;
  }
  const std::uint64_t word =
      mems_[static_cast<std::size_t>(cell.memory_index)][addr];
  for (int i = 0; i < mi.width; ++i) {
    schedule(cell.outputs[i], from_bool((word >> i) & 1), delay);
  }
}

void EventSimulator::set_ff_state(CellId id, Logic q, bool immediate) {
  const Cell& cell = netlist_.cell(id);
  ff_q_[id.index()] = q;
  const std::uint64_t delay =
      immediate ? 0 : static_cast<std::uint64_t>(spec(cell.kind).delay_ps);
  schedule(cell.outputs[0], q, delay);
  schedule(cell.outputs[1], logic_not(q), delay);
}

void EventSimulator::force_net(NetId net, Logic v) {
  const auto n = net.index();
  const Logic old_effective = effective(net);
  forced_[n] = 1;
  forced_val_[n] = v;
  if (old_effective != v) propagate_change(net, old_effective, v);
}

void EventSimulator::release_net(NetId net) {
  const auto n = net.index();
  if (forced_[n] == 0) return;
  const Logic old_effective = forced_val_[n];
  forced_[n] = 0;
  if (driven_[n] != old_effective) {
    propagate_change(net, old_effective, driven_[n]);
  }
}

void EventSimulator::deposit_ff(CellId ff, Logic q) {
  const Cell& cell = netlist_.cell(ff);
  if (!is_flip_flop(cell.kind)) {
    throw InvalidArgument("deposit_ff on non-flip-flop cell");
  }
  set_ff_state(ff, q, /*immediate=*/true);
  advance_to(now_);  // apply the Q/QN updates right away
}

Logic EventSimulator::ff_state(CellId ff) const {
  const Cell& cell = netlist_.cell(ff);
  if (!is_flip_flop(cell.kind)) {
    throw InvalidArgument("ff_state on non-flip-flop cell");
  }
  return ff_q_[ff.index()];
}

void EventSimulator::write_mem_word(CellId mem, std::uint32_t word,
                                    std::uint64_t v) {
  const Cell& cell = netlist_.cell(mem);
  if (cell.kind != CellKind::kMemory) {
    throw InvalidArgument("write_mem_word on non-memory cell");
  }
  const MemoryInfo& mi = netlist_.memory(cell.memory_index);
  if (word >= mi.words) throw InvalidArgument("memory word out of range");
  mems_[static_cast<std::size_t>(cell.memory_index)][word] = v;
  evaluate_memory_read(mem);
  advance_to(now_);
}

std::uint64_t EventSimulator::read_mem_word(CellId mem,
                                            std::uint32_t word) const {
  const Cell& cell = netlist_.cell(mem);
  if (cell.kind != CellKind::kMemory) {
    throw InvalidArgument("read_mem_word on non-memory cell");
  }
  const MemoryInfo& mi = netlist_.memory(cell.memory_index);
  if (word >= mi.words) throw InvalidArgument("memory word out of range");
  return mems_[static_cast<std::size_t>(cell.memory_index)][word];
}

}  // namespace ssresf::sim
