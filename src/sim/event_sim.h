#pragma once

#include <array>
#include <vector>

#include "sim/engine.h"

namespace ssresf::sim {

/// Timing-accurate event-driven gate-level simulator.
///
/// Semantics:
///  - four-valued logic; everything powers up X except constants;
///  - per-cell intrinsic delays (CellSpec::delay_ps) with inertial filtering:
///    a newly scheduled output transition cancels the pending one, so pulses
///    narrower than a gate's delay are electrically masked — the effect that
///    limits SET propagation in real silicon;
///  - DFF captures D on a 0->1 transition of CK; DFFR/DFFE have asynchronous
///    active-low reset, DFFE also a clock enable (X on EN/CK degrades the
///    state to X);
///  - memory macros: asynchronous read (ADDR -> RDATA after the macro delay),
///    synchronous write on posedge CLK when EN & WE are 1.
///
/// Scheduler: a time wheel of one bucket per picosecond. Every transition
/// is scheduled at now + a cell delay, and no cell is slower than
/// netlist::kMaxCellDelayPs, so every pending event lies in
/// [now, now + kMaxCellDelayPs] — a window narrower than the wheel, in which
/// each time owns a distinct bucket. Buckets are append-only while pending,
/// so the events of one time apply in the order they were scheduled, and
/// advance_to drains buckets in time order: the application order is
/// exactly (time, scheduling order), the order a priority queue keyed on
/// (time, sequence number) produces, at O(1) per event.
class EventSimulator final : public Engine {
 public:
  explicit EventSimulator(const Netlist& netlist);

  [[nodiscard]] const Netlist& design() const override { return netlist_; }
  void reset_state() override;
  [[nodiscard]] std::unique_ptr<EngineState> save_state() const override;
  void restore_state(const EngineState& state) override;
  void serialize_state(const EngineState& state,
                       util::ByteWriter& out) const override;
  [[nodiscard]] std::unique_ptr<EngineState> deserialize_state(
      util::ByteReader& in) const override;
  [[nodiscard]] bool state_matches(const EngineState& state) const override;
  void set_input(NetId net, Logic value) override;
  void advance_to(std::uint64_t time_ps) override;
  [[nodiscard]] std::uint64_t now() const override { return now_; }
  [[nodiscard]] Logic value(NetId net) const override;

  void force_net(NetId net, Logic value) override;
  void release_net(NetId net) override;
  void deposit_ff(CellId ff, Logic q) override;
  [[nodiscard]] Logic ff_state(CellId ff) const override;
  void write_mem_word(CellId mem, std::uint32_t word,
                      std::uint64_t value) override;
  [[nodiscard]] std::uint64_t read_mem_word(CellId mem,
                                            std::uint32_t word) const override;
  void set_observer(ChangeObserver observer) override {
    observer_ = std::move(observer);
    has_observer_ = static_cast<bool>(observer_);
  }
  [[nodiscard]] std::string_view name() const override { return "event"; }

  /// Number of events applied since construction/reset (activity metric for
  /// the ablation benches).
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }

 private:
  /// One pending output transition. Its time is the bucket that holds it
  /// and its rank among same-time events is its position in that bucket.
  struct Event {
    NetId net;
    Logic value;
    std::uint32_t gen;  // live while equal to pending_gen_[net]
  };

  static constexpr std::uint64_t kWheelSpan = 64;  // a power of two
  static constexpr std::uint64_t kWheelMask = kWheelSpan - 1;
  static_assert(static_cast<std::uint64_t>(netlist::kMaxCellDelayPs) <
                    kWheelSpan,
                "a cell delay reaching the wheel span would alias buckets "
                "and reorder events");

  /// A pending transition that is still live (not cancelled), with its
  /// absolute time: the normalized form snapshots hold. Per-net generations
  /// are bookkeeping of the engine that scheduled the transition.
  struct LiveEvent {
    std::uint64_t time;
    NetId net;
    Logic value;
    bool operator==(const LiveEvent&) const = default;
  };

  struct State;

  /// The live events in application order: the wheel walked from now_,
  /// bucket by bucket, each in scheduling order.
  [[nodiscard]] std::vector<LiveEvent> live_events() const;

  void schedule(NetId net, Logic value, std::uint64_t delay_ps);
  void apply_event(const Event& event);
  void propagate_change(NetId net, Logic old_effective, Logic new_effective);
  void evaluate_comb(CellId cell);
  void on_clock_edge(CellId cell);
  void on_async_pin_change(CellId cell);
  void evaluate_memory_read(CellId cell);
  void set_ff_state(CellId cell, Logic q, bool immediate);
  [[nodiscard]] Logic effective(NetId net) const;
  void init_constants_and_memories();

  const Netlist& netlist_;
  std::uint64_t now_ = 0;
  std::uint64_t events_processed_ = 0;

  std::vector<Logic> driven_;      // last driver-produced value per net
  std::vector<Logic> forced_val_;  // overlay value per net
  std::vector<std::uint8_t> forced_;
  std::vector<std::uint32_t> pending_gen_;
  std::vector<std::uint8_t> has_pending_;

  std::vector<Logic> ff_q_;                       // per cell (FFs only)
  std::vector<std::vector<std::uint64_t>> mems_;  // per memory index
  std::vector<CellId> init_order_;                // topo order for power-up

  // Flat copies of the cell fields event propagation reads, so evaluating
  // a gate never chases a netlist Cell and its separately allocated input
  // vector: kind, first output, and the inputs of cell c as
  // in_nets_[in_begin_[c], in_begin_[c + 1]).
  std::vector<netlist::CellKind> kind_;
  std::vector<NetId> out0_;
  std::vector<std::uint32_t> in_begin_;
  std::vector<NetId> in_nets_;

  // Bucket (t & kWheelMask) holds the events of time t.
  std::array<std::vector<Event>, kWheelSpan> wheel_;
  std::uint64_t wheel_size_ = 0;  // events in the wheel, cancelled included
  ChangeObserver observer_;
  bool has_observer_ = false;  // hot-path guard: skip the std::function call
};

}  // namespace ssresf::sim
