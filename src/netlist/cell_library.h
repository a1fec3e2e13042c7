#pragma once

#include <array>
#include <optional>
#include <span>
#include <string_view>

#include "netlist/logic.h"

namespace ssresf::netlist {

/// The standard-cell vocabulary of generated and parsed netlists. Mirrors a
/// small industrial library: basic combinational gates, a mux, two
/// AOI/OAI complex gates, D flip-flop variants, and a behavioural memory
/// macro (real synthesized netlists instantiate SRAM macros, not bitcells).
enum class CellKind : std::uint8_t {
  kConst0,
  kConst1,
  kBuf,
  kInv,
  kAnd2,
  kAnd3,
  kAnd4,
  kNand2,
  kNand3,
  kNand4,
  kOr2,
  kOr3,
  kOr4,
  kNor2,
  kNor3,
  kNor4,
  kXor2,
  kXnor2,
  kMux2,   // inputs: S, A (sel=0), B (sel=1)
  kAoi21,  // Y = !((A & B) | C)
  kOai21,  // Y = !((A | B) & C)
  kDff,    // inputs: D, CK           outputs: Q, QN
  kDffR,   // inputs: D, CK, RN       outputs: Q, QN   (async, active-low)
  kDffE,   // inputs: D, CK, RN, EN   outputs: Q, QN
  kMemory, // behavioural macro; see MemoryInfo
};

inline constexpr int kNumCellKinds = static_cast<int>(CellKind::kMemory) + 1;

struct CellSpec {
  std::string_view lib_name;  // library cell name used in structural Verilog
  CellKind kind;
  std::uint8_t num_inputs;    // fixed input count (0 for kMemory: variable)
  std::uint8_t num_outputs;   // fixed output count (0 for kMemory: variable)
  bool sequential;            // holds state across clock edges
  int delay_ps;               // intrinsic propagation (or clk->q) delay
};

namespace detail {
inline constexpr std::array<CellSpec, kNumCellKinds> kCellSpecs = {{
    {"TIELO", CellKind::kConst0, 0, 1, false, 0},
    {"TIEHI", CellKind::kConst1, 0, 1, false, 0},
    {"BUFX1", CellKind::kBuf, 1, 1, false, 12},
    {"INVX1", CellKind::kInv, 1, 1, false, 8},
    {"AND2X1", CellKind::kAnd2, 2, 1, false, 16},
    {"AND3X1", CellKind::kAnd3, 3, 1, false, 18},
    {"AND4X1", CellKind::kAnd4, 4, 1, false, 20},
    {"NAND2X1", CellKind::kNand2, 2, 1, false, 10},
    {"NAND3X1", CellKind::kNand3, 3, 1, false, 12},
    {"NAND4X1", CellKind::kNand4, 4, 1, false, 14},
    {"OR2X1", CellKind::kOr2, 2, 1, false, 16},
    {"OR3X1", CellKind::kOr3, 3, 1, false, 18},
    {"OR4X1", CellKind::kOr4, 4, 1, false, 20},
    {"NOR2X1", CellKind::kNor2, 2, 1, false, 10},
    {"NOR3X1", CellKind::kNor3, 3, 1, false, 12},
    {"NOR4X1", CellKind::kNor4, 4, 1, false, 14},
    {"XOR2X1", CellKind::kXor2, 2, 1, false, 22},
    {"XNOR2X1", CellKind::kXnor2, 2, 1, false, 22},
    {"MUX2X1", CellKind::kMux2, 3, 1, false, 20},
    {"AOI21X1", CellKind::kAoi21, 3, 1, false, 14},
    {"OAI21X1", CellKind::kOai21, 3, 1, false, 14},
    {"DFFX1", CellKind::kDff, 2, 2, true, 40},
    {"DFFRX1", CellKind::kDffR, 3, 2, true, 40},
    {"DFFREX1", CellKind::kDffE, 4, 2, true, 40},
    {"SSRESF_MEM", CellKind::kMemory, 0, 0, true, 60},
}};

[[noreturn]] void throw_unknown_cell_kind();
}  // namespace detail

/// Largest CellSpec::delay_ps in the library: the furthest ahead of the
/// current time any engine ever schedules a transition.
inline constexpr int kMaxCellDelayPs = [] {
  int max_delay = 0;
  for (const CellSpec& s : detail::kCellSpecs) {
    max_delay = s.delay_ps > max_delay ? s.delay_ps : max_delay;
  }
  return max_delay;
}();

/// Static description of a cell kind. Inline: the event engine reads a
/// delay on every gate evaluation.
[[nodiscard]] inline const CellSpec& spec(CellKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  if (index >= detail::kCellSpecs.size()) detail::throw_unknown_cell_kind();
  return detail::kCellSpecs[index];
}

/// Reverse lookup from a library cell name (e.g. "NAND2X1").
[[nodiscard]] std::optional<CellKind> kind_from_name(std::string_view name);

/// Port name for structural Verilog, e.g. kNand2 input 0 is "A", the DFF
/// output 1 is "QN". Memory macros use generated per-bit names instead.
[[nodiscard]] std::string_view input_port_name(CellKind kind, int index);
[[nodiscard]] std::string_view output_port_name(CellKind kind, int index);

[[nodiscard]] constexpr bool is_sequential(CellKind kind) {
  return kind == CellKind::kDff || kind == CellKind::kDffR ||
         kind == CellKind::kDffE || kind == CellKind::kMemory;
}

[[nodiscard]] constexpr bool is_flip_flop(CellKind kind) {
  return kind == CellKind::kDff || kind == CellKind::kDffR ||
         kind == CellKind::kDffE;
}

/// Evaluate a purely combinational cell on its inputs. Precondition: `kind`
/// is combinational and `inputs.size() == spec(kind).num_inputs`.
[[nodiscard]] Logic eval_cell(CellKind kind, std::span<const Logic> inputs);

/// Word-parallel variant of eval_cell: evaluates all 64 lanes of the packed
/// inputs at once. Lane-wise identical to eval_cell (the bit-parallel engine
/// and its equivalence tests rely on this).
[[nodiscard]] PackedLogic eval_cell_packed(CellKind kind,
                                           std::span<const PackedLogic> inputs);

}  // namespace ssresf::netlist
