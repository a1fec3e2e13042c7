#include "netlist/cell_library.h"

#include "util/error.h"

namespace ssresf::netlist {

namespace {

constexpr std::string_view kDffInputs[] = {"D", "CK", "RN", "EN"};
constexpr std::string_view kDffOutputs[] = {"Q", "QN"};
constexpr std::string_view kGateInputs[] = {"A", "B", "C", "D"};
constexpr std::string_view kMuxInputs[] = {"S", "A", "B"};

}  // namespace

void detail::throw_unknown_cell_kind() {
  throw InvalidArgument("unknown cell kind");
}

std::optional<CellKind> kind_from_name(std::string_view name) {
  for (const auto& s : detail::kCellSpecs) {
    if (s.lib_name == name) return s.kind;
  }
  return std::nullopt;
}

std::string_view input_port_name(CellKind kind, int index) {
  const auto& s = spec(kind);
  if (index < 0 || index >= s.num_inputs) {
    throw InvalidArgument("input port index out of range");
  }
  if (is_flip_flop(kind)) return kDffInputs[index];
  if (kind == CellKind::kMux2) return kMuxInputs[index];
  return kGateInputs[index];
}

std::string_view output_port_name(CellKind kind, int index) {
  const auto& s = spec(kind);
  if (index < 0 || index >= s.num_outputs) {
    throw InvalidArgument("output port index out of range");
  }
  if (is_flip_flop(kind)) return kDffOutputs[index];
  return "Y";
}

Logic eval_cell(CellKind kind, std::span<const Logic> in) {
  switch (kind) {
    case CellKind::kConst0:
      return Logic::L0;
    case CellKind::kConst1:
      return Logic::L1;
    case CellKind::kBuf:
      return logic_not(logic_not(in[0]));
    case CellKind::kInv:
      return logic_not(in[0]);
    case CellKind::kAnd2:
      return logic_and(in[0], in[1]);
    case CellKind::kAnd3:
      return logic_and(logic_and(in[0], in[1]), in[2]);
    case CellKind::kAnd4:
      return logic_and(logic_and(in[0], in[1]), logic_and(in[2], in[3]));
    case CellKind::kNand2:
      return logic_not(logic_and(in[0], in[1]));
    case CellKind::kNand3:
      return logic_not(logic_and(logic_and(in[0], in[1]), in[2]));
    case CellKind::kNand4:
      return logic_not(
          logic_and(logic_and(in[0], in[1]), logic_and(in[2], in[3])));
    case CellKind::kOr2:
      return logic_or(in[0], in[1]);
    case CellKind::kOr3:
      return logic_or(logic_or(in[0], in[1]), in[2]);
    case CellKind::kOr4:
      return logic_or(logic_or(in[0], in[1]), logic_or(in[2], in[3]));
    case CellKind::kNor2:
      return logic_not(logic_or(in[0], in[1]));
    case CellKind::kNor3:
      return logic_not(logic_or(logic_or(in[0], in[1]), in[2]));
    case CellKind::kNor4:
      return logic_not(
          logic_or(logic_or(in[0], in[1]), logic_or(in[2], in[3])));
    case CellKind::kXor2:
      return logic_xor(in[0], in[1]);
    case CellKind::kXnor2:
      return logic_not(logic_xor(in[0], in[1]));
    case CellKind::kMux2:
      return logic_mux(in[0], in[1], in[2]);
    case CellKind::kAoi21:
      return logic_not(logic_or(logic_and(in[0], in[1]), in[2]));
    case CellKind::kOai21:
      return logic_not(logic_and(logic_or(in[0], in[1]), in[2]));
    case CellKind::kDff:
    case CellKind::kDffR:
    case CellKind::kDffE:
    case CellKind::kMemory:
      throw InvalidArgument("eval_cell called on sequential cell");
  }
  throw InvalidArgument("eval_cell: unknown cell kind");
}

PackedLogic eval_cell_packed(CellKind kind, std::span<const PackedLogic> in) {
  switch (kind) {
    case CellKind::kConst0:
      return packed_splat(Logic::L0);
    case CellKind::kConst1:
      return packed_splat(Logic::L1);
    case CellKind::kBuf:
      return packed_not(packed_not(in[0]));
    case CellKind::kInv:
      return packed_not(in[0]);
    case CellKind::kAnd2:
      return packed_and(in[0], in[1]);
    case CellKind::kAnd3:
      return packed_and(packed_and(in[0], in[1]), in[2]);
    case CellKind::kAnd4:
      return packed_and(packed_and(in[0], in[1]), packed_and(in[2], in[3]));
    case CellKind::kNand2:
      return packed_not(packed_and(in[0], in[1]));
    case CellKind::kNand3:
      return packed_not(packed_and(packed_and(in[0], in[1]), in[2]));
    case CellKind::kNand4:
      return packed_not(
          packed_and(packed_and(in[0], in[1]), packed_and(in[2], in[3])));
    case CellKind::kOr2:
      return packed_or(in[0], in[1]);
    case CellKind::kOr3:
      return packed_or(packed_or(in[0], in[1]), in[2]);
    case CellKind::kOr4:
      return packed_or(packed_or(in[0], in[1]), packed_or(in[2], in[3]));
    case CellKind::kNor2:
      return packed_not(packed_or(in[0], in[1]));
    case CellKind::kNor3:
      return packed_not(packed_or(packed_or(in[0], in[1]), in[2]));
    case CellKind::kNor4:
      return packed_not(
          packed_or(packed_or(in[0], in[1]), packed_or(in[2], in[3])));
    case CellKind::kXor2:
      return packed_xor(in[0], in[1]);
    case CellKind::kXnor2:
      return packed_not(packed_xor(in[0], in[1]));
    case CellKind::kMux2:
      return packed_mux(in[0], in[1], in[2]);
    case CellKind::kAoi21:
      return packed_not(packed_or(packed_and(in[0], in[1]), in[2]));
    case CellKind::kOai21:
      return packed_not(packed_and(packed_or(in[0], in[1]), in[2]));
    case CellKind::kDff:
    case CellKind::kDffR:
    case CellKind::kDffE:
    case CellKind::kMemory:
      throw InvalidArgument("eval_cell_packed called on sequential cell");
  }
  throw InvalidArgument("eval_cell_packed: unknown cell kind");
}

}  // namespace ssresf::netlist
