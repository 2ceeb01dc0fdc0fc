//===- isa/Opcode.cpp - Operation codes -----------------------------------===//

#include "isa/Opcode.h"

#include <array>
#include <cassert>

using namespace sct;

unsigned sct::opcodeArity(Opcode Opc) {
  switch (Opc) {
  case Opcode::True:
  case Opcode::False:
    return 0;
  case Opcode::Not:
  case Opcode::Neg:
  case Opcode::Mov:
  case Opcode::Succ:
  case Opcode::Pred:
    return 1;
  case Opcode::Select:
    return 3;
  default:
    return 2;
  }
}

bool sct::isCondition(Opcode Opc) {
  switch (Opc) {
  case Opcode::Eq:
  case Opcode::Ne:
  case Opcode::Ult:
  case Opcode::Ule:
  case Opcode::Ugt:
  case Opcode::Uge:
  case Opcode::Slt:
  case Opcode::Sle:
  case Opcode::Sgt:
  case Opcode::Sge:
  case Opcode::True:
  case Opcode::False:
    return true;
  default:
    return false;
  }
}

std::string_view sct::opcodeName(Opcode Opc) {
  switch (Opc) {
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::UDiv:
    return "udiv";
  case Opcode::URem:
    return "urem";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return "or";
  case Opcode::Xor:
    return "xor";
  case Opcode::Shl:
    return "shl";
  case Opcode::Shr:
    return "shr";
  case Opcode::Not:
    return "not";
  case Opcode::Neg:
    return "neg";
  case Opcode::Mov:
    return "mov";
  case Opcode::Select:
    return "select";
  case Opcode::Eq:
    return "eq";
  case Opcode::Ne:
    return "ne";
  case Opcode::Ult:
    return "ult";
  case Opcode::Ule:
    return "ule";
  case Opcode::Ugt:
    return "ugt";
  case Opcode::Uge:
    return "uge";
  case Opcode::Slt:
    return "slt";
  case Opcode::Sle:
    return "sle";
  case Opcode::Sgt:
    return "sgt";
  case Opcode::Sge:
    return "sge";
  case Opcode::True:
    return "true";
  case Opcode::False:
    return "false";
  case Opcode::Succ:
    return "succ";
  case Opcode::Pred:
    return "pred";
  }
  assert(false && "unknown opcode");
  return "<invalid>";
}

std::optional<Opcode> sct::parseOpcode(std::string_view Name) {
  static constexpr Opcode All[] = {
      Opcode::Add,  Opcode::Sub, Opcode::Mul,    Opcode::UDiv, Opcode::URem,
      Opcode::And,  Opcode::Or,  Opcode::Xor,    Opcode::Shl,  Opcode::Shr,
      Opcode::Not,  Opcode::Neg, Opcode::Mov,    Opcode::Select,
      Opcode::Eq,   Opcode::Ne,  Opcode::Ult,    Opcode::Ule,  Opcode::Ugt,
      Opcode::Uge,  Opcode::Slt, Opcode::Sle,    Opcode::Sgt,  Opcode::Sge,
      Opcode::True, Opcode::False, Opcode::Succ, Opcode::Pred};
  static const std::array<std::string_view, std::size(All)> Names = [] {
    std::array<std::string_view, std::size(All)> Table;
    for (size_t I = 0; I < Table.size(); ++I)
      Table[I] = opcodeName(All[I]);
    return Table;
  }();
  for (size_t I = 0; I < Names.size(); ++I)
    // Most mnemonics are three letters: the first one rules most out.
    if (Names[I].size() == Name.size() && Names[I][0] == Name[0] &&
        Names[I] == Name)
      return All[I];
  return std::nullopt;
}
