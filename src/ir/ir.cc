#include "src/ir/ir.h"

#include <algorithm>

namespace vc {

size_t SlotTable::Probe(std::span<const Slot> slots, std::span<const SlotId> index,
                        const VarDecl* var, int field_index) {
  const size_t mask = index.size() - 1;
  uint64_t key = reinterpret_cast<uintptr_t>(var) ^ (static_cast<uint64_t>(field_index + 1) << 48);
  key *= 0x9E3779B97F4A7C15ull;
  for (size_t pos = static_cast<size_t>(key >> 32) & mask;; pos = (pos + 1) & mask) {
    const SlotId id = index[pos];
    if (id == kInvalidSlot || (slots[id].var == var && slots[id].field_index == field_index)) {
      return pos;
    }
  }
}

OperandList OperandList::Of(std::span<const ValueId> values, Arena& arena) {
  OperandList list;
  if (values.size() <= kInline) {
    for (ValueId value : values) {
      list.push_back(value);
    }
    return list;
  }
  const ValueId* copy = arena.Copy(values).data();
  list.size_ = static_cast<uint32_t>(values.size());
  std::memcpy(list.slots_, &copy, sizeof(copy));
  return list;
}

namespace {

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kConst:
      return "const";
    case Opcode::kLoad:
      return "load";
    case Opcode::kStore:
      return "store";
    case Opcode::kLoadInd:
      return "loadind";
    case Opcode::kStoreInd:
      return "storeind";
    case Opcode::kAddrSlot:
      return "addrslot";
    case Opcode::kAddrFunc:
      return "addrfunc";
    case Opcode::kFieldPtr:
      return "fieldptr";
    case Opcode::kBinOp:
      return "binop";
    case Opcode::kUnOp:
      return "unop";
    case Opcode::kCall:
      return "call";
    case Opcode::kRet:
      return "ret";
    case Opcode::kBr:
      return "br";
    case Opcode::kCondBr:
      return "condbr";
  }
  return "?";
}

}  // namespace

std::string IrFunction::Dump() const {
  std::string out = "function " + name + ":\n";
  for (const BasicBlock& block : blocks) {
    out += "bb" + std::to_string(block.id) + ":";
    if (!block.succs.empty()) {
      out += "  ; succs:";
      for (BlockId succ : block.succs) {
        out += " bb" + std::to_string(succ);
      }
    }
    out += "\n";
    for (const Instruction& inst : block.insts) {
      out += "  ";
      if (inst.result != kNoValue) {
        out += "%" + std::to_string(inst.result) + " = ";
      }
      out += OpcodeName(inst.op);
      if (inst.slot != kInvalidSlot) {
        out += " @";
        out += slots[inst.slot].name;
      }
      if (inst.op == Opcode::kConst) {
        out += " " + std::to_string(inst.const_value());
      }
      if (const FunctionDecl* callee = inst.callee()) {
        out += " ";
        out += callee->name;
      }
      for (ValueId operand : inst.operands) {
        out += " %" + std::to_string(operand);
      }
      if (inst.op == Opcode::kBr) {
        out += " bb" + std::to_string(inst.succ0);
      }
      if (inst.op == Opcode::kCondBr) {
        out += " bb" + std::to_string(inst.succ0) + " bb" + std::to_string(inst.succ1);
      }
      if (inst.is_synthetic_store) {
        out += "  ; ignored-result";
      }
      if (inst.is_increment) {
        out += "  ; increment " + std::to_string(inst.increment_amount());
      }
      out += "\n";
    }
  }
  return out;
}

IrFunction* IrModule::FindFunction(std::string_view name) const {
  for (const auto& func : functions) {
    if (func->name == name) {
      return func.get();
    }
  }
  return nullptr;
}

IrFootprint FunctionFootprint(const IrFunction& func) {
  IrFootprint fp;
  fp.bytes = sizeof(IrFunction);
  fp.bytes += static_cast<uint64_t>(func.slots.size()) * sizeof(Slot);
  fp.bytes += func.param_slots.size() * sizeof(SlotId);
  fp.bytes += func.return_locs.size() * sizeof(SourceLoc);
  fp.bytes += func.call_sites.size() * sizeof(CallSite);
  for (const BasicBlock& block : func.blocks) {
    fp.bytes += sizeof(BasicBlock);
    fp.bytes += (block.succs.size() + block.preds.size()) * sizeof(BlockId);
    fp.bytes += block.insts.size() * sizeof(Instruction);
    fp.instructions += block.insts.size();
    for (const Instruction& inst : block.insts) {
      if (inst.operands.in_arena()) {
        fp.bytes += inst.operands.size() * sizeof(ValueId);
      }
    }
  }
  return fp;
}

IrFootprint ModuleFootprint(const IrModule& module) {
  IrFootprint fp;
  for (const auto& func : module.functions) {
    fp += FunctionFootprint(*func);
  }
  return fp;
}

}  // namespace vc
