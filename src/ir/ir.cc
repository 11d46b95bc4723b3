#include "src/ir/ir.h"

#include <algorithm>

namespace vc {

SlotId SlotTable::ForVar(const VarDecl* var) { return ForField(var, -1); }

size_t SlotTable::Probe(const VarDecl* var, int field_index) const {
  const size_t mask = index_.size() - 1;
  uint64_t key = reinterpret_cast<uintptr_t>(var) ^ (static_cast<uint64_t>(field_index + 1) << 48);
  key *= 0x9E3779B97F4A7C15ull;
  for (size_t pos = static_cast<size_t>(key >> 32) & mask;; pos = (pos + 1) & mask) {
    const SlotId id = index_[pos];
    if (id == kInvalidSlot ||
        (slots_[id].var == var && slots_[id].field_index == field_index)) {
      return pos;
    }
  }
}

void SlotTable::Rehash(size_t capacity) {
  index_.assign(capacity, kInvalidSlot);
  for (SlotId id = 0; id < size(); ++id) {
    if (!slots_[id].is_synthetic) {
      index_[Probe(slots_[id].var, slots_[id].field_index)] = id;
    }
  }
}

SlotId SlotTable::ForField(const VarDecl* var, int field_index) {
  if (2 * (keyed_ + 1) > static_cast<int>(index_.size())) {
    Rehash(index_.empty() ? 8 : 2 * index_.size());
  }
  const size_t pos = Probe(var, field_index);
  if (index_[pos] != kInvalidSlot) {
    return index_[pos];
  }
  Slot slot;
  slot.var = var;
  slot.field_index = field_index;
  slot.name = var->name;
  if (field_index >= 0) {
    slot.name += "#" + std::to_string(field_index);
  } else {
    slot.is_param = var->is_param;
  }
  SlotId id = static_cast<SlotId>(slots_.size());
  slots_.push_back(std::move(slot));
  index_[pos] = id;
  ++keyed_;
  return id;
}

SlotId SlotTable::NewSyntheticTemp() {
  Slot slot;
  slot.name = "_tmp" + std::to_string(next_temp_++);
  slot.is_synthetic = true;
  SlotId id = static_cast<SlotId>(slots_.size());
  slots_.push_back(std::move(slot));
  return id;
}

void OperandList::Assign(const ValueId* values, size_t count) {
  if (count > capacity_) {
    Release();
    Grow(static_cast<uint32_t>(count));
  }
  std::copy(values, values + count, data());
  size_ = static_cast<uint32_t>(count);
}

void OperandList::Grow(uint32_t capacity) {
  auto* heap = new ValueId[capacity];
  std::copy(begin(), end(), heap);
  if (on_heap()) {
    delete[] heap_;
  }
  heap_ = heap;
  capacity_ = capacity;
}

void OperandList::Take(OperandList& other) {
  size_ = other.size_;
  capacity_ = other.capacity_;
  if (other.on_heap()) {
    heap_ = other.heap_;
  } else {
    std::copy(other.begin(), other.end(), inline_);
  }
  other.size_ = 0;
  other.capacity_ = kInline;
}

void OperandList::Release() {
  if (on_heap()) {
    delete[] heap_;
  }
  size_ = 0;
  capacity_ = kInline;
}

void IrFunction::ComputeEdges() {
  for (auto& block : blocks) {
    block->succs.clear();
    block->preds.clear();
  }
  for (auto& block : blocks) {
    const Instruction* term = block->Terminator();
    if (term == nullptr) {
      continue;
    }
    if (term->op == Opcode::kBr) {
      block->succs.push_back(term->succ0);
    } else if (term->op == Opcode::kCondBr) {
      block->succs.push_back(term->succ0);
      block->succs.push_back(term->succ1);
    }
  }
  for (auto& block : blocks) {
    for (BlockId succ : block->succs) {
      blocks[succ]->preds.push_back(block->id);
    }
  }
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
  for (const auto& block : blocks) {
    out += "bb" + std::to_string(block->id) + ":";
    if (!block->succs.empty()) {
      out += "  ; succs:";
      for (BlockId succ : block->succs) {
        out += " bb" + std::to_string(succ);
      }
    }
    out += "\n";
    for (const Instruction& inst : block->insts) {
      out += "  ";
      if (inst.result != kNoValue) {
        out += "%" + std::to_string(inst.result) + " = ";
      }
      out += OpcodeName(inst.op);
      if (inst.slot != kInvalidSlot) {
        out += " @" + slots[inst.slot].name;
      }
      if (inst.op == Opcode::kConst) {
        out += " " + std::to_string(inst.const_value);
      }
      if (inst.callee != nullptr) {
        out += " " + inst.callee->name;
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
        out += "  ; increment " + std::to_string(inst.increment_amount);
      }
      out += "\n";
    }
  }
  return out;
}

IrFunction* IrModule::FindFunction(const std::string& name) const {
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
  for (const auto& block : func.blocks) {
    fp.bytes += sizeof(BasicBlock);
    fp.bytes += (block->succs.size() + block->preds.size()) * sizeof(BlockId);
    fp.bytes += block->insts.size() * sizeof(Instruction);
    fp.instructions += block->insts.size();
    for (const Instruction& inst : block->insts) {
      if (inst.operands.on_heap()) {
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
