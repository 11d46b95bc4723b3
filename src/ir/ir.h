// Load/store intermediate representation with explicit control flow.
//
// ValueCheck's detection algorithm (paper Fig. 4) is phrased over load and
// store instructions on a control-flow graph: a store to a slot that is not
// live afterwards is an unused definition. This IR makes that direct:
//
//  * Every local variable, parameter, and field of a struct-typed local gets
//    a MemorySlot ("v" or "v#i", the paper's field-sensitive naming).
//  * Reads lower to kLoad, writes to kStore; pointer dereferences lower to
//    kLoadInd/kStoreInd through computed addresses.
//  * Ignored call results lower to a store into a synthetic temp slot — the
//    paper's "implicit definition [tmp] = printf()" — so unused return values
//    fall out of the same liveness pass.
//  * Stores carry annotations (call origin, constant, increment-of-self,
//    declaration initializer) consumed by the pruning passes.

#ifndef VALUECHECK_SRC_IR_IR_H_
#define VALUECHECK_SRC_IR_IR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "src/ast/ast.h"
#include "src/support/source_location.h"

namespace vc {

// Index of a slot within its function's SlotTable.
using SlotId = int32_t;
inline constexpr SlotId kInvalidSlot = -1;

// Index of a basic block within its function.
using BlockId = int32_t;

// SSA-ish value number produced by an instruction; -1 = no result.
using ValueId = int32_t;
inline constexpr ValueId kNoValue = -1;

struct Slot {
  std::string name;              // "v" or "v#<field-index>" or "_tmp<N>"
  const VarDecl* var = nullptr;  // null for synthetic temps
  int field_index = -1;          // >= 0 when this is a field slot
  bool is_param = false;         // whole-variable slot of a parameter
  bool is_synthetic = false;     // temp for an ignored call result

  bool IsFieldSlot() const { return field_index >= 0; }
};

class SlotTable {
 public:
  // Returns the slot for `var` (whole variable), creating it if needed.
  SlotId ForVar(const VarDecl* var);
  // Returns the field-sensitive slot for `var` field `field_index`.
  SlotId ForField(const VarDecl* var, int field_index);
  // Creates a fresh synthetic temp slot (ignored call result).
  SlotId NewSyntheticTemp();

  // Const lookups that never create slots; return kInvalidSlot when absent.
  SlotId FindVar(const VarDecl* var) const { return Find(var, -1); }
  SlotId Find(const VarDecl* var, int field_index) const {
    return index_.empty() ? kInvalidSlot : index_[Probe(var, field_index)];
  }

  const Slot& operator[](SlotId id) const { return slots_[id]; }
  int size() const { return static_cast<int>(slots_.size()); }

 private:
  // The index_ position that holds (var, field_index)'s slot, or the empty
  // position where it would go. index_ must not be empty.
  size_t Probe(const VarDecl* var, int field_index) const;
  // Rebuilds index_ at `capacity` positions (a power of two).
  void Rehash(size_t capacity);

  std::vector<Slot> slots_;
  // Open-addressing table over the variable slots (synthetic temps have no
  // key): each position holds a slot id or kInvalidSlot, at most half full,
  // probed linearly from the key's hash. Empty until the first variable.
  std::vector<SlotId> index_;
  int keyed_ = 0;  // slots in index_
  int next_temp_ = 0;
};

enum class Opcode {
  kConst,      // result = <const_value>
  kLoad,       // result = load <slot>
  kStore,      // store <operand0> -> <slot>
  kLoadInd,    // result = load *<operand0>
  kStoreInd,   // store <operand1> -> *<operand0>
  kAddrSlot,   // result = &<slot>
  kAddrFunc,   // result = &<callee>
  kFieldPtr,   // result = &(<operand0>-><field_index>)
  kBinOp,      // result = op(<operand0>, <operand1>)
  kUnOp,       // result = op(<operand0>)
  kCall,       // result = call <callee>(<operands>) | call *<operand0>(...)
  kRet,        // ret [<operand0>]
  kBr,         // br <succ0>
  kCondBr,     // condbr <operand0>, <succ0>, <succ1>
};

// An instruction's operand values: up to kInline of them inline, more on the
// heap. Nearly every instruction has at most two (a call's arguments and the
// `?:` value are the exceptions), so most lists never allocate.
class OperandList {
 public:
  static constexpr uint32_t kInline = 2;

  OperandList() = default;
  OperandList(std::initializer_list<ValueId> values) { Assign(values.begin(), values.size()); }
  OperandList(const OperandList& other) { Assign(other.begin(), other.size()); }
  OperandList(OperandList&& other) noexcept { Take(other); }
  OperandList& operator=(const OperandList& other) {
    if (this != &other) {
      Assign(other.begin(), other.size());
    }
    return *this;
  }
  OperandList& operator=(OperandList&& other) noexcept {
    if (this != &other) {
      Release();
      Take(other);
    }
    return *this;
  }
  OperandList& operator=(std::initializer_list<ValueId> values) {
    Assign(values.begin(), values.size());
    return *this;
  }
  ~OperandList() { Release(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // True when the values live on the heap (more than kInline of them ever).
  bool on_heap() const { return capacity_ > kInline; }
  ValueId operator[](size_t i) const { return data()[i]; }
  ValueId& operator[](size_t i) { return data()[i]; }
  const ValueId* begin() const { return data(); }
  const ValueId* end() const { return data() + size_; }

  void push_back(ValueId value) {
    if (size_ == capacity_) {
      Grow(capacity_ * 2);
    }
    data()[size_++] = value;
  }
  void clear() { size_ = 0; }

 private:
  const ValueId* data() const { return on_heap() ? heap_ : inline_; }
  ValueId* data() { return on_heap() ? heap_ : inline_; }
  void Assign(const ValueId* values, size_t count);
  void Grow(uint32_t capacity);
  void Take(OperandList& other);
  void Release();

  uint32_t size_ = 0;
  uint32_t capacity_ = kInline;
  union {
    ValueId inline_[kInline] = {};
    ValueId* heap_;
  };
};

struct Instruction {
  Opcode op = Opcode::kConst;
  ValueId result = kNoValue;
  SlotId slot = kInvalidSlot;
  OperandList operands;
  SourceLoc loc;

  long long const_value = 0;  // kConst
  int field_index = -1;       // kFieldPtr

  // kCall: direct callee (possibly an implicit external prototype); null for
  // calls through a function pointer, in which case operands[0] is the callee
  // value and the remaining operands are arguments.
  const FunctionDecl* callee = nullptr;

  // kBr / kCondBr targets.
  BlockId succ0 = -1;
  BlockId succ1 = -1;

  // --- Store annotations (kStore only) ---
  // The stored value is directly the result of a call to `origin_callee`.
  const FunctionDecl* origin_callee = nullptr;
  // This store materializes an ignored call result into a synthetic temp.
  bool is_synthetic_store = false;
  // The stored value is `load(this->slot) ± const` (cursor-shaped).
  bool is_increment = false;
  long long increment_amount = 0;
  // The stored value is a literal constant.
  bool is_const_store = false;
  // The store comes from a declaration initializer ("int x = ...;").
  bool is_decl_init = false;
};

struct BasicBlock {
  BlockId id = 0;
  std::vector<Instruction> insts;
  std::vector<BlockId> succs;
  std::vector<BlockId> preds;

  const Instruction* Terminator() const {
    return insts.empty() ? nullptr : &insts.back();
  }
};

class IrFunction;

// One call site of a (possibly external) function, recorded for authorship
// lookup and peer-definition pruning.
struct CallSite {
  const FunctionDecl* callee = nullptr;
  const IrFunction* caller = nullptr;
  SourceLoc loc;
  // True when the call result is assigned/used at the call site; false when
  // the result is ignored (lowered to a synthetic temp store).
  bool result_assigned = false;
};

class IrFunction {
 public:
  std::string name;
  const FunctionDecl* decl = nullptr;
  SlotTable slots;
  std::vector<std::unique_ptr<BasicBlock>> blocks;
  std::vector<SlotId> param_slots;
  // Source locations of every return statement; the authorship phase compares
  // call-site authors against these (getRetAuthor in the paper's notation).
  std::vector<SourceLoc> return_locs;
  // Every call emitted from this function's body, with whether the result was
  // consumed at the call site. Feeds authorship lookup (call-site authors) and
  // peer-definition pruning (usage ratios across a callee's call sites).
  std::vector<CallSite> call_sites;
  ValueId next_value = 0;

  BasicBlock* Entry() const { return blocks.empty() ? nullptr : blocks.front().get(); }

  BasicBlock* NewBlock() {
    auto block = std::make_unique<BasicBlock>();
    block->id = static_cast<BlockId>(blocks.size());
    BasicBlock* raw = block.get();
    blocks.push_back(std::move(block));
    return raw;
  }

  // Populates succs/preds from terminators. Called once after construction.
  void ComputeEdges();

  // Debug listing of all instructions.
  std::string Dump() const;
};

// IR for one translation unit plus module-level indexes.
class IrModule {
 public:
  FileId file = kInvalidFileId;
  std::vector<std::unique_ptr<IrFunction>> functions;

  IrFunction* FindFunction(const std::string& name) const;
};

// Sizeof-based memory footprint of lowered IR, for the memory tracker.
// Counts element sizes (not vector capacities) so the result is exact and
// identical at any --jobs value; operands count only when they live on the
// heap, and out-of-line string storage is attributed to the interned-strings
// category by the caller, not here.
struct IrFootprint {
  uint64_t bytes = 0;
  uint64_t instructions = 0;

  IrFootprint& operator+=(const IrFootprint& other) {
    bytes += other.bytes;
    instructions += other.instructions;
    return *this;
  }
};

IrFootprint FunctionFootprint(const IrFunction& func);
IrFootprint ModuleFootprint(const IrModule& module);

}  // namespace vc

#endif  // VALUECHECK_SRC_IR_IR_H_
