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
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/ast/ast.h"
#include "src/support/arena.h"
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
  std::string_view name;         // "v" or "v#<field-index>" or "_tmp<N>"
  const VarDecl* var = nullptr;  // null for synthetic temps
  int field_index = -1;          // >= 0 when this is a field slot
  bool is_param = false;         // whole-variable slot of a parameter
  bool is_synthetic = false;     // temp for an ignored call result

  bool IsFieldSlot() const { return field_index >= 0; }
};

// A function's slots and the table that finds a variable's slot, both in
// the module's arena. Lowering fills them (see ir_builder.cc); afterwards
// they are read-only.
class SlotTable {
 public:
  SlotTable() = default;
  SlotTable(std::span<const Slot> slots, std::span<const SlotId> index)
      : slots_(slots), index_(index) {}

  // Lookups that return kInvalidSlot when the slot is absent.
  SlotId FindVar(const VarDecl* var) const { return Find(var, -1); }
  SlotId Find(const VarDecl* var, int field_index) const {
    return index_.empty() ? kInvalidSlot : index_[Probe(slots_, index_, var, field_index)];
  }

  const Slot& operator[](SlotId id) const { return slots_[id]; }
  int size() const { return static_cast<int>(slots_.size()); }

  // The position in `index` that holds (var, field_index)'s slot, or the
  // empty position where it would go. `index` is an open-addressing table
  // over the variable slots (synthetic temps have no key): a power of two
  // positions, each a slot id or kInvalidSlot, at most half full, probed
  // linearly from the key's hash. It must not be empty.
  static size_t Probe(std::span<const Slot> slots, std::span<const SlotId> index,
                      const VarDecl* var, int field_index);

 private:
  std::span<const Slot> slots_;
  std::span<const SlotId> index_;
};

enum class Opcode : uint8_t {
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

// An instruction's operand values: up to kInline of them inline, more in the
// module's arena. Nearly every instruction has at most two (a call's
// arguments and the `?:` value are the exceptions). Trivially copyable: a
// copy of a longer list shares the arena's values.
class OperandList {
 public:
  static constexpr uint32_t kInline = 2;

  OperandList() = default;
  // At most kInline values.
  OperandList(std::initializer_list<ValueId> values) {
    for (ValueId value : values) {
      push_back(value);
    }
  }
  // `values`, inline when they fit and copied into `arena` when not.
  static OperandList Of(std::span<const ValueId> values, Arena& arena);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // True when the values live in the arena (more than kInline of them).
  bool in_arena() const { return size_ > kInline; }
  ValueId operator[](size_t i) const { return data()[i]; }
  const ValueId* begin() const { return data(); }
  const ValueId* end() const { return data() + size_; }

  // Appends to an inline list (at most kInline values).
  void push_back(ValueId value) { slots_[size_++] = value; }

 private:
  const ValueId* data() const {
    if (!in_arena()) {
      return slots_;
    }
    const ValueId* values;
    std::memcpy(&values, slots_, sizeof(values));
    return values;
  }

  uint32_t size_ = 0;
  // The values, or (past kInline) the address of the arena's copy.
  ValueId slots_[kInline] = {};
};
static_assert(sizeof(const ValueId*) <= sizeof(ValueId) * OperandList::kInline);

// 64 bytes, trivially copyable: a finished block's instructions move into
// the arena with one memcpy. The store annotations are bits, and fields no
// opcode uses together share storage behind accessors.
struct Instruction {
  Opcode op = Opcode::kConst;

  // --- Store annotations (kStore, kStoreInd) ---
  // This store materializes an ignored call result into a synthetic temp.
  bool is_synthetic_store : 1 = false;
  // The stored value is `load(this->slot) ± const` (cursor-shaped).
  bool is_increment : 1 = false;
  // The stored value is a literal constant.
  bool is_const_store : 1 = false;
  // The store comes from a declaration initializer ("int x = ...;").
  bool is_decl_init : 1 = false;

  ValueId result = kNoValue;
  SlotId slot = kInvalidSlot;
  int32_t field_index = -1;  // kFieldPtr
  // kBr / kCondBr targets.
  BlockId succ0 = -1;
  BlockId succ1 = -1;
  SourceLoc loc;
  OperandList operands;

  // kConst: the constant. A store: the literal it stores (is_const_store)
  // or its step (is_increment); no store is both. Read it through
  // const_value() and increment_amount().
  long long number = 0;
  // kCall / kAddrFunc: the function (for kCall, possibly an implicit
  // external prototype; null for a call through a function pointer, whose
  // operands[0] is the callee value and the rest its arguments). A store:
  // the function whose call result it stores directly. Read it through
  // callee() and origin_callee().
  const FunctionDecl* function = nullptr;

  long long const_value() const {
    return op == Opcode::kConst || is_const_store ? number : 0;
  }
  long long increment_amount() const { return is_increment ? number : 0; }
  const FunctionDecl* callee() const {
    return op == Opcode::kCall || op == Opcode::kAddrFunc ? function : nullptr;
  }
  const FunctionDecl* origin_callee() const {
    return op == Opcode::kStore || op == Opcode::kStoreInd ? function : nullptr;
  }
};
static_assert(sizeof(Instruction) <= 64);
static_assert(std::is_trivially_copyable_v<Instruction>);

// A block and its edges; the spans view the module's arena.
struct BasicBlock {
  BlockId id = 0;
  std::span<const Instruction> insts;
  std::span<const BlockId> succs;
  std::span<const BlockId> preds;

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

// One lowered function. Everything but its name lives in its module's
// arena, so a function is valid as long as its module is.
class IrFunction {
 public:
  std::string name;
  const FunctionDecl* decl = nullptr;
  SlotTable slots;
  std::span<const BasicBlock> blocks;
  std::span<const SlotId> param_slots;
  // Source locations of every return statement; the authorship phase compares
  // call-site authors against these (getRetAuthor in the paper's notation).
  std::span<const SourceLoc> return_locs;
  // Every call emitted from this function's body, with whether the result was
  // consumed at the call site. Feeds authorship lookup (call-site authors) and
  // peer-definition pruning (usage ratios across a callee's call sites).
  std::span<const CallSite> call_sites;
  ValueId next_value = 0;

  const BasicBlock* Entry() const { return blocks.empty() ? nullptr : &blocks.front(); }

  // Debug listing of all instructions.
  std::string Dump() const;
};

// IR for one translation unit. The module's arena holds, at exact size,
// every function's blocks, instructions (with operands past kInline), edges,
// slots with their names, slot index, parameter slots, return locations and
// call sites; freeing the module frees its chunks and one object per
// function. The IR points into the unit's AST (slot variables, callees), so
// the translation unit must outlive its module.
class IrModule {
 public:
  IrModule() = default;
  explicit IrModule(size_t first_chunk_bytes) : arena(first_chunk_bytes) {}

  FileId file = kInvalidFileId;
  Arena arena;
  std::vector<std::unique_ptr<IrFunction>> functions;

  IrFunction* FindFunction(std::string_view name) const;
};

// Sizeof-based memory footprint of lowered IR, for the memory tracker.
// Counts element sizes (the arena holds each array at exact size) so the
// result is exact and identical at any --jobs value; operands count only when they live in the
// arena, and slot name storage is attributed to the interned-strings
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
