// The per-function facts every dataflow pass reads, computed once per
// function so that no sweep or replay re-derives them from the IR or the AST:
//
//  * Each block's slot events: its loads, stores and address-of
//    instructions in block order. Nothing else touches a slot directly, so
//    the transfers walk these and never the value operations.
//  * Each slot's mask: the slot itself and, for a whole struct variable, its
//    field slots (reading the whole struct reads each field, overwriting it
//    overwrites each), kept as (word, bits) pairs of a SlotSet.
//  * The stores numbered in (slot, location) order, one number per distinct
//    pair, so one slot's stores form one index range: the members of a
//    DefineMap.
//  * Each block's transfer summaries: a block's backward transfer is
//    in = (out & ~kill) | gen, for liveness over slots and for the define
//    sets over store numbers, so a fix-point sweep is a few word operations
//    per block.
//
// Build() reuses the object's buffers: a thread that keeps one SlotEvents
// allocates only when a function is larger than every one before it.

#ifndef VALUECHECK_SRC_DATAFLOW_SLOT_EVENTS_H_
#define VALUECHECK_SRC_DATAFLOW_SLOT_EVENTS_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/dataflow/slot_set.h"
#include "src/ir/ir.h"
#include "src/support/fault.h"

namespace vc {

struct SlotEvent {
  Opcode op = Opcode::kLoad;  // kLoad, kStore or kAddrSlot
  SlotId slot = kInvalidSlot;
  int32_t store = -1;         // kStore: the store's number
  uint32_t inst = 0;          // index in the block's insts
};

class SlotEvents {
 public:
  SlotEvents() = default;
  explicit SlotEvents(const IrFunction& func) { Build(func); }

  // Computes the facts of `func`, which must outlive their use.
  void Build(const IrFunction& func);

  const IrFunction& func() const { return *func_; }
  int num_slots() const { return num_slots_; }
  int num_stores() const { return static_cast<int>(store_locs_.size()); }

  std::span<const SlotEvent> Block(BlockId block) const {
    return {events_.data() + block_begin_[block], events_.data() + block_begin_[block + 1]};
  }

  // words |= mask(slot), and words &= ~mask(slot), over words of a set of
  // num_slots() slots.
  void AddMask(SlotId slot, uint64_t* words) const {
    for (uint32_t k = mask_begin_[slot]; k < mask_begin_[slot + 1]; ++k) {
      words[masks_[k].word] |= masks_[k].bits;
    }
  }
  void RemoveMask(SlotId slot, uint64_t* words) const {
    for (uint32_t k = mask_begin_[slot]; k < mask_begin_[slot + 1]; ++k) {
      words[masks_[k].word] &= ~masks_[k].bits;
    }
  }

  // A store's backward define-set transfer over words of a set of
  // num_stores() store numbers: `store` becomes `slot`'s only next
  // definition.
  void ReplaceStore(SlotId slot, int32_t store, uint64_t* words) const {
    SetBits(words, StoresBegin(slot), StoresEnd(slot), false);
    words[store >> 6] |= uint64_t{1} << (store & 63);
  }

  // `slot`'s store numbers are [StoresBegin(slot), StoresEnd(slot)), in
  // location order.
  int StoresBegin(SlotId slot) const { return store_begin_[slot]; }
  int StoresEnd(SlotId slot) const { return store_begin_[slot + 1]; }
  SourceLoc StoreLoc(int store) const { return store_locs_[store]; }

  // The blocks' transfer summaries, block after block: liveness over
  // SlotSet::WordsFor(num_slots()) words each, the define sets over
  // SlotSet::WordsFor(num_stores()).
  const uint64_t* live_gen() const { return live_gen_.data(); }
  const uint64_t* live_kill() const { return live_kill_.data(); }
  const uint64_t* define_gen() const { return define_gen_.data(); }
  const uint64_t* define_kill() const { return define_kill_.data(); }

 private:
  struct MaskWord {
    uint32_t word = 0;
    uint64_t bits = 0;
  };

  void BuildMasks();
  void NumberStores();
  void BuildSummaries();

  const IrFunction* func_ = nullptr;
  int num_slots_ = 0;
  std::vector<SlotEvent> events_;
  std::vector<uint32_t> block_begin_;  // block b's events: [block_begin_[b], block_begin_[b + 1])
  std::vector<MaskWord> masks_;
  std::vector<uint32_t> mask_begin_;   // slot s's mask: [mask_begin_[s], mask_begin_[s + 1])
  std::vector<SourceLoc> store_locs_;  // by store number
  std::vector<int32_t> store_begin_;   // per slot, plus the end
  std::vector<uint64_t> live_gen_;
  std::vector<uint64_t> live_kill_;
  std::vector<uint64_t> define_gen_;
  std::vector<uint64_t> define_kill_;
  // Build-time scratch: (whole struct slot, field slot) pairs, and
  // (slot, location, event) triples of the stores.
  std::vector<std::pair<SlotId, SlotId>> fields_;
  struct StoreRef {
    SlotId slot;
    SourceLoc loc;
    uint32_t event;
  };
  std::vector<StoreRef> stores_;
};

// The sweeps both backward analyses run to their fix point: the blocks in
// reverse order (which converges quickly on reducible CFGs), each charged
// its instructions plus one, setting out = union of the successors' in and
// in = (out & ~kill) | gen, until a sweep changes nothing. `gen` and `kill`
// hold `num_words` words per block, and so does each state's words().
// Returns the number of sweeps.
template <typename State>
int SweepToFixPoint(const IrFunction& func, uint32_t num_words, const uint64_t* gen,
                    const uint64_t* kill, std::vector<State>& in, std::vector<State>& out,
                    BudgetMeter* meter) {
  int sweeps = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    ++sweeps;
    for (size_t i = func.blocks.size(); i-- > 0;) {
      const BasicBlock& block = *func.blocks[i];
      if (meter != nullptr) {
        meter->Charge(block.insts.size() + 1);
      }
      uint64_t* block_out = out[i].words();
      uint64_t* block_in = in[i].words();
      const uint64_t* block_gen = gen + i * num_words;
      const uint64_t* block_kill = kill + i * num_words;
      for (uint32_t w = 0; w < num_words; ++w) {
        uint64_t word = 0;
        for (BlockId succ : block.succs) {
          word |= in[succ].words()[w];
        }
        changed |= word != block_out[w];
        block_out[w] = word;
      }
      for (uint32_t w = 0; w < num_words; ++w) {
        const uint64_t word = (block_out[w] & ~block_kill[w]) | block_gen[w];
        changed |= word != block_in[w];
        block_in[w] = word;
      }
    }
  }
  return sweeps;
}

}  // namespace vc

#endif  // VALUECHECK_SRC_DATAFLOW_SLOT_EVENTS_H_
