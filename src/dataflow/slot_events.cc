#include "src/dataflow/slot_events.h"

#include <algorithm>
#include <tuple>

namespace vc {

namespace {

bool IsStructVarSlot(const Slot& slot) {
  return slot.var != nullptr && slot.field_index < 0 && slot.var->type != nullptr &&
         slot.var->type->IsStruct();
}

}  // namespace

void SlotEvents::Build(const IrFunction& func) {
  func_ = &func;
  num_slots_ = func.slots.size();
  events_.clear();
  stores_.clear();
  block_begin_.resize(func.blocks.size() + 1);
  for (size_t b = 0; b < func.blocks.size(); ++b) {
    block_begin_[b] = static_cast<uint32_t>(events_.size());
    const std::span<const Instruction> insts = func.blocks[b].insts;
    for (size_t j = 0; j < insts.size(); ++j) {
      const Instruction& inst = insts[j];
      if (inst.op != Opcode::kLoad && inst.op != Opcode::kStore && inst.op != Opcode::kAddrSlot) {
        continue;
      }
      if (inst.op == Opcode::kStore) {
        stores_.push_back({inst.slot, inst.loc, static_cast<uint32_t>(events_.size())});
      }
      events_.push_back({inst.op, inst.slot, -1, static_cast<uint32_t>(j)});
    }
  }
  block_begin_.back() = static_cast<uint32_t>(events_.size());
  BuildMasks();
  NumberStores();
  BuildSummaries();
}

void SlotEvents::BuildMasks() {
  const SlotTable& slots = func_->slots;
  fields_.clear();
  for (SlotId field = 0; field < num_slots_; ++field) {
    const Slot& slot = slots[field];
    if (slot.var == nullptr || slot.field_index < 0) {
      continue;
    }
    const SlotId whole = slots.FindVar(slot.var);
    if (whole != kInvalidSlot && IsStructVarSlot(slots[whole])) {
      fields_.push_back({whole, field});
    }
  }
  std::sort(fields_.begin(), fields_.end());

  masks_.clear();
  mask_begin_.resize(num_slots_ + 1);
  size_t next_field = 0;
  for (SlotId s = 0; s < num_slots_; ++s) {
    mask_begin_[s] = static_cast<uint32_t>(masks_.size());
    auto add_bit = [&](SlotId bit) {
      const uint32_t word = static_cast<uint32_t>(bit) >> 6;
      if (masks_.size() == mask_begin_[s] || masks_.back().word != word) {
        masks_.push_back({word, 0});
      }
      masks_.back().bits |= uint64_t{1} << (bit & 63);
    };
    add_bit(s);
    for (; next_field < fields_.size() && fields_[next_field].first == s; ++next_field) {
      add_bit(fields_[next_field].second);
    }
  }
  mask_begin_[num_slots_] = static_cast<uint32_t>(masks_.size());
}

void SlotEvents::NumberStores() {
  std::sort(stores_.begin(), stores_.end(), [](const StoreRef& a, const StoreRef& b) {
    return std::tie(a.slot, a.loc) < std::tie(b.slot, b.loc);
  });
  store_locs_.clear();
  store_begin_.assign(num_slots_ + 1, 0);
  for (size_t k = 0; k < stores_.size(); ++k) {
    const StoreRef& ref = stores_[k];
    if (k == 0 || ref.slot != stores_[k - 1].slot || ref.loc != stores_[k - 1].loc) {
      store_locs_.push_back(ref.loc);
      ++store_begin_[ref.slot + 1];
    }
    events_[ref.event].store = static_cast<int32_t>(store_locs_.size()) - 1;
  }
  for (SlotId s = 0; s < num_slots_; ++s) {
    store_begin_[s + 1] += store_begin_[s];
  }
}

void SlotEvents::BuildSummaries() {
  const size_t num_blocks = func_->blocks.size();
  const size_t live_words = SlotSet::WordsFor(num_slots_);
  const size_t define_words = SlotSet::WordsFor(num_stores());
  live_gen_.assign(num_blocks * live_words, 0);
  live_kill_.assign(num_blocks * live_words, 0);
  define_gen_.assign(num_blocks * define_words, 0);
  define_kill_.assign(num_blocks * define_words, 0);
  // Composing the block's transfers backward, each step keeps the form
  // in = (out & ~kill) | gen: a use adds its mask to gen; a store adds its
  // mask to kill and takes it out of gen, and makes its number the slot's
  // only one in the define gen.
  for (size_t b = 0; b < num_blocks; ++b) {
    uint64_t* live_gen = &live_gen_[b * live_words];
    uint64_t* live_kill = &live_kill_[b * live_words];
    uint64_t* define_gen = &define_gen_[b * define_words];
    uint64_t* define_kill = &define_kill_[b * define_words];
    const std::span<const SlotEvent> events = Block(static_cast<BlockId>(b));
    for (size_t k = events.size(); k-- > 0;) {
      const SlotEvent& event = events[k];
      if (event.op != Opcode::kStore) {
        AddMask(event.slot, live_gen);
        continue;
      }
      AddMask(event.slot, live_kill);
      RemoveMask(event.slot, live_gen);
      SetBits(define_kill, StoresBegin(event.slot), StoresEnd(event.slot), true);
      ReplaceStore(event.slot, event.store, define_gen);
    }
  }
}

}  // namespace vc
