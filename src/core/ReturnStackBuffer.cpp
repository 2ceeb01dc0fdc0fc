//===- core/ReturnStackBuffer.cpp - The RSB σ -------------------------------===//

#include "core/ReturnStackBuffer.h"

#include "support/Hashing.h"

using namespace sct;

uint64_t ReturnStackBuffer::hash() const {
  return hashFields({journal().size(), JournalXor});
}

uint64_t ReturnStackBuffer::hashFromScratch() const {
  const std::vector<Entry> &J = journal();
  uint64_t Xor = 0;
  for (size_t Pos = 0; Pos < J.size(); ++Pos)
    Xor ^= contribution(Pos, J[Pos]);
  return hashFields({J.size(), Xor});
}

std::optional<PC> ReturnStackBuffer::top() const {
  // Replay the journal into a stack (the paper's JσK), then take the top.
  std::vector<PC> Stack;
  for (const Entry &E : journal()) {
    if (E.IsPush) {
      Stack.push_back(E.Target);
      continue;
    }
    if (!Stack.empty())
      Stack.pop_back();
  }
  if (Stack.empty())
    return std::nullopt;
  return Stack.back();
}

PC ReturnStackBuffer::topCircular(unsigned Size) const {
  assert(Size > 0 && "circular RSB needs at least one slot");
  std::vector<PC> Ring(Size, 0);
  unsigned Ptr = 0;
  for (const Entry &E : journal()) {
    if (E.IsPush) {
      Ptr = (Ptr + 1) % Size;
      Ring[Ptr] = E.Target;
      continue;
    }
    Ptr = (Ptr + Size - 1) % Size;
  }
  // The next pop reads the slot the pointer rests on; on underflow the
  // pointer has wrapped and exposes a stale (or zero) entry.
  return Ring[Ptr];
}

void ReturnStackBuffer::rollbackFrom(BufIdx I) {
  // Peek through the read view first: rollbacks that drop nothing (the
  // common case — most squashed windows contain no call/ret) must not
  // clone a shared journal.
  if (journal().empty() || journal().back().Idx < I)
    return;
  std::vector<Entry> &J = mutJournal();
  while (!J.empty() && J.back().Idx >= I) {
    JournalXor ^= contribution(J.size() - 1, J.back());
    J.pop_back();
  }
}
