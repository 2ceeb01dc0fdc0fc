//===- core/Configuration.cpp - Machine configurations ----------------------===//

#include "core/Configuration.h"

#include "support/Hashing.h"

using namespace sct;

uint64_t Configuration::hash() {
  // Mirrors the const overload below, but picks ReorderBuffer's non-const
  // hash(): it folds pending contributions and then skips the per-chunk
  // pending walk entirely — this is the explorer's per-step probe path.
  uint64_t H = hashCombine(HashSeed, Regs.hash());
  H = hashCombine(H, Mem.hash());
  H = hashCombine(H, N);
  H = hashCombine(H, Buf.hash());
  H = hashCombine(H, Rsb.hash());
  return H;
}

uint64_t Configuration::hash() const {
  uint64_t H = hashCombine(HashSeed, Regs.hash());
  H = hashCombine(H, Mem.hash());
  H = hashCombine(H, N);
  H = hashCombine(H, Buf.hash());
  H = hashCombine(H, Rsb.hash());
  return H;
}

uint64_t Configuration::hashFromScratch() const {
  uint64_t H = hashCombine(HashSeed, Regs.hashFromScratch());
  H = hashCombine(H, Mem.hashFromScratch());
  H = hashCombine(H, N);
  H = hashCombine(H, Buf.hashFromScratch());
  H = hashCombine(H, Rsb.hashFromScratch());
  return H;
}

Configuration Configuration::initial(const Program &P) {
  Configuration C;
  C.Regs = RegisterFile(P.numRegs());
  for (const auto &[R, V] : P.regInits())
    C.Regs.set(R, Value::pub(V));
  C.Mem = Memory(P.regions());
  for (const auto &[Addr, V] : P.memInits())
    C.Mem.store(Addr, Value(V, C.Mem.defaultLabel(Addr)));
  C.N = P.entry();
  return C;
}
