//===- core/ReorderBuffer.cpp - The reorder buffer --------------------------===//

#include "core/ReorderBuffer.h"

#include "support/Hashing.h"

namespace sct {

uint64_t ReorderBuffer::hashFromScratch() const {
  uint64_t Xor = 0;
  if (!empty())
    for (BufIdx I = minIndex(); I <= maxIndex(); ++I)
      Xor ^= contribution(I, at(I));
  return hashFields({Base, size(), Xor});
}

std::string dumpReorderBuffer(const ReorderBuffer &Buf, const Program &P) {
  std::string Out;
  if (Buf.empty())
    return "  (empty)\n";
  for (BufIdx I = Buf.minIndex(); I <= Buf.maxIndex(); ++I)
    Out += "  " + std::to_string(I) + " -> " + Buf.at(I).str(P) + "\n";
  return Out;
}

} // namespace sct
