//===- support/InlineVector.h - Small-buffer vector ------------*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal small-buffer vector: up to `N` elements live inline in the
/// object, larger sequences spill to the heap.  Reorder-buffer entries
/// carry short operand lists (address expressions are one or two operands,
/// condition argument lists rarely more), and a configuration is copied at
/// every schedule fork — inlining the common case removes one heap
/// allocation and one pointer chase per entry per fork, which is where the
/// engine's copy time goes (see ARCHITECTURE.md, "memory layout &
/// allocation").
///
/// Deliberately tiny interface: construction from a span, push_back,
/// indexing, iteration, equality.  Elements must be copyable; the inline
/// case is kept trivially relocatable by requiring nothing beyond copy
/// construction.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_SUPPORT_INLINEVECTOR_H
#define SCT_SUPPORT_INLINEVECTOR_H

#include <cassert>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

namespace sct {

/// A vector whose first \p N elements are stored inline.
template <typename T, unsigned N> class InlineVector {
public:
  InlineVector() = default;

  InlineVector(std::span<const T> Elems) { assign(Elems); }
  InlineVector(std::initializer_list<T> Elems) {
    assign(std::span<const T>(Elems.begin(), Elems.size()));
  }

  InlineVector(const InlineVector &Other) {
    assign(std::span<const T>(Other.data(), Other.size()));
  }
  InlineVector(InlineVector &&Other) noexcept { stealFrom(Other); }

  InlineVector &operator=(const InlineVector &Other) {
    if (this != &Other) {
      clear();
      assign(std::span<const T>(Other.data(), Other.size()));
    }
    return *this;
  }
  InlineVector &operator=(InlineVector &&Other) noexcept {
    if (this != &Other) {
      clear();
      stealFrom(Other);
    }
    return *this;
  }

  ~InlineVector() { clear(); }

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }

  const T *data() const {
    return Size <= N ? inlineData() : Heap;
  }
  T *data() { return Size <= N ? inlineData() : Heap; }

  const T &operator[](size_t I) const {
    assert(I < Size && "index out of range");
    return data()[I];
  }
  T &operator[](size_t I) {
    assert(I < Size && "index out of range");
    return data()[I];
  }

  const T *begin() const { return data(); }
  const T *end() const { return data() + Size; }
  T *begin() { return data(); }
  T *end() { return data() + Size; }

  void push_back(const T &V) {
    new (grow()) T(V);
    ++Size;
  }
  void push_back(T &&V) {
    new (grow()) T(std::move(V));
    ++Size;
  }

  T &front() {
    assert(Size && "front of empty vector");
    return data()[0];
  }
  const T &front() const {
    assert(Size && "front of empty vector");
    return data()[0];
  }
  T &back() {
    assert(Size && "back of empty vector");
    return data()[Size - 1];
  }
  const T &back() const {
    assert(Size && "back of empty vector");
    return data()[Size - 1];
  }

  /// Destroys elements [NewSize, size()); only shrinks.
  void resize(size_t NewSize) {
    assert(NewSize <= Size && "resize only shrinks");
    T *D = data();
    for (size_t I = NewSize; I < Size; ++I)
      D[I].~T();
    size_t Old = Size;
    Size = static_cast<uint32_t>(NewSize);
    unspillIfNeeded(Old);
  }

  /// Removes the element at \p Pos, shifting the rest down (O(size)).
  void erase(size_t Pos) {
    assert(Pos < Size && "erase out of range");
    T *D = data();
    for (size_t I = Pos + 1; I < Size; ++I)
      D[I - 1] = std::move(D[I]);
    D[Size - 1].~T();
    size_t Old = Size;
    --Size;
    unspillIfNeeded(Old);
  }
  void eraseFront() { erase(0); }

  void clear() {
    if (Size <= N) {
      for (size_t I = 0; I < Size; ++I)
        inlineData()[I].~T();
    } else {
      for (size_t I = 0; I < Size; ++I)
        Heap[I].~T();
      ::operator delete(Heap);
      Heap = nullptr;
      HeapCap = 0;
    }
    Size = 0;
  }

  operator std::span<const T>() const {
    return std::span<const T>(data(), Size);
  }

  bool operator==(const InlineVector &Other) const {
    if (Size != Other.Size)
      return false;
    for (size_t I = 0; I < Size; ++I)
      if (!(data()[I] == Other.data()[I]))
        return false;
    return true;
  }

private:
  T *inlineData() { return std::launder(reinterpret_cast<T *>(Inline)); }
  const T *inlineData() const {
    return std::launder(reinterpret_cast<const T *>(Inline));
  }

  void assign(std::span<const T> Elems) {
    assert(Size == 0 && "assign into a non-empty vector");
    if (Elems.size() > N) {
      spillAlloc(Elems.size());
      for (const T &V : Elems)
        new (Heap + Size++) T(V);
      return;
    }
    if constexpr (std::is_trivially_copyable_v<T>) {
      // The common case is a whole-object copy at a schedule fork or a
      // chunk unshare; a straight memcpy beats the element loop's
      // per-iteration branching.  An empty span may have a null data(),
      // which memcpy must never see, even for zero bytes.
      if (!Elems.empty())
        std::memcpy(Inline, Elems.data(), Elems.size() * sizeof(T));
      Size = static_cast<uint32_t>(Elems.size());
      return;
    }
    for (const T &V : Elems)
      new (inlineData() + Size++) T(V);
  }

  void stealFrom(InlineVector &Other) noexcept {
    assert(Size == 0 && "steal into a non-empty vector");
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (Other.Size <= N) {
        // Fixed-size copy of the whole inline buffer compiles to a few
        // vector moves; trailing bytes past Other.Size are never read
        // back (Size gates every access).
        std::memcpy(Inline, Other.Inline, sizeof(Inline));
        Size = Other.Size;
        Other.Size = 0;
        return;
      }
    }
    if (Other.Size > N) {
      Heap = Other.Heap;
      HeapCap = Other.HeapCap;
      Size = Other.Size;
      Other.Heap = nullptr;
      Other.HeapCap = 0;
      Other.Size = 0;
      return;
    }
    for (size_t I = 0; I < Other.Size; ++I)
      new (inlineData() + I) T(std::move(Other.inlineData()[I]));
    Size = Other.Size;
    Other.clear();
  }

  /// Returns raw storage for one more element (capacity grown as needed);
  /// the caller placement-constructs into it and bumps Size.
  T *grow() {
    if (Size < N)
      return inlineData() + Size;
    if (Size == N)
      spill(Size + 1);
    else if (Size == HeapCap)
      regrow(HeapCap * 2);
    return Heap + Size;
  }

  /// Restores the "inline iff Size <= N" representation after a shrink
  /// took a spilled vector back under the inline capacity.
  void unspillIfNeeded(size_t OldSize) {
    if (OldSize <= N || Size > N)
      return;
    T *OldHeap = Heap;
    for (size_t I = 0; I < Size; ++I) {
      new (inlineData() + I) T(std::move(OldHeap[I]));
      OldHeap[I].~T();
    }
    ::operator delete(OldHeap);
    Heap = nullptr;
    HeapCap = 0;
  }

  void spillAlloc(size_t Cap) {
    Heap = static_cast<T *>(::operator new(Cap * sizeof(T)));
    HeapCap = Cap;
  }

  /// Moves the inline elements to a fresh heap block of \p Cap slots.
  void spill(size_t Cap) {
    T *Fresh = static_cast<T *>(::operator new(Cap * sizeof(T)));
    for (size_t I = 0; I < Size; ++I) {
      new (Fresh + I) T(std::move(inlineData()[I]));
      inlineData()[I].~T();
    }
    Heap = Fresh;
    HeapCap = Cap;
  }

  void regrow(size_t Cap) {
    T *Fresh = static_cast<T *>(::operator new(Cap * sizeof(T)));
    for (size_t I = 0; I < Size; ++I) {
      new (Fresh + I) T(std::move(Heap[I]));
      Heap[I].~T();
    }
    ::operator delete(Heap);
    Heap = Fresh;
    HeapCap = Cap;
  }

  alignas(T) unsigned char Inline[N * sizeof(T)];
  T *Heap = nullptr;
  // 32-bit counters: a reorder-buffer entry embeds one of these, so the
  // header's footprint is copied at every schedule fork; operand lists
  // never approach 2^32 elements.
  uint32_t HeapCap = 0;
  uint32_t Size = 0;
};

} // namespace sct

#endif // SCT_SUPPORT_INLINEVECTOR_H
