//===- containers/HashTable.h - Chained hash table -------------*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Separately-chained hash table — the paper's `hash_set`/`hash_map`
/// (__gnu_cxx::hash_set in GCC 4.5). Expected O(1) search/insert with
/// occasional full-rehash resizes (another rarely-taken branch like
/// vector's), bucket-array memory overhead ("hash buckets ... extra memory
/// consumption", paper Section 6.2), and unordered iteration.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CONTAINERS_HASHTABLE_H
#define BRAINY_CONTAINERS_HASHTABLE_H

#include "containers/ContainerBase.h"

#include <vector>

namespace brainy {
namespace ds {

/// Instrumentable chained hash table of unique Keys.
class HashTable : public ContainerBase {
public:
  explicit HashTable(uint32_t ElemBytes = 8, MachineModel *Model = nullptr,
                     uint64_t HeapBase = 0x60000000ULL);
  ~HashTable();

  HashTable(const HashTable &) = delete;
  HashTable &operator=(const HashTable &) = delete;

  /// Inserts \p K if absent. Found=true when inserted. Cost = chain nodes
  /// probed (+ rehash moves).
  OpResult insert(Key K);

  /// Removes \p K if present. Cost = chain nodes probed.
  OpResult erase(Key K);

  /// Removes the \p Pos-th element in iteration (bucket) order.
  OpResult eraseAt(uint64_t Pos);

  /// Searches for \p K. Cost = chain nodes probed.
  OpResult find(Key K);

  /// Advances the persistent cursor \p Steps elements in bucket order
  /// (wrapping). Unordered — order-oblivious replacements only.
  OpResult iterate(uint64_t Steps);

  uint64_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  void clear();

  uint64_t resizeCount() const { return Resizes; }
  uint64_t bucketCount() const { return Buckets.size(); }

  /// Longest chain currently in the table (untracked; tests/diagnostics).
  uint64_t maxChainLength() const;

private:
  struct Node {
    Key Value;
    Node *Next;
    uint64_t SimAddr;
  };

  /// Simulated footprint: payload + one pointer.
  uint64_t nodeBytes() const { return Elem + 8; }

  static uint64_t hashKey(Key K) {
    uint64_t State = static_cast<uint64_t>(K);
    return splitMix64Hash(State);
  }
  static uint64_t splitMix64Hash(uint64_t X);

  uint64_t bucketIndex(Key K) const {
    return hashKey(K) & (Buckets.size() - 1);
  }
  uint64_t bucketSlotAddr(uint64_t Index) const {
    return BucketBase + Index * 8;
  }

  Node *makeNode(Key K);
  void destroyNode(Node *N);
  /// Doubles the bucket array and rehashes every node.
  /// \returns nodes moved.
  uint64_t rehash();
  void touchNode(const Node *N, uint32_t Bytes) { note(N->SimAddr, Bytes); }

  std::vector<Node *> Buckets; ///< size is a power of two
  uint64_t BucketBase = 0;
  uint64_t Count = 0;
  uint64_t Resizes = 0;
  /// Iteration cursor: bucket index + node within it.
  uint64_t CursorBucket = 0;
  Node *CursorNode = nullptr;
};

} // namespace ds
} // namespace brainy

#endif // BRAINY_CONTAINERS_HASHTABLE_H
