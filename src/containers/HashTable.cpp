//===- containers/HashTable.cpp -------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "containers/HashTable.h"

#include <cassert>

using namespace brainy;
using namespace brainy::ds;

static constexpr uint64_t HashWork = 5;
static constexpr uint64_t CompareWork = 2;
static constexpr uint64_t LinkWork = 4;
static constexpr uint64_t InitialBuckets = 16;

uint64_t HashTable::splitMix64Hash(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

HashTable::HashTable(uint32_t ElemBytes, MachineModel *Model, uint64_t HeapBase)
    : ContainerBase(ElemBytes, Model, HeapBase) {
  Buckets.assign(InitialBuckets, nullptr);
  BucketBase = allocSim(InitialBuckets * 8);
}

HashTable::~HashTable() {
  clear();
  freeSim(BucketBase, Buckets.size() * 8);
}

HashTable::Node *HashTable::makeNode(Key K) {
  Node *N = new Node{K, nullptr, 0};
  N->SimAddr = allocSim(nodeBytes());
  note(N->SimAddr, static_cast<uint32_t>(nodeBytes()));
  work(LinkWork);
  return N;
}

void HashTable::destroyNode(Node *N) {
  freeSim(N->SimAddr, nodeBytes());
  delete N;
}

uint64_t HashTable::rehash() {
  uint64_t OldBucketCount = Buckets.size();
  uint64_t NewBucketCount = OldBucketCount * 2;
  uint64_t NewBase = allocSim(NewBucketCount * 8);
  std::vector<Node *> NewBuckets(NewBucketCount, nullptr);

  uint64_t Moved = 0;
  for (uint64_t B = 0; B != OldBucketCount; ++B) {
    note(bucketSlotAddr(B), 8);
    Node *N = Buckets[B];
    while (N) {
      Node *Next = N->Next;
      touchNode(N, 16);
      work(HashWork + LinkWork);
      uint64_t Index = hashKey(N->Value) & (NewBucketCount - 1);
      note(NewBase + Index * 8, 8);
      N->Next = NewBuckets[Index];
      NewBuckets[Index] = N;
      N = Next;
      ++Moved;
    }
  }
  freeSim(BucketBase, OldBucketCount * 8);
  BucketBase = NewBase;
  Buckets = std::move(NewBuckets);
  ++Resizes;
  // Rehashing invalidates the cursor's bucket index; restart iteration.
  CursorBucket = 0;
  CursorNode = nullptr;
  return Moved;
}

OpResult HashTable::insert(Key K) {
  // Load-factor check: rarely taken, mispredicted when a rehash fires —
  // the hash-table twin of vector's resize branch (paper Section 5.1).
  bool NeedRehash = Count + 1 > Buckets.size();
  branch(BranchSite::HashResizeCheck, NeedRehash);
  uint64_t MoveCost = NeedRehash ? rehash() : 0;

  work(HashWork);
  uint64_t Index = bucketIndex(K);
  note(bucketSlotAddr(Index), 8);
  uint64_t Probed = 0;
  for (Node *N = Buckets[Index]; N; N = N->Next) {
    branch(BranchSite::HashBucketWalk, true);
    touchNode(N, 8);
    work(CompareWork);
    ++Probed;
    bool Hit = N->Value == K;
    branch(BranchSite::SearchHit, Hit);
    if (Hit)
      return {false, MoveCost + Probed};
  }
  branch(BranchSite::HashBucketWalk, false);

  Node *N = makeNode(K);
  N->Next = Buckets[Index];
  Buckets[Index] = N;
  note(bucketSlotAddr(Index), 8);
  work(LinkWork);
  ++Count;
  return {true, MoveCost + Probed};
}

OpResult HashTable::find(Key K) {
  work(HashWork);
  uint64_t Index = bucketIndex(K);
  note(bucketSlotAddr(Index), 8);
  uint64_t Probed = 0;
  for (Node *N = Buckets[Index]; N; N = N->Next) {
    branch(BranchSite::HashBucketWalk, true);
    touchNode(N, 8);
    work(CompareWork);
    ++Probed;
    bool Hit = N->Value == K;
    branch(BranchSite::SearchHit, Hit);
    if (Hit)
      return {true, Probed};
  }
  branch(BranchSite::HashBucketWalk, false);
  return {false, Probed};
}

OpResult HashTable::erase(Key K) {
  work(HashWork);
  uint64_t Index = bucketIndex(K);
  note(bucketSlotAddr(Index), 8);
  uint64_t Probed = 0;
  Node **Link = &Buckets[Index];
  while (Node *N = *Link) {
    branch(BranchSite::HashBucketWalk, true);
    touchNode(N, 8);
    work(CompareWork);
    ++Probed;
    bool Hit = N->Value == K;
    branch(BranchSite::SearchHit, Hit);
    if (Hit) {
      if (CursorNode == N) {
        CursorNode = N->Next;
        // CursorBucket stays; advance logic handles a null node.
      }
      *Link = N->Next;
      work(LinkWork);
      destroyNode(N);
      assert(Count > 0 && "erase from empty table");
      --Count;
      return {true, Probed};
    }
    Link = &N->Next;
  }
  branch(BranchSite::HashBucketWalk, false);
  return {false, Probed};
}

OpResult HashTable::eraseAt(uint64_t Pos) {
  if (Pos >= Count)
    return {false, 0};
  uint64_t Seen = 0;
  uint64_t Touched = 0;
  for (uint64_t B = 0, E = Buckets.size(); B != E; ++B) {
    note(bucketSlotAddr(B), 8);
    for (Node *N = Buckets[B]; N; N = N->Next) {
      touchNode(N, 8);
      work(CompareWork);
      ++Touched;
      if (Seen == Pos) {
        // Found the Pos-th element in bucket order; remove via its key
        // (the extra probe cost of the targeted erase is already implied).
        Key K = N->Value;
        OpResult Erased = erase(K);
        assert(Erased.Found && "element vanished during eraseAt");
        return {true, Touched + Erased.Cost};
      }
      ++Seen;
    }
  }
  return {false, Touched};
}

OpResult HashTable::iterate(uint64_t Steps) {
  if (Count == 0)
    return {false, 0};
  uint64_t Touched = 0;
  for (uint64_t S = 0; S != Steps; ++S) {
    // Advance to the next live node, walking empty bucket slots.
    while (!CursorNode) {
      if (CursorBucket >= Buckets.size()) {
        branch(BranchSite::IterContinue, false);
        CursorBucket = 0;
      } else {
        branch(BranchSite::IterContinue, true);
      }
      note(bucketSlotAddr(CursorBucket), 8);
      work(2);
      CursorNode = Buckets[CursorBucket];
      ++CursorBucket;
    }
    touchNode(CursorNode, 8);
    work(2);
    ++Touched;
    CursorNode = CursorNode->Next;
  }
  return {true, Touched};
}

void HashTable::clear() {
  for (Node *&Bucket : Buckets) {
    Node *N = Bucket;
    while (N) {
      Node *Next = N->Next;
      destroyNode(N);
      N = Next;
    }
    Bucket = nullptr;
  }
  Count = 0;
  CursorBucket = 0;
  CursorNode = nullptr;
}

uint64_t HashTable::maxChainLength() const {
  uint64_t Max = 0;
  for (const Node *N : Buckets) {
    uint64_t Len = 0;
    for (; N; N = N->Next)
      ++Len;
    if (Len > Max)
      Max = Len;
  }
  return Max;
}
