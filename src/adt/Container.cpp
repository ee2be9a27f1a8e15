//===- adt/Container.cpp --------------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "adt/Container.h"

#include "containers/AvlTree.h"
#include "containers/Deque.h"
#include "containers/HashTable.h"
#include "containers/List.h"
#include "containers/RbTree.h"
#include "containers/Vector.h"

using namespace brainy;

Container::~Container() = default;

static uint64_t heapBaseFor(DsKind Kind) {
  // Give each implementation its own simulated heap region.
  return 0x100000000ULL +
         static_cast<uint64_t>(Kind) * 0x40000000ULL;
}

namespace {

/// Adapter template: maps the uniform interface onto one concrete
/// container's natural operations.
template <typename Impl, DsKind KindValue>
class ContainerAdapter final : public Container {
public:
  ContainerAdapter(uint32_t ElemBytes, MachineModel *Model)
      : Inner(ElemBytes, Model, heapBaseFor(KindValue)) {}

  DsKind kind() const override { return KindValue; }

  ds::OpResult insert(ds::Key K) override {
    ds::OpResult R;
    if constexpr (isSequenceKind())
      R = Inner.pushBack(K);
    else
      R = Inner.insert(K);
    record(ContainerOp::Insert, R);
    return R;
  }

  ds::OpResult insertAt(uint64_t Pos, ds::Key K) override {
    ds::OpResult R;
    if constexpr (isSequenceKind())
      R = Inner.insertAt(Pos, K);
    else
      R = Inner.insert(K);
    record(ContainerOp::InsertAt, R);
    return R;
  }

  ds::OpResult pushFront(ds::Key K) override {
    ds::OpResult R;
    if constexpr (isSequenceKind())
      R = Inner.pushFront(K);
    else
      R = Inner.insert(K);
    record(ContainerOp::PushFront, R);
    return R;
  }

  ds::OpResult erase(ds::Key K) override {
    ds::OpResult R;
    if constexpr (isSequenceKind())
      R = Inner.eraseValue(K);
    else
      R = Inner.erase(K);
    record(ContainerOp::Erase, R);
    return R;
  }

  ds::OpResult eraseAt(uint64_t Pos) override {
    ds::OpResult R = Inner.eraseAt(Pos);
    record(ContainerOp::EraseAt, R);
    return R;
  }

  ds::OpResult find(ds::Key K) override {
    ds::OpResult R = Inner.find(K);
    record(ContainerOp::Find, R);
    return R;
  }

  ds::OpResult iterate(uint64_t Steps) override {
    ds::OpResult R = Inner.iterate(Steps);
    record(ContainerOp::Iterate, R);
    return R;
  }

  uint64_t size() const override { return Inner.size(); }
  void clear() override { Inner.clear(); }
  void setOpListener(OpListener *Listener) override {
    Inner.setOpListener(Listener);
  }
  uint64_t simLiveBytes() const override { return Inner.simLiveBytes(); }
  uint64_t simPeakBytes() const override { return Inner.simPeakBytes(); }
  uint32_t elementBytes() const override { return Inner.elementBytes(); }

  uint64_t resizeCount() const override {
    if constexpr (requires { Inner.resizeCount(); })
      return Inner.resizeCount();
    else
      return 0;
  }

private:
  static constexpr bool isSequenceKind() {
    return KindValue == DsKind::Vector || KindValue == DsKind::List ||
           KindValue == DsKind::Deque;
  }

  // Op recording costs one predictable branch when profiling is off; the
  // size() call only happens with a listener registered.
  void record(ContainerOp Op, const ds::OpResult &R) {
    if (Inner.opListener())
      Inner.recordOp(Op, R, Inner.size());
  }

  Impl Inner;
};

} // namespace

std::unique_ptr<Container> brainy::makeContainer(DsKind Kind,
                                                 uint32_t ElemBytes,
                                                 MachineModel *Model) {
  switch (Kind) {
  case DsKind::Vector:
    return std::make_unique<ContainerAdapter<ds::Vector, DsKind::Vector>>(
        ElemBytes, Model);
  case DsKind::List:
    return std::make_unique<ContainerAdapter<ds::List, DsKind::List>>(
        ElemBytes, Model);
  case DsKind::Deque:
    return std::make_unique<ContainerAdapter<ds::Deque, DsKind::Deque>>(
        ElemBytes, Model);
  case DsKind::Set:
    return std::make_unique<ContainerAdapter<ds::RbTree, DsKind::Set>>(
        ElemBytes, Model);
  case DsKind::AvlSet:
    return std::make_unique<ContainerAdapter<ds::AvlTree, DsKind::AvlSet>>(
        ElemBytes, Model);
  case DsKind::HashSet:
    return std::make_unique<ContainerAdapter<ds::HashTable, DsKind::HashSet>>(
        ElemBytes, Model);
  case DsKind::Map:
    return std::make_unique<ContainerAdapter<ds::RbTree, DsKind::Map>>(
        ElemBytes, Model);
  case DsKind::AvlMap:
    return std::make_unique<ContainerAdapter<ds::AvlTree, DsKind::AvlMap>>(
        ElemBytes, Model);
  case DsKind::HashMap:
    return std::make_unique<ContainerAdapter<ds::HashTable, DsKind::HashMap>>(
        ElemBytes, Model);
  }
  return nullptr;
}
