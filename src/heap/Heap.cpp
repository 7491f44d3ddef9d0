//===- Heap.cpp - Runtime values and heap cells ----------------------------===//

#include "src/heap/Heap.h"

using namespace nimg;

Value Heap::zeroValue(const TypeInfo &T) {
  switch (T.Kind) {
  case TypeKind::Int:
    return Value::makeInt(0);
  case TypeKind::Double:
    return Value::makeDouble(0.0);
  case TypeKind::Bool:
    return Value::makeBool(false);
  default:
    return Value::makeNull();
  }
}

CellIdx Heap::allocObject(ClassId C) {
  assert(!Prog.classDef(C).IsAbstract && "allocating an abstract class");
  HeapCell Cell;
  Cell.Kind = CellKind::Object;
  Cell.Class = C;
  const std::vector<Field> &L = Prog.layout(C);
  Cell.Slots.reserve(L.size());
  for (const Field &F : L)
    Cell.Slots.push_back(zeroValue(Prog.type(F.Type)));
  Cells.push_back(std::move(Cell));
  return CellIdx(Cells.size() - 1);
}

CellIdx Heap::allocArray(TypeId ArrayTy, int64_t Len) {
  assert(Len >= 0 && "negative array length");
  const TypeInfo &T = Prog.type(ArrayTy);
  assert(T.Kind == TypeKind::Array && "allocArray with non-array type");
  HeapCell Cell;
  Cell.Kind = CellKind::Array;
  Cell.ArrayType = ArrayTy;
  Cell.Slots.assign(size_t(Len), zeroValue(Prog.type(T.Elem)));
  Cells.push_back(std::move(Cell));
  return CellIdx(Cells.size() - 1);
}

CellIdx Heap::allocString(std::string S) {
  HeapCell Cell;
  Cell.Kind = CellKind::String;
  Cell.Str = std::move(S);
  Cells.push_back(std::move(Cell));
  return CellIdx(Cells.size() - 1);
}

CellIdx Heap::internString(const std::string &S) {
  auto It = InternTable.find(S);
  if (It != InternTable.end())
    return It->second;
  CellIdx C = allocString(S);
  InternTable.emplace(S, C);
  return C;
}

std::vector<uint8_t> Heap::internedFlags() const {
  std::vector<uint8_t> Flags(Cells.size(), 0);
  for (const auto &[Str, C] : InternTable)
    Flags[size_t(C)] = 1;
  return Flags;
}

uint32_t Heap::cellSizeBytes(CellIdx C) const {
  const HeapCell &Cell = cell(C);
  if (Cell.Kind == CellKind::String) {
    uint32_t Bytes = uint32_t(Cell.Str.size());
    return 24 + ((Bytes + 7) & ~7u);
  }
  return 16 + 8 * uint32_t(Cell.Slots.size());
}

const std::string &Heap::cellTypeName(CellIdx C) const {
  const HeapCell &Cell = cell(C);
  switch (Cell.Kind) {
  case CellKind::Object:
    return Prog.classDef(Cell.Class).Name;
  case CellKind::Array:
    return Prog.typeName(Cell.ArrayType);
  case CellKind::String:
    return Prog.typeName(Prog.stringType());
  }
  // Unreachable; keep the compiler satisfied.
  return Prog.typeName(Prog.stringType());
}
