//===- ImageFile.cpp - Binary image serialization ----------------------------===//

#include "src/image/ImageFile.h"

#include "src/heap/BuildHeap.h"
#include "src/runtime/Paging.h"
#include "src/support/ByteBuffer.h"
#include "src/support/Murmur3.h"

#include <cstring>
#include <string_view>

using namespace nimg;

// Format versions, newest written. V2 appends the per-region page-size
// table (the --huge-pages overlay) after the V1 payload; V1 files remain
// loadable and read back as all-4 KiB images with a zero huge budget.
static constexpr uint32_t kMagicV1 = 0x314D494Eu; // "NIM1"
static constexpr uint32_t kMagicV2 = 0x324D494Eu; // "NIM2"

namespace {

/// Feeds the fingerprint encoding to an incremental MurmurHash3 through a
/// fixed block buffer. The bytes hashed are exactly the ones the encoding
/// would append to a ByteBuffer, but no whole-program buffer is built.
class FingerprintStream {
public:
  void u32(uint32_t V) {
    uint8_t Raw[4];
    storeLE(Raw, V);
    bytes(Raw, sizeof(Raw));
  }

  void sizedString(std::string_view S) {
    u32(uint32_t(S.size()));
    bytes(S.data(), S.size());
  }

  /// One 37-byte instruction record, copied into the block buffer at once.
  void instr(const Instr &In) {
    uint8_t Rec[37];
    uint64_t FBits = 0;
    std::memcpy(&FBits, &In.FImm, sizeof(FBits));
    Rec[0] = uint8_t(In.Op);
    storeLE(Rec + 1, uint32_t(In.Dst) | (uint32_t(In.A) << 16));
    storeLE(Rec + 5, uint32_t(In.B) | (uint32_t(In.C) << 16));
    storeLE(Rec + 9, uint64_t(In.IImm));
    storeLE(Rec + 17, FBits);
    storeLE(Rec + 25, uint32_t(In.Aux));
    storeLE(Rec + 29, uint32_t(In.Aux2));
    storeLE(Rec + 33, uint32_t(In.Target));
    bytes(Rec, sizeof(Rec));
  }

  uint64_t finish() {
    flush();
    return Hash.digest().Lo;
  }

private:
  static constexpr size_t Capacity = 32 * 1024;

  /// Buffers \p N bytes; a run longer than the buffer goes to the hash
  /// directly.
  void bytes(const void *Data, size_t N) {
    if (N > Capacity - Len) {
      flush();
      if (N > Capacity) {
        Hash.update(Data, N);
        return;
      }
    }
    std::memcpy(Buf + Len, Data, N);
    Len += N;
  }

  void flush() {
    Hash.update(Buf, Len);
    Len = 0;
  }

  Murmur3Stream Hash;
  size_t Len = 0;
  uint8_t Buf[Capacity] = {};
};

} // namespace

uint64_t nimg::programFingerprint(const Program &P) {
  FingerprintStream S;
  for (size_t C = 0; C < P.numClasses(); ++C) {
    const ClassDef &Def = P.classDef(ClassId(C));
    S.sizedString(Def.Name);
    S.u32(uint32_t(Def.Super + 1));
    for (const Field &F : Def.InstanceFields) {
      S.sizedString(F.Name);
      S.sizedString(P.typeName(F.Type));
    }
    for (const Field &F : Def.StaticFields) {
      S.sizedString(F.Name);
      S.sizedString(P.typeName(F.Type));
    }
  }
  for (size_t M = 0; M < P.numMethods(); ++M) {
    const Method &Meth = P.method(MethodId(M));
    S.sizedString(Meth.Sig);
    S.u32(uint32_t(Meth.Blocks.size()));
    for (const BasicBlock &BB : Meth.Blocks) {
      S.u32(uint32_t(BB.Instrs.size()));
      for (const Instr &In : BB.Instrs)
        S.instr(In);
    }
  }
  for (size_t Str = 0; Str < P.numStrings(); ++Str)
    S.sizedString(P.string(StrId(Str)));
  return S.finish();
}

namespace {

// --- Writer helpers -----------------------------------------------------------

/// Counts what an encoding would append, so serializeImage sizes its
/// output once.
class ByteCounter {
public:
  void appendU8(uint8_t) { N += 1; }
  void appendU32(uint32_t) { N += 4; }
  void appendU64(uint64_t) { N += 8; }
  void appendI64(int64_t) { N += 8; }
  void appendSizedString(std::string_view S) { N += 4 + S.size(); }
  size_t size() const { return N; }

private:
  size_t N = 0;
};

template <class Sink> void putBools(Sink &B, const std::vector<bool> &V) {
  B.appendU32(uint32_t(V.size()));
  for (bool X : V)
    B.appendU8(X ? 1 : 0);
}

template <class Sink> void putU64s(Sink &B, const std::vector<uint64_t> &V) {
  B.appendU32(uint32_t(V.size()));
  for (uint64_t X : V)
    B.appendU64(X);
}

template <class Sink> void putI32s(Sink &B, const std::vector<int32_t> &V) {
  B.appendU32(uint32_t(V.size()));
  for (int32_t X : V)
    B.appendU32(uint32_t(X));
}

/// Encoded size of one Value: kind byte plus 64-bit payload.
constexpr size_t kValueBytes = 1 + 8;

template <class Sink> void putValue(Sink &B, const Value &V) {
  B.appendU8(uint8_t(V.Kind));
  B.appendI64(V.Kind == ValueKind::Ref ? int64_t(V.Ref) : V.I);
}

// --- Reader ---------------------------------------------------------------------

class Cursor {
public:
  Cursor(const std::vector<uint8_t> &Bytes, std::string &Error)
      : Bytes(Bytes), Error(Error) {}

  bool ok() const { return !Failed; }

  uint8_t u8() {
    if (!need(1))
      return 0;
    return Bytes[Pos++];
  }
  uint32_t u32() { return fixed<uint32_t>(); }
  uint64_t u64() { return fixed<uint64_t>(); }
  int64_t i64() { return int64_t(u64()); }
  /// Reads an element count, failing unless that many elements of at
  /// least \p ElemBytes each fit in the rest of the file. Callers may
  /// size containers from the result.
  uint32_t count(size_t ElemBytes) {
    uint32_t N = u32();
    if (ok() && N > (Bytes.size() - Pos) / ElemBytes) {
      fail("unexpected end of image file");
      return 0;
    }
    return N;
  }
  std::string str() {
    uint32_t Len = count(1);
    std::string S(reinterpret_cast<const char *>(Bytes.data() + Pos), Len);
    Pos += Len;
    return S;
  }
  std::vector<bool> bools() {
    std::vector<bool> V(count(1));
    for (size_t I = 0; I < V.size(); ++I)
      V[I] = u8() != 0;
    return V;
  }
  std::vector<uint64_t> u64s() {
    std::vector<uint64_t> V(count(8));
    for (uint64_t &X : V)
      X = u64();
    return V;
  }
  std::vector<int32_t> i32s() {
    std::vector<int32_t> V(count(4));
    for (int32_t &X : V)
      X = int32_t(u32());
    return V;
  }
  Value value() {
    ValueKind K = ValueKind(u8());
    int64_t Raw = i64();
    switch (K) {
    case ValueKind::Null:
      return Value::makeNull();
    case ValueKind::Int:
      return Value::makeInt(Raw);
    case ValueKind::Double: {
      Value V;
      V.Kind = ValueKind::Double;
      V.I = Raw;
      return V;
    }
    case ValueKind::Bool:
      return Value::makeBool(Raw != 0);
    case ValueKind::Ref:
      return Value::makeRef(CellIdx(Raw));
    }
    fail("corrupt value kind");
    return Value::makeNull();
  }

  void fail(const std::string &Msg) {
    if (!Failed)
      Error = Msg;
    Failed = true;
  }

private:
  template <class T> T fixed() {
    if (!need(sizeof(T)))
      return 0;
    T V = loadLE<T>(Bytes.data() + Pos);
    Pos += sizeof(T);
    return V;
  }
  bool need(size_t N) {
    if (Failed)
      return false;
    if (Pos + N > Bytes.size()) {
      fail("unexpected end of image file");
      return false;
    }
    return true;
  }

  const std::vector<uint8_t> &Bytes;
  std::string &Error;
  size_t Pos = 0;
  bool Failed = false;
};

/// Appends the image file encoding of \p Img to \p B. \p Interned holds
/// one flag per build-heap cell (Heap::internedFlags).
template <class Sink>
void encodeImage(Sink &B, const NativeImage &Img,
                 const std::vector<uint8_t> &Interned) {
  B.appendU32(kMagicV2);
  B.appendU64(Img.ProgramFingerprint);
  B.appendU8(Img.Instrumented ? 1 : 0);
  B.appendU64(Img.Seed);

  // Reachability.
  putBools(B, Img.Reach.ReachableMethods);
  putBools(B, Img.Reach.InstantiatedClasses);
  putBools(B, Img.Reach.ReachableClasses);
  putBools(B, Img.Reach.SaturatedSelectors);

  // Compiled program.
  B.appendU8(Img.Code.Instrumented ? 1 : 0);
  B.appendU64(Img.Code.InlineFingerprint);
  putI32s(B, Img.Code.CuOfMethod);
  B.appendU32(uint32_t(Img.Code.CUs.size()));
  for (const CompilationUnit &CU : Img.Code.CUs) {
    B.appendU32(uint32_t(CU.Root));
    B.appendU32(CU.CodeSize);
    B.appendU32(uint32_t(CU.Copies.size()));
    for (const InlineCopy &C : CU.Copies) {
      B.appendU32(uint32_t(C.Method));
      B.appendU32(uint32_t(C.ParentCopy));
      B.appendU32(C.SiteId);
      B.appendU32(C.CodeOffset);
      B.appendU32(C.CodeSize);
    }
  }

  // Build heap: cells, statics, init order, metadata, resources.
  const Heap &H = *Img.Built.BuildHeap;
  B.appendU32(uint32_t(H.numCells()));
  for (size_t C = 0; C < H.numCells(); ++C) {
    const HeapCell &Cell = H.cell(CellIdx(C));
    B.appendU8(uint8_t(Cell.Kind));
    B.appendU32(uint32_t(Cell.Class));
    B.appendU32(uint32_t(Cell.ArrayType));
    B.appendU32(uint32_t(Cell.Slots.size()));
    for (const Value &V : Cell.Slots)
      putValue(B, V);
    B.appendSizedString(Cell.Str);
    B.appendU8(Interned[C]);
  }
  B.appendU32(uint32_t(Img.Built.Statics.size()));
  for (const auto &Row : Img.Built.Statics) {
    B.appendU32(uint32_t(Row.size()));
    for (const Value &V : Row)
      putValue(B, V);
  }
  putI32s(B, Img.Built.InitOrder);
  putI32s(B, Img.Built.ClassMetaCells);
  B.appendU32(uint32_t(Img.Built.ResourceCells.size()));
  for (const auto &[Name, Cell] : Img.Built.ResourceCells) {
    B.appendSizedString(Name);
    B.appendU32(uint32_t(Cell));
  }

  // Snapshot.
  B.appendU32(uint32_t(Img.Snapshot.Entries.size()));
  for (const SnapshotEntry &E : Img.Snapshot.Entries) {
    B.appendU32(uint32_t(E.Cell));
    B.appendU32(E.SizeBytes);
    B.appendU8(uint8_t((E.IsRoot ? 1 : 0) | (E.Elided ? 2 : 0)));
    B.appendU8(uint8_t(E.Reason.Kind));
    B.appendSizedString(E.Reason.Detail);
    B.appendU32(uint32_t(E.ParentEntry));
    B.appendU32(uint32_t(E.ParentSlot));
  }

  // Identity tables.
  putU64s(B, Img.Ids.IncrementalIds);
  putU64s(B, Img.Ids.StructuralHashes);
  putU64s(B, Img.Ids.HeapPathHashes);

  // Layout.
  B.appendU32(Img.Layout.PageSize);
  putI32s(B, Img.Layout.CuOrder);
  putU64s(B, Img.Layout.CuOffsets);
  B.appendU64(Img.Layout.NativeTailOffset);
  B.appendU64(Img.Layout.NativeTailSize);
  B.appendU64(Img.Layout.TextSize);
  putU64s(B, Img.Layout.StaticsBase);
  B.appendU64(Img.Layout.StaticsSize);
  putI32s(B, Img.Layout.ObjectOrder);
  putU64s(B, Img.Layout.ObjectOffsets);
  B.appendU64(Img.Layout.HeapSize);

  // Hot/cold split geometry. A deserialized split image must still know
  // its fragment placement to run; build-time Issues are diagnostics and
  // stay out of the binary.
  B.appendU8(uint8_t(Img.Split.Mode));
  B.appendU64(Img.Split.DecisionFingerprint);
  B.appendU32(Img.Split.SplitCus);
  B.appendU32(Img.Split.DegradedCus);
  B.appendU64(Img.Split.HotBytes);
  B.appendU64(Img.Split.ColdBytes);
  B.appendU64(Img.Split.StubBytes);
  B.appendU32(uint32_t(Img.Split.PerCu.size()));
  for (const CuSplit &S : Img.Split.PerCu) {
    B.appendU8(S.Split ? 1 : 0);
    B.appendU32(S.HotSize);
    B.appendU32(S.ColdSize);
    B.appendU32(S.StubBytes);
    B.appendU32(uint32_t(S.Copies.size()));
    for (const CopySplit &CS : S.Copies) {
      B.appendU32(CS.HotOffset);
      B.appendU32(CS.HotSize);
      B.appendU32(CS.ColdOffset);
      B.appendU32(CS.ColdSize);
      B.appendU32(uint32_t(CS.Blocks.size()));
      for (const BlockPlace &BP : CS.Blocks) {
        B.appendU32(BP.Offset);
        B.appendU32(BP.Size);
        B.appendU8(BP.Cold ? 1 : 0);
      }
    }
  }
  putU64s(B, Img.Layout.CuColdOffsets);
  B.appendU64(Img.Layout.ColdTailOffset);
  B.appendU64(Img.Layout.ColdTailSize);

  // V2: huge-page budget plus the per-region page-size table. The table is
  // self-describing — each mapped region names its section, byte span, and
  // page size — so future multi-size policies extend it without another
  // format break.
  B.appendU32(Img.Layout.HugePagesRequested);
  B.appendU32(Img.Layout.HugePages);
  B.appendU64(Img.Layout.HugeRegionSize);
  uint32_t NumRegions = Img.Layout.HugeRegionSize > 0 ? 3 : 2;
  B.appendU32(NumRegions);
  if (Img.Layout.HugeRegionSize > 0) {
    B.appendU8(uint8_t(ImageSection::Text));
    B.appendU64(0);
    B.appendU64(Img.Layout.HugeRegionSize);
    B.appendU32(HugePageBytes);
  }
  B.appendU8(uint8_t(ImageSection::Text));
  B.appendU64(Img.Layout.HugeRegionSize);
  B.appendU64(Img.Layout.TextSize - Img.Layout.HugeRegionSize);
  B.appendU32(Img.Layout.PageSize);
  B.appendU8(uint8_t(ImageSection::HeapSec));
  B.appendU64(0);
  B.appendU64(Img.Layout.HeapSize);
  B.appendU32(Img.Layout.PageSize);
}

/// Cross-reference check of a decoded image: every method, CU, inline-copy,
/// cell and snapshot-entry index it stores must point inside the table it
/// indexes, because the runtime indexes with them unchecked. Returns the
/// first violation, or null when every reference is in range.
const char *badReference(const Program &P, const NativeImage &Img) {
  const CompiledProgram &Code = Img.Code;
  const size_t NumMethods = P.numMethods();
  const int64_t NumCus = int64_t(Code.CUs.size());
  if (Code.CuOfMethod.size() != NumMethods)
    return "CU table does not cover every method";
  for (int32_t Cu : Code.CuOfMethod)
    if (Cu < -1 || Cu >= NumCus)
      return "CU index out of range";
  for (int32_t Cu : Img.Layout.CuOrder)
    if (Cu < 0 || Cu >= NumCus)
      return "CU index out of range";
  for (size_t Cu = 0; Cu < Code.CUs.size(); ++Cu) {
    const CompilationUnit &CU = Code.CUs[Cu];
    if (CU.Root < 0 || size_t(CU.Root) >= NumMethods || CU.Copies.empty())
      return "CU root out of range";
    for (size_t K = 0; K < CU.Copies.size(); ++K) {
      const InlineCopy &Copy = CU.Copies[K];
      if (Copy.Method < 0 || size_t(Copy.Method) >= NumMethods)
        return "inline-copy method out of range";
      if (K > 0 && (Copy.ParentCopy < 0 || size_t(Copy.ParentCopy) >= K))
        return "inline-copy parent out of range";
    }
    if (Img.Split.active() && Img.Split.PerCu[Cu].Split &&
        Img.Split.PerCu[Cu].Copies.size() != CU.Copies.size())
      return "split copy count differs from the CU's";
  }

  const int64_t NumCells = int64_t(Img.Built.BuildHeap->numCells());
  auto BadCell = [&](int64_t Cell) { return Cell < 0 || Cell >= NumCells; };
  auto BadValue = [&](const Value &V) { return V.isRef() && BadCell(V.Ref); };
  for (size_t Cell = 0; Cell < size_t(NumCells); ++Cell)
    for (const Value &V : Img.Built.BuildHeap->cell(CellIdx(Cell)).Slots)
      if (BadValue(V))
        return "cell index out of range";
  for (const std::vector<Value> &Row : Img.Built.Statics)
    for (const Value &V : Row)
      if (BadValue(V))
        return "cell index out of range";
  for (CellIdx Cell : Img.Built.ClassMetaCells)
    if (Cell != -1 && BadCell(Cell)) // -1: class without a meta cell
      return "cell index out of range";
  for (const auto &[Name, Cell] : Img.Built.ResourceCells)
    if (BadCell(Cell))
      return "cell index out of range";
  const int64_t NumEntries = int64_t(Img.Snapshot.Entries.size());
  for (const SnapshotEntry &E : Img.Snapshot.Entries)
    if (BadCell(E.Cell) || E.ParentEntry < -1 || E.ParentEntry >= NumEntries)
      return "snapshot reference out of range";
  if (Img.Layout.ObjectOffsets.size() != Img.Snapshot.Entries.size())
    return "object offsets do not cover the snapshot";
  return nullptr;
}

} // namespace

std::vector<uint8_t> nimg::serializeImage(const Program &P,
                                          const NativeImage &Img) {
  assert(Img.P == &P && "image was built from a different program");
  (void)P;
  std::vector<uint8_t> Interned = Img.Built.BuildHeap->internedFlags();
  ByteCounter Size;
  encodeImage(Size, Img, Interned);
  ByteBuffer B;
  B.reserve(Size.size());
  encodeImage(B, Img, Interned);
  assert(B.size() == Size.size() && "image size pass disagrees with writer");
  return B.take();
}

bool nimg::deserializeImage(Program &P, const std::vector<uint8_t> &Bytes,
                            NativeImage &Out, std::string &Error) {
  // The builtin runtime classes are part of every built image's program;
  // register them before fingerprinting so a freshly compiled classpath
  // matches the one the image was built from.
  ensureClassMetaClass(P);
  Cursor C(Bytes, Error);
  uint32_t Magic = C.u32();
  if (Magic != kMagicV1 && Magic != kMagicV2) {
    Error = "not a nimage file (bad magic)";
    return false;
  }
  uint64_t Fingerprint = C.u64();
  if (Fingerprint != programFingerprint(P)) {
    Error = "image was built from a different program (fingerprint "
            "mismatch)";
    return false;
  }
  Out.P = &P;
  Out.ProgramFingerprint = Fingerprint;
  Out.Instrumented = C.u8() != 0;
  Out.Seed = C.u64();

  Out.Reach.ReachableMethods = C.bools();
  Out.Reach.InstantiatedClasses = C.bools();
  Out.Reach.ReachableClasses = C.bools();
  Out.Reach.SaturatedSelectors = C.bools();

  Out.Code.Instrumented = C.u8() != 0;
  Out.Code.InlineFingerprint = C.u64();
  Out.Code.CuOfMethod = C.i32s();
  uint32_t NumCus = C.count(3 * 4);
  Out.Code.CUs.clear();
  Out.Code.CUs.reserve(NumCus);
  for (uint32_t I = 0; I < NumCus && C.ok(); ++I) {
    CompilationUnit CU;
    CU.Root = MethodId(C.u32());
    CU.CodeSize = C.u32();
    uint32_t NumCopies = C.count(5 * 4);
    CU.Copies.reserve(NumCopies);
    for (uint32_t K = 0; K < NumCopies && C.ok(); ++K) {
      InlineCopy Copy;
      Copy.Method = MethodId(C.u32());
      Copy.ParentCopy = int32_t(C.u32());
      Copy.SiteId = C.u32();
      Copy.CodeOffset = C.u32();
      Copy.CodeSize = C.u32();
      if (K > 0)
        CU.InlineMap.emplace(
            CompilationUnit::siteKey(Copy.ParentCopy, Copy.SiteId),
            int32_t(K));
      CU.Copies.push_back(Copy);
    }
    Out.Code.CUs.push_back(std::move(CU));
  }

  Out.Built.BuildHeap = std::make_unique<Heap>(P);
  Heap &H = *Out.Built.BuildHeap;
  // Smallest cell record: kind, class, array type, slot count, an empty
  // string, interned flag.
  uint32_t NumCells = C.count(1 + 4 + 4 + 4 + 4 + 1);
  H.reserveCells(NumCells);
  for (uint32_t I = 0; I < NumCells && C.ok(); ++I) {
    CellKind Kind = CellKind(C.u8());
    ClassId Class = ClassId(C.u32());
    TypeId ArrayType = TypeId(C.u32());
    uint32_t NumSlots = C.count(kValueBytes);
    if (!C.ok())
      break;
    // Recreate the cell at the same index: the serialized graph encodes
    // sharing via cell indices, so no dedup may happen here. Interned
    // strings re-register in the intern table afterwards.
    CellIdx Cell = -1;
    switch (Kind) {
    case CellKind::Object:
      if (Class < 0 || size_t(Class) >= P.numClasses() ||
          P.classDef(Class).IsAbstract) {
        C.fail("cell class out of range or abstract");
        return false;
      }
      Cell = H.allocObject(Class);
      break;
    case CellKind::Array:
      if (ArrayType < 0 || size_t(ArrayType) >= P.numTypes() ||
          P.type(ArrayType).Kind != TypeKind::Array) {
        C.fail("cell array type out of range");
        return false;
      }
      Cell = H.allocArray(ArrayType, int64_t(NumSlots));
      break;
    case CellKind::String:
      Cell = H.allocString({});
      break;
    default:
      C.fail("corrupt cell kind");
      return false;
    }
    HeapCell &Target = H.cell(Cell);
    if (Target.Slots.size() != NumSlots) {
      C.fail("cell slot count mismatch");
      return false;
    }
    for (Value &V : Target.Slots)
      V = C.value();
    std::string Str = C.str();
    bool Interned = C.u8() != 0;
    if (Kind == CellKind::String) {
      Target.Str = std::move(Str);
      if (Interned)
        H.registerInterned(Cell);
    }
  }

  uint32_t NumStaticRows = C.count(4);
  Out.Built.Statics.assign(NumStaticRows, {});
  for (std::vector<Value> &Row : Out.Built.Statics) {
    Row.resize(C.count(kValueBytes));
    for (Value &V : Row)
      V = C.value();
  }
  Out.Built.InitOrder = C.i32s();
  Out.Built.ClassMetaCells = C.i32s();
  uint32_t NumResources = C.u32();
  for (uint32_t I = 0; I < NumResources && C.ok(); ++I) {
    std::string Name = C.str();
    Out.Built.ResourceCells.emplace(Name, CellIdx(C.u32()));
  }

  uint32_t NumEntries = C.count(4 + 4 + 1 + 1 + 4 + 4 + 4);
  Out.Snapshot.Entries.clear();
  Out.Snapshot.EntryOfCell.clear();
  Out.Snapshot.Entries.reserve(NumEntries);
  Out.Snapshot.EntryOfCell.reserve(NumEntries);
  for (uint32_t I = 0; I < NumEntries && C.ok(); ++I) {
    SnapshotEntry E;
    E.Cell = CellIdx(C.u32());
    E.SizeBytes = C.u32();
    uint8_t Flags = C.u8();
    E.IsRoot = Flags & 1;
    E.Elided = Flags & 2;
    E.Reason.Kind = InclusionReasonKind(C.u8());
    E.Reason.Detail = C.str();
    E.ParentEntry = int32_t(C.u32());
    E.ParentSlot = int32_t(C.u32());
    Out.Snapshot.EntryOfCell.emplace(E.Cell, int32_t(I));
    Out.Snapshot.Entries.push_back(std::move(E));
  }

  Out.Ids.IncrementalIds = C.u64s();
  Out.Ids.StructuralHashes = C.u64s();
  Out.Ids.HeapPathHashes = C.u64s();

  Out.Layout.PageSize = C.u32();
  if (C.ok() && Out.Layout.PageSize == 0) {
    C.fail("zero page size");
    return false;
  }
  Out.Layout.CuOrder = C.i32s();
  Out.Layout.CuOffsets = C.u64s();
  Out.Layout.NativeTailOffset = C.u64();
  Out.Layout.NativeTailSize = C.u64();
  Out.Layout.TextSize = C.u64();
  Out.Layout.StaticsBase = C.u64s();
  Out.Layout.StaticsSize = C.u64();
  Out.Layout.ObjectOrder = C.i32s();
  Out.Layout.ObjectOffsets = C.u64s();
  Out.Layout.HeapSize = C.u64();

  Out.Split.Mode = SplitMode(C.u8());
  Out.Split.DecisionFingerprint = C.u64();
  Out.Split.SplitCus = C.u32();
  Out.Split.DegradedCus = C.u32();
  Out.Split.HotBytes = C.u64();
  Out.Split.ColdBytes = C.u64();
  Out.Split.StubBytes = C.u64();
  uint32_t NumSplitCus = C.u32();
  Out.Split.PerCu.clear();
  for (uint32_t I = 0; I < NumSplitCus && C.ok(); ++I) {
    CuSplit S;
    S.Split = C.u8() != 0;
    S.HotSize = C.u32();
    S.ColdSize = C.u32();
    S.StubBytes = C.u32();
    uint32_t NumCopies = C.u32();
    for (uint32_t K = 0; K < NumCopies && C.ok(); ++K) {
      CopySplit CS;
      CS.HotOffset = C.u32();
      CS.HotSize = C.u32();
      CS.ColdOffset = C.u32();
      CS.ColdSize = C.u32();
      uint32_t NumBlocks = C.u32();
      for (uint32_t J = 0; J < NumBlocks && C.ok(); ++J) {
        BlockPlace BP;
        BP.Offset = C.u32();
        BP.Size = C.u32();
        BP.Cold = C.u8() != 0;
        CS.Blocks.push_back(BP);
      }
      S.Copies.push_back(std::move(CS));
    }
    Out.Split.PerCu.push_back(std::move(S));
  }
  Out.Layout.CuColdOffsets = C.u64s();
  Out.Layout.ColdTailOffset = C.u64();
  Out.Layout.ColdTailSize = C.u64();

  // V2 tail: huge-page budget + per-region page-size table. A V1 file
  // simply has none of it — the zero-initialized Layout fields already
  // mean "all 4 KiB, no huge budget", so old images load unchanged.
  Out.Layout.HugePagesRequested = 0;
  Out.Layout.HugePages = 0;
  Out.Layout.HugeRegionSize = 0;
  if (Magic == kMagicV2) {
    Out.Layout.HugePagesRequested = C.u32();
    Out.Layout.HugePages = C.u32();
    Out.Layout.HugeRegionSize = C.u64();
    uint32_t NumRegions = C.u32();
    uint64_t HugeTableBytes = 0;
    for (uint32_t I = 0; I < NumRegions && C.ok(); ++I) {
      uint8_t Sec = C.u8();
      uint64_t Off = C.u64();
      uint64_t Size = C.u64();
      uint32_t PageSz = C.u32();
      if (Sec > uint8_t(ImageSection::HeapSec) || PageSz == 0 ||
          PageSz % Out.Layout.PageSize != 0) {
        C.fail("corrupt page-size table");
        return false;
      }
      if (ImageSection(Sec) == ImageSection::Text && Off == 0 &&
          PageSz == HugePageBytes)
        HugeTableBytes = Size;
    }
    if (C.ok() && HugeTableBytes != Out.Layout.HugeRegionSize) {
      Error = "page-size table disagrees with the huge-page region";
      return false;
    }
  }

  if (!C.ok())
    return false;
  if (Out.Layout.CuOffsets.size() != Out.Code.CUs.size() ||
      Out.Ids.IncrementalIds.size() != Out.Snapshot.Entries.size() ||
      Out.Layout.HugeRegionSize > Out.Layout.TextSize ||
      Out.Layout.HugePages > Out.Layout.HugePagesRequested ||
      (Out.Split.active() &&
       (Out.Split.PerCu.size() != Out.Code.CUs.size() ||
        Out.Layout.CuColdOffsets.size() != Out.Code.CUs.size()))) {
    Error = "inconsistent image file";
    return false;
  }
  if (const char *Bad = badReference(P, Out)) {
    Error = std::string("inconsistent image file: ") + Bad;
    return false;
  }
  return true;
}
