//===- NativeImage.h - A built image ---------------------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The product of one image build: compiled code (CUs), the initialized
/// build heap and its snapshot, the byte layout of both sections, and —
/// for profiling builds — the per-object identity tables that the
/// post-processing step uses to translate traced snapshot indices into
/// strategy ids (Sec. 3: "associate an identifier to each object instance
/// to be stored in the .svm_heap section"; optimized builds do not store
/// identifiers in the binary but recompute them for matching).
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_IMAGE_NATIVEIMAGE_H
#define NIMG_IMAGE_NATIVEIMAGE_H

#include "src/compiler/Inliner.h"
#include "src/compiler/Reachability.h"
#include "src/compiler/Splitter.h"
#include "src/heap/BuildHeap.h"
#include "src/heap/Snapshot.h"
#include "src/image/ImageLayout.h"
#include "src/ordering/IdStrategies.h"
#include "src/profiling/ProfileDiagnostics.h"

namespace nimg {

struct NativeImage {
  Program *P = nullptr; ///< Not owned.
  ReachabilityResult Reach;
  CompiledProgram Code;
  /// Hot/cold splitting decisions (--split hotcold); Mode == None and an
  /// empty PerCu for unsplit builds. Serialized with the image — a
  /// deserialized split image must still know its fragment geometry to
  /// run.
  SplitResult Split;
  BuildHeapResult Built;
  HeapSnapshot Snapshot;
  ImageLayout Layout;
  /// Identity tables of this build's snapshot (all three strategies).
  IdTable Ids;
  bool Instrumented = false;
  uint64_t Seed = 0;
  /// programFingerprint() of the classpath this image belongs to. Computed
  /// once per build (buildNativeImage) and once per load (deserializeImage,
  /// which checks it against the program); serializeImage and the profile
  /// collectors reuse it and never rehash the program.
  uint64_t ProgramFingerprint = 0;
  /// Profile-ingestion outcome of this build: whether offered profiles
  /// were applied, and why any were rejected (degradation policy).
  ProfileDiagnostics ProfileDiag;

  NativeImage() = default;
  NativeImage(NativeImage &&) = default;
  NativeImage &operator=(NativeImage &&) = default;
  NativeImage(const NativeImage &) = delete;
  NativeImage &operator=(const NativeImage &) = delete;

  uint64_t imageBytes() const { return Layout.TextSize + Layout.HeapSize; }
};

} // namespace nimg

#endif // NIMG_IMAGE_NATIVEIMAGE_H
