//===- BenchUtil.h - Shared helpers for the bench programs ------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the bench programs.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_BENCH_BENCHUTIL_H
#define NIMG_BENCH_BENCHUTIL_H

#include "src/core/Evaluation.h"

#include <cstring>

namespace nimg {
namespace benchutil {

/// True when the driver was invoked with `--smoke`: the bench-smoke ctest
/// label runs every driver this way — a tiny configuration that exercises
/// the full code path and the BENCH_*.json emission, not a measurement.
inline bool smokeMode(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--smoke") == 0)
      return true;
  return false;
}

} // namespace benchutil
} // namespace nimg

#endif // NIMG_BENCH_BENCHUTIL_H
