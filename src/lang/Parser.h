//===- Parser.h - MiniJava recursive-descent parser -------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser producing the MiniJava AST. Errors are
/// collected as "line N: message" strings; parsing stops at the first
/// error. Nesting is capped (MaxNestingDepth), so a deeply nested source
/// is a compile error rather than a stack overflow.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_LANG_PARSER_H
#define NIMG_LANG_PARSER_H

#include "src/lang/Ast.h"
#include "src/lang/Lexer.h"

#include <string>
#include <vector>

namespace nimg {

/// Deepest nesting the parser accepts, counted two ways: statements and
/// unary operands nested inside each other (the parser's own recursion),
/// and the height of each expression tree (binary and postfix chains
/// build it without recursing). Lowering and AST destruction recurse once
/// per level, so the cap keeps every pass over the deepest accepted
/// source inside a default 8 MiB stack, in an AddressSanitizer build too
/// (over 8 KiB of stack per parenthesis there). The workloads nest at most
/// 18 deep.
inline constexpr int MaxNestingDepth = 256;

/// Parses \p Source into \p Unit. Returns false and fills \p Errors on
/// failure.
bool parseUnit(const std::string &Source, AstUnit &Unit,
               std::vector<std::string> &Errors);

} // namespace nimg

#endif // NIMG_LANG_PARSER_H
