//===- Ast.h - MiniJava abstract syntax tree --------------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST for MiniJava. Nodes are unified records discriminated by kind enums
/// (LLVM-style, no RTTI); the compiler (Sema + lowering) walks these and
/// emits IR directly.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_LANG_AST_H
#define NIMG_LANG_AST_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace nimg {

struct AstExpr;
struct AstStmt;
using ExprPtr = std::unique_ptr<AstExpr>;
using StmtPtr = std::unique_ptr<AstStmt>;

/// A syntactic type: a base name ("int", "double", "boolean", "String",
/// "void", or a class name) plus array rank.
struct AstType {
  std::string Base;
  int Rank = 0;
  int Line = 0;
};

enum class ExprKind : uint8_t {
  IntLit,
  DoubleLit,
  BoolLit,
  NullLit,
  StrLit,
  This,
  Ident,    ///< Name; resolved to a local, this-field, or static field.
  Unary,    ///< Op applied to Kids[0].
  Binary,   ///< Kids[0] Op Kids[1].
  Call,     ///< Callee semantics depend on Kids[0]:
            ///<  - null receiver + Name: unqualified call on `this`/own class
            ///<  - Kids[0] receiver expr + Name: virtual call
            ///< QualClass set: static call Class.Name(...)
  New,      ///< new Type.Base(args)
  NewArray, ///< new ElemType[Kids[0]] — ElemType includes extra ranks
  Index,    ///< Kids[0][Kids[1]]
  Member,   ///< Kids[0].Name — field access or array .length
  Cast,     ///< (Type) Kids[0]
};

enum class UnaryOp : uint8_t { Neg, Not };

enum class BinaryOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  LAnd,
  LOr,
  BAnd,
  BOr,
  BXor,
  Shl,
  Shr,
};

struct AstExpr {
  ExprKind K;
  int Line = 0;
  /// Nodes on the longest path from here to a leaf (a leaf is 1); the
  /// parser rejects trees taller than MaxNestingDepth.
  int Height = 1;

  int64_t IntVal = 0;
  double DblVal = 0;
  bool BoolVal = false;
  std::string Name;      ///< Identifier / member / callee name.
  std::string QualClass; ///< For Call: explicit class qualifier.
  AstType Ty;            ///< For New / NewArray / Cast.
  UnaryOp UOp = UnaryOp::Neg;
  BinaryOp BOp = BinaryOp::Add;
  std::vector<ExprPtr> Kids;
  std::vector<ExprPtr> Args; ///< For Call / New.
};

enum class StmtKind : uint8_t {
  Block,
  VarDecl, ///< Ty Name = Init? ;
  ExprStmt,
  Assign,  ///< LHS (Kids[0]) = RHS (Kids[1]); LHS is Ident/Member/Index.
  If,      ///< Cond; Then = Body[0]; Else = Body[1] (may be null).
  While,   ///< Cond; Body[0].
  For,     ///< Init (may be null); Cond; Step (may be null); Body[0].
  Return,  ///< Value in Cond (may be null).
  Break,
  Continue,
  SuperCall, ///< super(args); only valid as a constructor statement.
};

struct AstStmt {
  StmtKind K;
  int Line = 0;

  AstType Ty;       ///< For VarDecl.
  std::string Name; ///< For VarDecl.
  ExprPtr Cond;     ///< Condition / return value / ExprStmt expression.
  StmtPtr Init;     ///< For For.
  StmtPtr Step;     ///< For For (an Assign or ExprStmt).
  std::vector<ExprPtr> Kids;  ///< Assign operands.
  std::vector<StmtPtr> Body;  ///< Block statements / branch bodies.
  std::vector<ExprPtr> Args;  ///< SuperCall arguments.
};

/// A method, constructor, or static initializer block declaration.
struct AstMethod {
  std::string Name; ///< Empty for constructors and static init blocks.
  bool IsStatic = false;
  bool IsAbstract = false;
  bool IsCtor = false;
  bool IsStaticInit = false;
  AstType RetTy;
  std::vector<std::pair<AstType, std::string>> Params;
  StmtPtr Body; ///< Null for abstract methods.
  int Line = 0;
};

/// A field declaration, possibly with an initializer (static initializers
/// are collected into the class's <clinit>).
struct AstField {
  std::string Name;
  AstType Ty;
  bool IsStatic = false;
  bool IsFinal = false;
  ExprPtr Init;
  int Line = 0;
};

struct AstClass {
  std::string Name;
  std::string SuperName; ///< Empty when extending the implicit Object root.
  bool IsAbstract = false;
  std::vector<AstField> Fields;
  std::vector<AstMethod> Methods;
  int Line = 0;
};

/// One parsed compilation unit (a source string).
struct AstUnit {
  std::vector<AstClass> Classes;
};

} // namespace nimg

#endif // NIMG_LANG_AST_H
