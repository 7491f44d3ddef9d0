//===- FrontendTest.cpp - MiniJava lexer/parser/compile tests ---------------===//

#include "src/lang/Compile.h"
#include "src/lang/Lexer.h"
#include "src/lang/Parser.h"

#include <gtest/gtest.h>

using namespace nimg;

namespace {

std::vector<std::string> compileOk(const std::vector<std::string> &Sources,
                                   Program &P) {
  std::vector<std::string> Errors;
  bool Ok = compileSources(Sources, P, Errors);
  EXPECT_TRUE(Ok);
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
  return Errors;
}

std::vector<std::string> compileBad(const std::string &Source) {
  Program P;
  std::vector<std::string> Errors;
  bool Ok = compileSources({Source}, P, Errors);
  EXPECT_FALSE(Ok);
  EXPECT_FALSE(Errors.empty());
  return Errors;
}

} // namespace

// --- Lexer ----------------------------------------------------------------

TEST(Lexer, BasicTokens) {
  auto Toks = lexSource("class Foo { int x = 12; }");
  ASSERT_GE(Toks.size(), 9u);
  EXPECT_EQ(Toks[0].Kind, TokKind::KwClass);
  EXPECT_EQ(Toks[1].Kind, TokKind::Ident);
  EXPECT_EQ(Toks[1].Text, "Foo");
  EXPECT_EQ(Toks[5].Kind, TokKind::Assign);
  EXPECT_EQ(Toks[6].IntVal, 12);
}

TEST(Lexer, DoubleAndExponent) {
  auto Toks = lexSource("1.5 2e3 7");
  EXPECT_EQ(Toks[0].Kind, TokKind::DoubleLit);
  EXPECT_DOUBLE_EQ(Toks[0].DblVal, 1.5);
  EXPECT_EQ(Toks[1].Kind, TokKind::DoubleLit);
  EXPECT_DOUBLE_EQ(Toks[1].DblVal, 2000.0);
  EXPECT_EQ(Toks[2].Kind, TokKind::IntLit);
}

TEST(Lexer, StringEscapes) {
  auto Toks = lexSource("\"a\\n\\\"b\"");
  ASSERT_EQ(Toks[0].Kind, TokKind::StringLit);
  EXPECT_EQ(Toks[0].Text, "a\n\"b");
}

TEST(Lexer, CommentsAreSkipped) {
  auto Toks = lexSource("// line\n/* block\nstill */ 42");
  EXPECT_EQ(Toks[0].Kind, TokKind::IntLit);
  EXPECT_EQ(Toks[0].Line, 3);
}

TEST(Lexer, OperatorDisambiguation) {
  auto Toks = lexSource("<= < << == = >= > >> && & || | != !");
  std::vector<TokKind> Kinds;
  for (auto &T : Toks)
    Kinds.push_back(T.Kind);
  std::vector<TokKind> Want = {
      TokKind::Le,  TokKind::Lt,   TokKind::Shl,  TokKind::EqEq,
      TokKind::Assign, TokKind::Ge, TokKind::Gt,  TokKind::Shr,
      TokKind::AndAnd, TokKind::Amp, TokKind::OrOr, TokKind::Pipe,
      TokKind::NotEq,  TokKind::Bang, TokKind::Eof};
  EXPECT_EQ(Kinds, Want);
}

TEST(Lexer, UnterminatedStringIsError) {
  auto Toks = lexSource("\"abc");
  EXPECT_EQ(Toks.back().Kind, TokKind::Error);
}

TEST(Lexer, UnterminatedCommentIsError) {
  auto Toks = lexSource("/* abc");
  EXPECT_EQ(Toks.back().Kind, TokKind::Error);
}

// --- Parser ------------------------------------------------------------------

TEST(Parser, ClassWithMembers) {
  AstUnit Unit;
  std::vector<std::string> Errors;
  ASSERT_TRUE(parseUnit("class A extends B {\n"
                        "  int x;\n"
                        "  static final double y = 1.5;\n"
                        "  A(int x) { this.x = x; }\n"
                        "  int getX() { return x; }\n"
                        "  static { A.count = 1; }\n"
                        "  static int count;\n"
                        "}\n",
                        Unit, Errors))
      << (Errors.empty() ? "" : Errors[0]);
  ASSERT_EQ(Unit.Classes.size(), 1u);
  const AstClass &A = Unit.Classes[0];
  EXPECT_EQ(A.SuperName, "B");
  EXPECT_EQ(A.Fields.size(), 3u);
  ASSERT_EQ(A.Methods.size(), 3u);
  EXPECT_TRUE(A.Methods[0].IsCtor);
  EXPECT_TRUE(A.Methods[2].IsStaticInit);
}

TEST(Parser, CastVersusParen) {
  AstUnit Unit;
  std::vector<std::string> Errors;
  ASSERT_TRUE(parseUnit("class A { int f(int x) {\n"
                        "  int a = (x) - 1;\n"     // paren expr, not cast
                        "  double d = (double) x;\n" // cast
                        "  A o = (A) null;\n"        // class cast
                        "  return a;\n"
                        "} }",
                        Unit, Errors))
      << (Errors.empty() ? "" : Errors[0]);
}

TEST(Parser, NewArrayWithExtraRank) {
  AstUnit Unit;
  std::vector<std::string> Errors;
  ASSERT_TRUE(parseUnit(
      "class A { void f() { int[][] a = new int[3][]; a[0] = new int[2]; } }",
      Unit, Errors));
}

TEST(Parser, ErrorOnMissingSemi) {
  AstUnit Unit;
  std::vector<std::string> Errors;
  EXPECT_FALSE(parseUnit("class A { void f() { int x = 1 } }", Unit, Errors));
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("expected"), std::string::npos);
}

TEST(Parser, ForLoopVariants) {
  AstUnit Unit;
  std::vector<std::string> Errors;
  ASSERT_TRUE(parseUnit("class A { int f() {\n"
                        "  int s = 0;\n"
                        "  for (int i = 0; i < 10; i = i + 1) { s = s + i; }\n"
                        "  for (;;) { break; }\n"
                        "  return s;\n"
                        "} }",
                        Unit, Errors))
      << (Errors.empty() ? "" : Errors[0]);
}

// --- Nesting limit ------------------------------------------------------------
//
// In `class Main { static int main() { BODY } }` the statements of BODY sit
// at nesting depth 1, and each enclosing statement or unary operand adds
// one. The deepest accepted source must parse, lower and be destroyed on
// the test thread's stack; one level more is a compile error, and so is a
// source nested far beyond the stack.

namespace {

std::string mainWith(const std::string &Body) {
  return "class Main { static int main() { " + Body + " } }";
}

std::string repeat(const std::string &S, int N) {
  std::string Out;
  Out.reserve(S.size() * size_t(N));
  for (int I = 0; I < N; ++I)
    Out += S;
  return Out;
}

/// `return` (depth 1) of a literal inside \p Parens parentheses: each
/// parenthesis is one more unary operand, so the literal sits at depth
/// Parens + 2.
std::string nestedParens(int Parens) {
  return mainWith("return " + repeat("(", Parens) + "1" +
                  repeat(")", Parens) + ";");
}

/// \p Ifs braced if blocks (two levels each: the if and its block) around
/// \p Innermost.
std::string nestedIfs(int Ifs, const std::string &Innermost) {
  return mainWith("int x = 0; " + repeat("if (x == 0) { ", Ifs) + Innermost +
                  repeat(" }", Ifs) + " return x;");
}

/// `return 1 + 1 + ... + 1` with \p Terms literals: a left-deep tree of
/// height Terms, built without recursion.
std::string sumChain(int Terms) {
  return mainWith("return 1" + repeat(" + 1", Terms - 1) + ";");
}

void expectNestingError(const std::string &Source) {
  std::vector<std::string> Errors = compileBad(Source);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("nesting deeper than " +
                           std::to_string(MaxNestingDepth) + " levels"),
            std::string::npos)
      << Errors[0];
}

} // namespace

TEST(Parser, NestedParenthesesStopAtTheLimit) {
  Program P;
  compileOk({nestedParens(MaxNestingDepth - 2)}, P);
  expectNestingError(nestedParens(MaxNestingDepth - 1));
  expectNestingError(nestedParens(100000));
}

TEST(Parser, NestedIfBlocksStopAtTheLimit) {
  static_assert(MaxNestingDepth % 2 == 0);
  // `return 1;` inside N blocks sits at depth 2N + 1, its literal at
  // 2N + 2; `if (x == 0) return 1;` adds one level.
  const int Ifs = (MaxNestingDepth - 2) / 2;
  Program P;
  compileOk({nestedIfs(Ifs, "return 1;")}, P);
  expectNestingError(nestedIfs(Ifs, "if (x == 0) return 1;"));
  expectNestingError(nestedIfs(100000, "return 1;"));
}

TEST(Parser, OperatorChainsStopAtTheLimit) {
  Program P;
  compileOk({sumChain(MaxNestingDepth)}, P);
  expectNestingError(sumChain(MaxNestingDepth + 1));
  expectNestingError(sumChain(100000));
}

// --- Compilation ----------------------------------------------------------------

TEST(Compile, SimpleProgramResolvesMain) {
  Program P;
  compileOk({"class Main { static int main() { return 41 + 1; } }"}, P);
  ASSERT_NE(P.MainMethod, -1);
  EXPECT_EQ(P.method(P.MainMethod).Sig, "Main.main()");
}

TEST(Compile, ImplicitObjectSuperclass) {
  Program P;
  compileOk({"class A { }"}, P);
  ClassId A = P.findClass("A");
  ASSERT_NE(A, -1);
  ClassId Obj = P.findClass("Object");
  EXPECT_EQ(P.classDef(A).Super, Obj);
}

TEST(Compile, VirtualDispatchTables) {
  Program P;
  compileOk({"abstract class Shape { abstract double area(); }\n"
             "class Circle extends Shape { double r;\n"
             "  Circle(double r) { this.r = r; }\n"
             "  double area() { return 3.14 * r * r; } }\n"
             "class Square extends Shape { double s;\n"
             "  Square(double s) { this.s = s; }\n"
             "  double area() { return s * s; } }\n"},
            P);
  MethodId Decl = P.findMethodBySig("Shape.area()");
  ASSERT_NE(Decl, -1);
  ClassId Circle = P.findClass("Circle");
  MethodId Impl = P.resolveVirtual(Circle, Decl);
  EXPECT_EQ(P.method(Impl).Sig, "Circle.area()");
  auto Overrides = P.overridesOf(Decl);
  EXPECT_EQ(Overrides.size(), 2u);
}

TEST(Compile, ClinitSynthesizedForStaticInits) {
  Program P;
  compileOk({"class A { static int x = 5; static { x = x + 1; } }"}, P);
  ClassId A = P.findClass("A");
  ASSERT_NE(P.classDef(A).Clinit, -1);
  EXPECT_TRUE(P.method(P.classDef(A).Clinit).IsClinit);
}

TEST(Compile, NoClinitWithoutStaticWork) {
  Program P;
  compileOk({"class A { static int x; int y = 2; }"}, P);
  EXPECT_EQ(P.classDef(P.findClass("A")).Clinit, -1);
}

TEST(Compile, ErrorUnknownType) {
  auto Errors = compileBad("class A { Missing f; }");
  EXPECT_NE(Errors[0].find("unknown type"), std::string::npos);
}

TEST(Compile, ErrorUnknownIdentifier) {
  auto Errors =
      compileBad("class A { int f() { return nosuch; } }");
  EXPECT_NE(Errors[0].find("unknown identifier"), std::string::npos);
}

TEST(Compile, ErrorTypeMismatch) {
  auto Errors =
      compileBad("class A { int f() { return \"str\"; } }");
  EXPECT_NE(Errors[0].find("cannot convert"), std::string::npos);
}

TEST(Compile, ErrorBreakOutsideLoop) {
  auto Errors = compileBad("class A { void f() { break; } }");
  EXPECT_NE(Errors[0].find("break"), std::string::npos);
}

TEST(Compile, ErrorInstantiateAbstract) {
  auto Errors = compileBad(
      "abstract class S { } class A { void f() { S s = new S(); } }");
  EXPECT_NE(Errors[0].find("abstract"), std::string::npos);
}

TEST(Compile, ErrorDuplicateClass) {
  auto Errors = compileBad("class A { } class A { }");
  EXPECT_NE(Errors[0].find("duplicate class"), std::string::npos);
}

TEST(Compile, ErrorInheritanceCycle) {
  auto Errors = compileBad("class A extends B { } class B extends A { }");
  EXPECT_NE(Errors[0].find("cycle"), std::string::npos);
}

TEST(Compile, ErrorThisInStatic) {
  auto Errors = compileBad("class A { static int f() { return this.g(); } "
                           "int g() { return 1; } }");
  EXPECT_NE(Errors[0].find("static"), std::string::npos);
}

TEST(Compile, SpawnResolvesTarget) {
  Program P;
  compileOk({"class Worker { static void run() { } }\n"
             "class Main { static void main() { Sys.spawn(\"Worker.run\"); } "
             "}"},
            P);
  // The Spawn instruction stores the resolved method id in Aux2.
  const Method &Main = P.method(P.findMethodBySig("Main.main()"));
  bool Found = false;
  for (const auto &BB : Main.Blocks)
    for (const auto &In : BB.Instrs)
      if (In.Op == Opcode::CallNative &&
          NativeId(In.Aux) == NativeId::Spawn) {
        Found = true;
        EXPECT_EQ(P.method(In.Aux2).Sig, "Worker.run()");
      }
  EXPECT_TRUE(Found);
}

TEST(Compile, ErrorSpawnNonLiteral) {
  auto Errors = compileBad("class Main { static void main() { String s = "
                           "\"X.y\"; Sys.spawn(s); } }");
  EXPECT_NE(Errors[0].find("spawn"), std::string::npos);
}
