//===- Parser.cpp - MiniJava recursive-descent parser ----------------------===//

#include "src/lang/Parser.h"

#include <algorithm>
#include <cassert>

using namespace nimg;

namespace {

class Parser {
public:
  Parser(std::vector<Token> Toks, AstUnit &Unit,
         std::vector<std::string> &Errors)
      : Toks(std::move(Toks)), Unit(Unit), Errors(Errors) {}

  bool run() {
    while (!check(TokKind::Eof)) {
      if (Failed)
        return false;
      if (!parseClass())
        return false;
    }
    return !Failed;
  }

private:
  // --- Token helpers -------------------------------------------------------

  const Token &peek(size_t Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  bool check(TokKind K, size_t Ahead = 0) const { return peek(Ahead).Kind == K; }
  const Token &advance() {
    const Token &T = peek();
    if (Pos + 1 < Toks.size())
      ++Pos;
    return T;
  }
  bool match(TokKind K) {
    if (!check(K))
      return false;
    advance();
    return true;
  }
  bool expect(TokKind K, const char *Where) {
    if (match(K))
      return true;
    error(std::string("expected ") + tokKindName(K) + " " + Where +
          ", found " + tokKindName(peek().Kind));
    return false;
  }
  void error(const std::string &Msg) {
    if (!Failed)
      Errors.push_back("line " + std::to_string(peek().Line) + ": " + Msg);
    Failed = true;
  }

  void nestingError() {
    error("nesting deeper than " + std::to_string(MaxNestingDepth) +
          " levels");
  }

  /// One level of parser recursion, held for the lifetime of a statement
  /// or unary-operand parse. Past MaxNestingDepth the parse fails and the
  /// caller returns at once, so the recursion unwinds.
  class NestingGuard {
  public:
    explicit NestingGuard(Parser &Self) : Self(Self) {
      if (++Self.Depth > MaxNestingDepth)
        Self.nestingError();
    }
    ~NestingGuard() { --Self.Depth; }
    bool exceeded() const { return Self.Depth > MaxNestingDepth; }

  private:
    Parser &Self;
  };

  /// Sets \p E's height from its children's and fails the parse when the
  /// tree grows taller than MaxNestingDepth.
  ExprPtr sealed(ExprPtr E) {
    for (const std::vector<ExprPtr> *List : {&E->Kids, &E->Args})
      for (const ExprPtr &Kid : *List)
        if (Kid)
          E->Height = std::max(E->Height, Kid->Height + 1);
    if (E->Height > MaxNestingDepth)
      nestingError();
    return E;
  }

  bool isTypeStart(size_t Ahead = 0) const {
    switch (peek(Ahead).Kind) {
    case TokKind::KwInt:
    case TokKind::KwDouble:
    case TokKind::KwBoolean:
    case TokKind::KwString:
    case TokKind::KwVoid:
    case TokKind::Ident:
      return true;
    default:
      return false;
    }
  }

  // --- Types ---------------------------------------------------------------

  bool parseType(AstType &Ty) {
    Ty.Line = peek().Line;
    switch (peek().Kind) {
    case TokKind::KwInt:
      Ty.Base = "int";
      break;
    case TokKind::KwDouble:
      Ty.Base = "double";
      break;
    case TokKind::KwBoolean:
      Ty.Base = "boolean";
      break;
    case TokKind::KwString:
      Ty.Base = "String";
      break;
    case TokKind::KwVoid:
      Ty.Base = "void";
      break;
    case TokKind::Ident:
      Ty.Base = peek().Text;
      break;
    default:
      error("expected a type");
      return false;
    }
    advance();
    while (check(TokKind::LBracket) && check(TokKind::RBracket, 1)) {
      advance();
      advance();
      ++Ty.Rank;
    }
    return true;
  }

  // --- Declarations ----------------------------------------------------------

  bool parseClass() {
    AstClass Cls;
    Cls.Line = peek().Line;
    if (match(TokKind::KwAbstract))
      Cls.IsAbstract = true;
    if (!expect(TokKind::KwClass, "at class declaration"))
      return false;
    if (!check(TokKind::Ident)) {
      error("expected class name");
      return false;
    }
    Cls.Name = advance().Text;
    if (match(TokKind::KwExtends)) {
      if (!check(TokKind::Ident)) {
        error("expected superclass name");
        return false;
      }
      Cls.SuperName = advance().Text;
    }
    if (!expect(TokKind::LBrace, "after class header"))
      return false;
    while (!check(TokKind::RBrace)) {
      if (check(TokKind::Eof)) {
        error("unterminated class body");
        return false;
      }
      if (!parseMember(Cls))
        return false;
    }
    advance(); // '}'
    Unit.Classes.push_back(std::move(Cls));
    return true;
  }

  bool parseMember(AstClass &Cls) {
    int Line = peek().Line;
    bool IsStatic = false, IsFinal = false, IsAbstract = false;
    // "static { ... }" is a static initializer block.
    if (check(TokKind::KwStatic) && check(TokKind::LBrace, 1)) {
      advance();
      AstMethod Init;
      Init.IsStatic = true;
      Init.IsStaticInit = true;
      Init.Line = Line;
      Init.RetTy = {"void", 0, Line};
      Init.Body = parseBlock();
      if (Failed)
        return false;
      Cls.Methods.push_back(std::move(Init));
      return true;
    }
    while (true) {
      if (match(TokKind::KwStatic)) {
        IsStatic = true;
        continue;
      }
      if (match(TokKind::KwFinal)) {
        IsFinal = true;
        continue;
      }
      if (match(TokKind::KwAbstract)) {
        IsAbstract = true;
        continue;
      }
      break;
    }
    // Constructor: ClassName '(' ...
    if (check(TokKind::Ident) && peek().Text == Cls.Name &&
        check(TokKind::LParen, 1)) {
      AstMethod Ctor;
      Ctor.IsCtor = true;
      Ctor.Line = Line;
      Ctor.RetTy = {"void", 0, Line};
      advance(); // class name
      if (!parseParams(Ctor.Params))
        return false;
      Ctor.Body = parseBlock();
      if (Failed)
        return false;
      Cls.Methods.push_back(std::move(Ctor));
      return true;
    }
    AstType Ty;
    if (!parseType(Ty))
      return false;
    if (!check(TokKind::Ident)) {
      error("expected member name");
      return false;
    }
    std::string Name = advance().Text;
    if (check(TokKind::LParen)) {
      AstMethod M;
      M.Name = std::move(Name);
      M.IsStatic = IsStatic;
      M.IsAbstract = IsAbstract;
      M.RetTy = std::move(Ty);
      M.Line = Line;
      if (!parseParams(M.Params))
        return false;
      if (M.IsAbstract) {
        if (!expect(TokKind::Semi, "after abstract method"))
          return false;
      } else {
        M.Body = parseBlock();
        if (Failed)
          return false;
      }
      Cls.Methods.push_back(std::move(M));
      return true;
    }
    // Field (possibly several comma-separated declarators).
    while (true) {
      AstField F;
      F.Name = Name;
      F.Ty = Ty;
      F.IsStatic = IsStatic;
      F.IsFinal = IsFinal;
      F.Line = Line;
      if (match(TokKind::Assign)) {
        F.Init = parseExpr();
        if (Failed)
          return false;
      }
      Cls.Fields.push_back(std::move(F));
      if (match(TokKind::Comma)) {
        if (!check(TokKind::Ident)) {
          error("expected field name after ','");
          return false;
        }
        Name = advance().Text;
        continue;
      }
      break;
    }
    return expect(TokKind::Semi, "after field declaration");
  }

  bool parseParams(std::vector<std::pair<AstType, std::string>> &Params) {
    if (!expect(TokKind::LParen, "at parameter list"))
      return false;
    if (match(TokKind::RParen))
      return true;
    while (true) {
      AstType Ty;
      if (!parseType(Ty))
        return false;
      if (!check(TokKind::Ident)) {
        error("expected parameter name");
        return false;
      }
      Params.emplace_back(std::move(Ty), advance().Text);
      if (match(TokKind::Comma))
        continue;
      break;
    }
    return expect(TokKind::RParen, "after parameters");
  }

  // --- Statements --------------------------------------------------------------

  StmtPtr makeStmt(StmtKind K) {
    auto S = std::make_unique<AstStmt>();
    S->K = K;
    S->Line = peek().Line;
    return S;
  }

  StmtPtr parseBlock() {
    StmtPtr Block = makeStmt(StmtKind::Block);
    if (!expect(TokKind::LBrace, "at block"))
      return Block;
    while (!check(TokKind::RBrace)) {
      if (check(TokKind::Eof)) {
        error("unterminated block");
        return Block;
      }
      StmtPtr S = parseStmt();
      if (Failed)
        return Block;
      Block->Body.push_back(std::move(S));
    }
    advance();
    return Block;
  }

  /// Returns true when the upcoming tokens start a local variable
  /// declaration rather than an expression.
  bool looksLikeVarDecl() const {
    switch (peek().Kind) {
    case TokKind::KwInt:
    case TokKind::KwDouble:
    case TokKind::KwBoolean:
    case TokKind::KwString:
      return true;
    case TokKind::Ident:
      // "Foo x" or "Foo[] x".
      if (check(TokKind::Ident, 1))
        return true;
      if (check(TokKind::LBracket, 1) && check(TokKind::RBracket, 2))
        return true;
      return false;
    default:
      return false;
    }
  }

  StmtPtr parseVarDecl() {
    StmtPtr S = makeStmt(StmtKind::VarDecl);
    if (!parseType(S->Ty))
      return S;
    if (!check(TokKind::Ident)) {
      error("expected variable name");
      return S;
    }
    S->Name = advance().Text;
    if (match(TokKind::Assign))
      S->Cond = parseExpr();
    return S;
  }

  /// Parses `expr` or `lvalue = expr` (no trailing ';').
  StmtPtr parseExprOrAssign() {
    ExprPtr E = parseExpr();
    if (Failed)
      return makeStmt(StmtKind::ExprStmt);
    if (match(TokKind::Assign)) {
      StmtPtr S = makeStmt(StmtKind::Assign);
      S->Kids.push_back(std::move(E));
      S->Kids.push_back(parseExpr());
      return S;
    }
    StmtPtr S = makeStmt(StmtKind::ExprStmt);
    S->Cond = std::move(E);
    return S;
  }

  StmtPtr parseStmt() {
    NestingGuard Guard(*this);
    if (Guard.exceeded())
      return makeStmt(StmtKind::Block);
    switch (peek().Kind) {
    case TokKind::LBrace:
      return parseBlock();
    case TokKind::KwIf: {
      StmtPtr S = makeStmt(StmtKind::If);
      advance();
      expect(TokKind::LParen, "after 'if'");
      S->Cond = parseExpr();
      expect(TokKind::RParen, "after if condition");
      S->Body.push_back(parseStmt());
      if (match(TokKind::KwElse))
        S->Body.push_back(parseStmt());
      else
        S->Body.push_back(nullptr);
      return S;
    }
    case TokKind::KwWhile: {
      StmtPtr S = makeStmt(StmtKind::While);
      advance();
      expect(TokKind::LParen, "after 'while'");
      S->Cond = parseExpr();
      expect(TokKind::RParen, "after while condition");
      S->Body.push_back(parseStmt());
      return S;
    }
    case TokKind::KwFor: {
      StmtPtr S = makeStmt(StmtKind::For);
      advance();
      expect(TokKind::LParen, "after 'for'");
      if (!check(TokKind::Semi)) {
        if (looksLikeVarDecl())
          S->Init = parseVarDecl();
        else
          S->Init = parseExprOrAssign();
      }
      expect(TokKind::Semi, "after for initializer");
      if (!check(TokKind::Semi))
        S->Cond = parseExpr();
      expect(TokKind::Semi, "after for condition");
      if (!check(TokKind::RParen))
        S->Step = parseExprOrAssign();
      expect(TokKind::RParen, "after for step");
      S->Body.push_back(parseStmt());
      return S;
    }
    case TokKind::KwReturn: {
      StmtPtr S = makeStmt(StmtKind::Return);
      advance();
      if (!check(TokKind::Semi))
        S->Cond = parseExpr();
      expect(TokKind::Semi, "after return");
      return S;
    }
    case TokKind::KwBreak: {
      StmtPtr S = makeStmt(StmtKind::Break);
      advance();
      expect(TokKind::Semi, "after 'break'");
      return S;
    }
    case TokKind::KwContinue: {
      StmtPtr S = makeStmt(StmtKind::Continue);
      advance();
      expect(TokKind::Semi, "after 'continue'");
      return S;
    }
    case TokKind::KwSuper: {
      StmtPtr S = makeStmt(StmtKind::SuperCall);
      advance();
      expect(TokKind::LParen, "after 'super'");
      parseArgs(S->Args);
      expect(TokKind::Semi, "after super call");
      return S;
    }
    default: {
      if (looksLikeVarDecl()) {
        StmtPtr S = parseVarDecl();
        expect(TokKind::Semi, "after variable declaration");
        return S;
      }
      StmtPtr S = parseExprOrAssign();
      expect(TokKind::Semi, "after statement");
      return S;
    }
    }
  }

  // --- Expressions ----------------------------------------------------------

  ExprPtr makeExpr(ExprKind K) {
    auto E = std::make_unique<AstExpr>();
    E->K = K;
    E->Line = peek().Line;
    return E;
  }

  void parseArgs(std::vector<ExprPtr> &Args) {
    if (match(TokKind::RParen))
      return;
    while (true) {
      Args.push_back(parseExpr());
      if (Failed)
        return;
      if (match(TokKind::Comma))
        continue;
      break;
    }
    expect(TokKind::RParen, "after arguments");
  }

  ExprPtr parseExpr() { return parseBinary(0); }

  /// Binary operator precedence levels, lowest first.
  static int precedenceOf(TokKind K) {
    switch (K) {
    case TokKind::OrOr:
      return 1;
    case TokKind::AndAnd:
      return 2;
    case TokKind::Pipe:
      return 3;
    case TokKind::Caret:
      return 4;
    case TokKind::Amp:
      return 5;
    case TokKind::EqEq:
    case TokKind::NotEq:
      return 6;
    case TokKind::Lt:
    case TokKind::Le:
    case TokKind::Gt:
    case TokKind::Ge:
      return 7;
    case TokKind::Shl:
    case TokKind::Shr:
      return 8;
    case TokKind::Plus:
    case TokKind::Minus:
      return 9;
    case TokKind::Star:
    case TokKind::Slash:
    case TokKind::Percent:
      return 10;
    default:
      return -1;
    }
  }

  static BinaryOp binaryOpOf(TokKind K) {
    switch (K) {
    case TokKind::OrOr:
      return BinaryOp::LOr;
    case TokKind::AndAnd:
      return BinaryOp::LAnd;
    case TokKind::Pipe:
      return BinaryOp::BOr;
    case TokKind::Caret:
      return BinaryOp::BXor;
    case TokKind::Amp:
      return BinaryOp::BAnd;
    case TokKind::EqEq:
      return BinaryOp::Eq;
    case TokKind::NotEq:
      return BinaryOp::Ne;
    case TokKind::Lt:
      return BinaryOp::Lt;
    case TokKind::Le:
      return BinaryOp::Le;
    case TokKind::Gt:
      return BinaryOp::Gt;
    case TokKind::Ge:
      return BinaryOp::Ge;
    case TokKind::Shl:
      return BinaryOp::Shl;
    case TokKind::Shr:
      return BinaryOp::Shr;
    case TokKind::Plus:
      return BinaryOp::Add;
    case TokKind::Minus:
      return BinaryOp::Sub;
    case TokKind::Star:
      return BinaryOp::Mul;
    case TokKind::Slash:
      return BinaryOp::Div;
    default:
      return BinaryOp::Mod;
    }
  }

  ExprPtr parseBinary(int MinPrec) {
    ExprPtr Left = parseUnary();
    while (!Failed) {
      int Prec = precedenceOf(peek().Kind);
      if (Prec < MinPrec || Prec < 0)
        break;
      TokKind OpTok = advance().Kind;
      ExprPtr Right = parseBinary(Prec + 1);
      ExprPtr Bin = makeExpr(ExprKind::Binary);
      Bin->BOp = binaryOpOf(OpTok);
      Bin->Line = Left->Line;
      Bin->Kids.push_back(std::move(Left));
      Bin->Kids.push_back(std::move(Right));
      Left = sealed(std::move(Bin));
    }
    return Left;
  }

  /// Returns true when the token can begin an expression — used to
  /// disambiguate casts from parenthesized expressions.
  static bool startsExpression(TokKind K) {
    switch (K) {
    case TokKind::Ident:
    case TokKind::IntLit:
    case TokKind::DoubleLit:
    case TokKind::StringLit:
    case TokKind::KwThis:
    case TokKind::KwNew:
    case TokKind::KwTrue:
    case TokKind::KwFalse:
    case TokKind::KwNull:
    case TokKind::LParen:
    case TokKind::Bang:
      return true;
    default:
      return false;
    }
  }

  /// Detects "(Type) expr" at the current '(' token.
  bool looksLikeCast() const {
    if (!check(TokKind::LParen))
      return false;
    size_t I = 1;
    switch (peek(I).Kind) {
    case TokKind::KwInt:
    case TokKind::KwDouble:
    case TokKind::KwBoolean:
    case TokKind::KwString:
    case TokKind::Ident:
      break;
    default:
      return false;
    }
    ++I;
    while (check(TokKind::LBracket, I) && check(TokKind::RBracket, I + 1))
      I += 2;
    if (!check(TokKind::RParen, I))
      return false;
    // Primitive casts are unambiguous: "(int)" can never be a parenthesized
    // expression. "(Name)" needs the next token to start an expression and
    // not be '(' (so "(x) - y" and "(f)(g)" stay expressions).
    if (peek(1).Kind != TokKind::Ident)
      return true;
    TokKind After = peek(I + 1).Kind;
    return startsExpression(After) && After != TokKind::LParen;
  }

  ExprPtr parseUnary() {
    NestingGuard Guard(*this);
    if (Guard.exceeded())
      return makeExpr(ExprKind::NullLit);
    if (check(TokKind::Minus) || check(TokKind::Bang)) {
      ExprPtr E = makeExpr(ExprKind::Unary);
      E->UOp = check(TokKind::Minus) ? UnaryOp::Neg : UnaryOp::Not;
      advance();
      E->Kids.push_back(parseUnary());
      return sealed(std::move(E));
    }
    if (looksLikeCast()) {
      ExprPtr E = makeExpr(ExprKind::Cast);
      advance(); // '('
      parseType(E->Ty);
      expect(TokKind::RParen, "after cast type");
      E->Kids.push_back(parseUnary());
      return sealed(std::move(E));
    }
    return parsePostfix();
  }

  ExprPtr parsePostfix() {
    ExprPtr E = parsePrimary();
    while (!Failed) {
      if (match(TokKind::Dot)) {
        if (!check(TokKind::Ident)) {
          error("expected member name after '.'");
          return E;
        }
        std::string Name = advance().Text;
        if (match(TokKind::LParen)) {
          ExprPtr Call = makeExpr(ExprKind::Call);
          Call->Name = std::move(Name);
          Call->Line = E->Line;
          Call->Kids.push_back(std::move(E));
          parseArgs(Call->Args);
          E = sealed(std::move(Call));
        } else {
          ExprPtr Member = makeExpr(ExprKind::Member);
          Member->Name = std::move(Name);
          Member->Line = E->Line;
          Member->Kids.push_back(std::move(E));
          E = sealed(std::move(Member));
        }
        continue;
      }
      if (check(TokKind::LBracket)) {
        advance();
        ExprPtr Index = makeExpr(ExprKind::Index);
        Index->Line = E->Line;
        Index->Kids.push_back(std::move(E));
        Index->Kids.push_back(parseExpr());
        expect(TokKind::RBracket, "after array index");
        E = sealed(std::move(Index));
        continue;
      }
      break;
    }
    return E;
  }

  ExprPtr parsePrimary() {
    switch (peek().Kind) {
    case TokKind::IntLit: {
      ExprPtr E = makeExpr(ExprKind::IntLit);
      E->IntVal = advance().IntVal;
      return E;
    }
    case TokKind::DoubleLit: {
      ExprPtr E = makeExpr(ExprKind::DoubleLit);
      E->DblVal = advance().DblVal;
      return E;
    }
    case TokKind::StringLit: {
      ExprPtr E = makeExpr(ExprKind::StrLit);
      E->Name = advance().Text;
      return E;
    }
    case TokKind::KwTrue:
    case TokKind::KwFalse: {
      ExprPtr E = makeExpr(ExprKind::BoolLit);
      E->BoolVal = advance().Kind == TokKind::KwTrue;
      return E;
    }
    case TokKind::KwNull:
      advance();
      return makeExpr(ExprKind::NullLit);
    case TokKind::KwThis:
      advance();
      return makeExpr(ExprKind::This);
    case TokKind::LParen: {
      advance();
      ExprPtr E = parseExpr();
      expect(TokKind::RParen, "after parenthesized expression");
      return E;
    }
    case TokKind::KwNew:
      return parseNew();
    case TokKind::Ident: {
      std::string Name = advance().Text;
      if (match(TokKind::LParen)) {
        ExprPtr Call = makeExpr(ExprKind::Call);
        Call->Name = std::move(Name);
        Call->Kids.push_back(nullptr); // Unqualified call.
        parseArgs(Call->Args);
        return sealed(std::move(Call));
      }
      ExprPtr E = makeExpr(ExprKind::Ident);
      E->Name = std::move(Name);
      return E;
    }
    default:
      error(std::string("unexpected token ") + tokKindName(peek().Kind) +
            " in expression");
      return makeExpr(ExprKind::NullLit);
    }
  }

  ExprPtr parseNew() {
    advance(); // 'new'
    AstType Base;
    Base.Line = peek().Line;
    switch (peek().Kind) {
    case TokKind::KwInt:
      Base.Base = "int";
      break;
    case TokKind::KwDouble:
      Base.Base = "double";
      break;
    case TokKind::KwBoolean:
      Base.Base = "boolean";
      break;
    case TokKind::KwString:
      Base.Base = "String";
      break;
    case TokKind::Ident:
      Base.Base = peek().Text;
      break;
    default:
      error("expected type after 'new'");
      return makeExpr(ExprKind::NullLit);
    }
    advance();
    if (match(TokKind::LParen)) {
      ExprPtr E = makeExpr(ExprKind::New);
      E->Ty = std::move(Base);
      parseArgs(E->Args);
      return sealed(std::move(E));
    }
    if (!expect(TokKind::LBracket, "after array element type"))
      return makeExpr(ExprKind::NullLit);
    ExprPtr E = makeExpr(ExprKind::NewArray);
    E->Kids.push_back(parseExpr());
    expect(TokKind::RBracket, "after array length");
    // Trailing "[]" pairs increase the element rank: new int[n][] is an
    // array of int[].
    while (check(TokKind::LBracket) && check(TokKind::RBracket, 1)) {
      advance();
      advance();
      ++Base.Rank;
    }
    E->Ty = std::move(Base);
    return sealed(std::move(E));
  }

  std::vector<Token> Toks;
  AstUnit &Unit;
  std::vector<std::string> &Errors;
  size_t Pos = 0;
  int Depth = 0;
  bool Failed = false;
};

} // namespace

bool nimg::parseUnit(const std::string &Source, AstUnit &Unit,
                     std::vector<std::string> &Errors) {
  std::vector<Token> Toks = lexSource(Source);
  assert(!Toks.empty() && "lexer returns at least EOF");
  if (Toks.back().Kind == TokKind::Error) {
    Errors.push_back("line " + std::to_string(Toks.back().Line) + ": " +
                     Toks.back().Text);
    return false;
  }
  return Parser(std::move(Toks), Unit, Errors).run();
}
