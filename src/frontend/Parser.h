//===--- Parser.h - ESP recursive-descent parser ----------------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for ESP. The parser resolves named types while
/// parsing (declare-before-use), assigns dense ids to channels and
/// processes, and desugars standalone `in`/`out` statements into
/// single-case `alt` statements so that later stages handle one construct.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_FRONTEND_PARSER_H
#define ESP_FRONTEND_PARSER_H

#include "frontend/AST.h"
#include "frontend/Token.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace esp {

class DiagnosticEngine;
class SourceManager;

/// Parses one source buffer into a Program.
class Parser {
public:
  Parser(const SourceManager &SM, uint32_t FileId, DiagnosticEngine &Diags);

  /// Parses the whole buffer. Returns the program even if diagnostics were
  /// reported; callers must check Diags.hasErrors().
  std::unique_ptr<Program> parseProgram();

  /// Convenience: lex+parse \p Source registered as \p Name. Returns null
  /// on parse errors.
  static std::unique_ptr<Program> parse(SourceManager &SM,
                                        DiagnosticEngine &Diags,
                                        const std::string &Name,
                                        const std::string &Source);

private:
  // Token access.
  const Token &tok(unsigned Ahead = 0) const;
  void advance() { Pos = std::min(Pos + 1, Tokens.size() - 1); }
  bool consumeIf(TokenKind Kind);
  bool expect(TokenKind Kind, const char *Context);
  void skipToSync();
  /// True at `process`/`channel`/`type`/`interface`, where skipToSync
  /// stops at depth 0 without consuming.
  bool atTopLevelKeyword() const;

  // Top level.
  void parseTypeDecl();
  void parseConstDecl();
  void parseChannelDecl();
  void parseInterfaceDecl();
  void parseProcessDecl();

  // Types.
  const Type *parseType();
  const Type *parseBaseType(bool Mutable);
  std::vector<TypeField> parseFieldList();

  // Statements.
  Stmt *parseStmt();
  Stmt *parseBlock();
  Stmt *parseIf();
  Stmt *parseWhile();
  Stmt *parseAlt();
  Stmt *parseCommStmt();
  Stmt *parseDeclStmt();
  Stmt *parsePatternAssignStmt();
  Stmt *parseExprLeadStmt();
  CommAction parseCommAction();

  // Patterns and expressions.
  Pattern *parsePattern();
  Pattern *parseBracePattern();
  Expr *parseExpr();
  Expr *parseBinaryRHS(int MinPrec, Expr *LHS);
  Expr *parseUnary();
  Expr *parsePostfix();
  Expr *parsePrimary();
  Expr *parseBraceLiteral(bool Mutable);

  std::unique_ptr<Program> Prog;
  DiagnosticEngine &Diags;
  std::vector<Token> Tokens;
  size_t Pos = 0;
  std::unordered_map<std::string, const Type *> NamedTypes;
};

} // namespace esp

#endif // ESP_FRONTEND_PARSER_H
