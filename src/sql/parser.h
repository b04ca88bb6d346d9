#ifndef PDM_SQL_PARSER_H_
#define PDM_SQL_PARSER_H_

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/token.h"

namespace pdm::sql {

/// Recursive-descent parser for the SQL dialect described in DESIGN.md.
/// The dialect is the subset the paper's queries need (plus DML/DDL):
/// it deliberately has no LEFT JOIN so that LEFT/RIGHT stay usable as
/// column names, matching the paper's `link(left, right, ...)` schema.
///
/// The parser reads a token stream it does not own — usually the one a
/// StatementFingerprint carries (sql/fingerprint.h), so a plan-cache
/// miss parses without lexing again. The tokens, and the text they
/// view, must outlive the parser; the stream ends with kEnd.
class Parser {
 public:
  explicit Parser(std::span<const Token> tokens) : tokens_(tokens) {}

  /// Parses exactly one statement (optionally ';'-terminated).
  Result<StatementPtr> ParseStatement();

  /// Parses a ';'-separated list of statements.
  Result<std::vector<StatementPtr>> ParseScript();

  /// Parses a standalone expression (used by tests and the rule layer to
  /// build conditions from text).
  Result<ExprPtr> ParseStandaloneExpression();

 private:
  // Token helpers.
  const Token& Peek(size_t offset = 0) const;
  const Token& Advance();
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  bool CheckKeyword(Keyword kw) const { return Peek().IsKeyword(kw); }
  bool MatchToken(TokenKind kind);
  bool MatchKeyword(Keyword kw);
  Status Expect(TokenKind kind, std::string_view what);
  Status ExpectKeyword(Keyword kw);
  Result<std::string> ExpectIdentifier(std::string_view what);
  Status ErrorHere(std::string message) const;

  // Statements.
  Result<StatementPtr> ParseTopLevel();
  Result<StatementPtr> ParseSelectStatement();
  Result<StatementPtr> ParseCreateTable();
  Result<StatementPtr> ParseDropTable();
  Result<StatementPtr> ParseInsert();
  Result<StatementPtr> ParseUpdate();
  Result<StatementPtr> ParseDelete();
  Result<StatementPtr> ParseCall();
  Result<StatementPtr> ParseExplain();
  Result<StatementPtr> ParseCreateView();
  Result<StatementPtr> ParseDropView();

  // Query structure.
  Result<std::unique_ptr<QueryExpr>> ParseQueryExpr();
  Result<SelectCore> ParseSelectCore();
  Result<SelectItem> ParseSelectItem();
  Result<FromItem> ParseFromItem();
  Result<TableRef> ParseTableRef();
  Result<OrderByItem> ParseOrderByItem();

  // Expressions (by descending precedence level).
  Result<ExprPtr> ParseExpr();           // OR
  Result<ExprPtr> ParseAnd();
  Result<ExprPtr> ParseNot();
  Result<ExprPtr> ParseComparison();     // = <> < <= > >= IN BETWEEN LIKE IS
  Result<ExprPtr> ParseAdditive();       // + - ||
  Result<ExprPtr> ParseMultiplicative(); // * / %
  Result<ExprPtr> ParseUnary();          // -x
  Result<ExprPtr> ParsePrimary();
  Result<ExprPtr> ParseFunctionCall(std::string name);
  Result<ExprPtr> ParseCase();

  /// True if the upcoming '('-enclosed production is a subquery
  /// (starts with SELECT or WITH).
  bool PeekSubqueryAfterLParen() const;

  /// Literal stamped with the next fingerprint parameter ordinal. Every
  /// literal *token* that reaches ParsePrimary gets a slot; literals the
  /// fingerprint keeps verbatim (LIMIT, ORDER BY positions, type
  /// lengths) and keyword literals (NULL/TRUE/FALSE) do not. The
  /// numbering must stay in lockstep with sql/fingerprint.cc.
  ExprPtr StampedLiteral(Value v);

  std::span<const Token> tokens_;
  size_t pos_ = 0;
  size_t next_param_slot_ = 0;
};

/// Tokenizes and parses one statement.
Result<StatementPtr> ParseSql(std::string_view sql);

/// Tokenizes and parses a ';'-separated script.
Result<std::vector<StatementPtr>> ParseSqlScript(std::string_view sql);

/// Tokenizes and parses a standalone expression (e.g. a rule condition).
Result<ExprPtr> ParseSqlExpression(std::string_view text);

}  // namespace pdm::sql

#endif  // PDM_SQL_PARSER_H_
