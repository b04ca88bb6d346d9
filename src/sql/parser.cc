#include "sql/parser.h"

#include "common/string_util.h"
#include "sql/lexer.h"

namespace pdm::sql {

// --- Token helpers -----------------------------------------------------------

const Token& Parser::Peek(size_t offset) const {
  size_t i = pos_ + offset;
  if (i >= tokens_.size()) i = tokens_.size() - 1;  // the trailing kEnd
  return tokens_[i];
}

const Token& Parser::Advance() {
  const Token& t = tokens_[pos_];
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool Parser::MatchToken(TokenKind kind) {
  if (Check(kind)) {
    Advance();
    return true;
  }
  return false;
}

bool Parser::MatchKeyword(Keyword kw) {
  if (CheckKeyword(kw)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::Expect(TokenKind kind, std::string_view what) {
  if (Check(kind)) {
    Advance();
    return Status::OK();
  }
  return ErrorHere("expected " + std::string(what) + ", found " +
                   Peek().Describe());
}

Status Parser::ExpectKeyword(Keyword kw) {
  if (CheckKeyword(kw)) {
    Advance();
    return Status::OK();
  }
  return ErrorHere("expected " + std::string(KeywordText(kw)) + ", found " +
                   Peek().Describe());
}

Result<std::string> Parser::ExpectIdentifier(std::string_view what) {
  if (Check(TokenKind::kIdentifier)) {
    return std::string(Advance().text);
  }
  return ErrorHere("expected " + std::string(what) + ", found " +
                   Peek().Describe());
}

Status Parser::ErrorHere(std::string message) const {
  const Token& t = Peek();
  return Status::ParseError(StrFormat("%s (line %d, column %d)",
                                      message.c_str(), t.line, t.column));
}

// --- Entry points ------------------------------------------------------------

Result<StatementPtr> Parser::ParseTopLevel() {
  next_param_slot_ = 0;  // fingerprint parameter ordinals are per-statement
  if (CheckKeyword(Keyword::kSelect) || CheckKeyword(Keyword::kWith)) {
    return ParseSelectStatement();
  }
  if (CheckKeyword(Keyword::kExplain)) return ParseExplain();
  if (CheckKeyword(Keyword::kCreate)) {
    if (Peek(1).IsKeyword(Keyword::kView) ||
        (Peek(1).IsKeyword(Keyword::kOr) &&
         Peek(2).IsKeyword(Keyword::kReplace))) {
      return ParseCreateView();
    }
    return ParseCreateTable();
  }
  if (CheckKeyword(Keyword::kDrop)) {
    if (Peek(1).IsKeyword(Keyword::kView)) return ParseDropView();
    return ParseDropTable();
  }
  if (CheckKeyword(Keyword::kInsert)) return ParseInsert();
  if (CheckKeyword(Keyword::kUpdate)) return ParseUpdate();
  if (CheckKeyword(Keyword::kDelete)) return ParseDelete();
  if (CheckKeyword(Keyword::kCall)) return ParseCall();
  return ErrorHere("expected a statement, found " + Peek().Describe());
}

Result<StatementPtr> Parser::ParseStatement() {
  Result<StatementPtr> stmt = ParseTopLevel();
  if (!stmt.ok()) return stmt;
  MatchToken(TokenKind::kSemicolon);
  if (!Check(TokenKind::kEnd)) {
    return ErrorHere("unexpected trailing input: " + Peek().Describe());
  }
  return stmt;
}

Result<std::vector<StatementPtr>> Parser::ParseScript() {
  std::vector<StatementPtr> out;
  while (!Check(TokenKind::kEnd)) {
    if (MatchToken(TokenKind::kSemicolon)) continue;
    Result<StatementPtr> stmt = ParseTopLevel();
    if (!stmt.ok()) return stmt.status();
    out.push_back(std::move(stmt).value());
    if (!Check(TokenKind::kEnd)) {
      PDM_RETURN_NOT_OK(Expect(TokenKind::kSemicolon, "';'"));
    }
  }
  return out;
}

Result<StatementPtr> Parser::ParseExplain() {
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kExplain));
  auto stmt = std::make_unique<ExplainStmt>();
  PDM_ASSIGN_OR_RETURN(StatementPtr select, ParseSelectStatement());
  stmt->select.reset(static_cast<SelectStmt*>(select.release()));
  return StatementPtr(std::move(stmt));
}

Result<StatementPtr> Parser::ParseCreateView() {
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kCreate));
  auto stmt = std::make_unique<CreateViewStmt>();
  if (MatchKeyword(Keyword::kOr)) {
    PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kReplace));
    stmt->or_replace = true;
  }
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kView));
  PDM_ASSIGN_OR_RETURN(stmt->view_name, ExpectIdentifier("view name"));
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kAs));
  PDM_ASSIGN_OR_RETURN(StatementPtr select, ParseSelectStatement());
  stmt->select.reset(static_cast<SelectStmt*>(select.release()));
  return StatementPtr(std::move(stmt));
}

Result<StatementPtr> Parser::ParseDropView() {
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kDrop));
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kView));
  auto stmt = std::make_unique<DropViewStmt>();
  if (CheckKeyword(Keyword::kIf)) {
    Advance();
    PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kExists));
    stmt->if_exists = true;
  }
  PDM_ASSIGN_OR_RETURN(stmt->view_name, ExpectIdentifier("view name"));
  return StatementPtr(std::move(stmt));
}

Result<ExprPtr> Parser::ParseStandaloneExpression() {
  next_param_slot_ = 0;
  PDM_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpr());
  if (!Check(TokenKind::kEnd)) {
    return ErrorHere("unexpected trailing input: " + Peek().Describe());
  }
  return expr;
}

// --- Statements ---------------------------------------------------------------

Result<StatementPtr> Parser::ParseSelectStatement() {
  auto stmt = std::make_unique<SelectStmt>();
  if (MatchKeyword(Keyword::kWith)) {
    stmt->recursive = MatchKeyword(Keyword::kRecursive);
    do {
      CommonTableExpr cte;
      PDM_ASSIGN_OR_RETURN(cte.name, ExpectIdentifier("CTE name"));
      if (MatchToken(TokenKind::kLeftParen)) {
        do {
          PDM_ASSIGN_OR_RETURN(std::string col,
                               ExpectIdentifier("CTE column name"));
          cte.column_names.push_back(std::move(col));
        } while (MatchToken(TokenKind::kComma));
        PDM_RETURN_NOT_OK(Expect(TokenKind::kRightParen, "')'"));
      }
      PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kAs));
      PDM_RETURN_NOT_OK(Expect(TokenKind::kLeftParen, "'('"));
      PDM_ASSIGN_OR_RETURN(cte.query, ParseQueryExpr());
      PDM_RETURN_NOT_OK(Expect(TokenKind::kRightParen, "')'"));
      stmt->ctes.push_back(std::move(cte));
    } while (MatchToken(TokenKind::kComma));
  }
  PDM_ASSIGN_OR_RETURN(std::unique_ptr<QueryExpr> q, ParseQueryExpr());
  stmt->query = std::move(*q);
  return StatementPtr(std::move(stmt));
}

Result<std::unique_ptr<QueryExpr>> Parser::ParseQueryExpr() {
  auto query = std::make_unique<QueryExpr>();
  PDM_ASSIGN_OR_RETURN(SelectCore first, ParseSelectCore());
  query->terms.push_back(std::move(first));
  while (MatchKeyword(Keyword::kUnion)) {
    bool all = MatchKeyword(Keyword::kAll);
    PDM_ASSIGN_OR_RETURN(SelectCore term, ParseSelectCore());
    query->terms.push_back(std::move(term));
    query->union_all.push_back(all);
  }
  if (MatchKeyword(Keyword::kOrder)) {
    PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kBy));
    do {
      PDM_ASSIGN_OR_RETURN(OrderByItem item, ParseOrderByItem());
      query->order_by.push_back(std::move(item));
    } while (MatchToken(TokenKind::kComma));
  }
  if (MatchKeyword(Keyword::kLimit)) {
    if (!Check(TokenKind::kIntegerLiteral)) {
      return ErrorHere("expected integer after LIMIT");
    }
    query->limit = Advance().int_value;
  }
  return query;
}

Result<OrderByItem> Parser::ParseOrderByItem() {
  OrderByItem item;
  if (Check(TokenKind::kIntegerLiteral)) {
    item.position = Advance().int_value;
  } else {
    PDM_ASSIGN_OR_RETURN(item.expr, ParseExpr());
  }
  if (MatchKeyword(Keyword::kDesc)) {
    item.descending = true;
  } else {
    MatchKeyword(Keyword::kAsc);
  }
  return item;
}

Result<SelectCore> Parser::ParseSelectCore() {
  SelectCore core;
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kSelect));
  core.distinct = MatchKeyword(Keyword::kDistinct);
  if (!core.distinct) MatchKeyword(Keyword::kAll);
  do {
    PDM_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
    core.items.push_back(std::move(item));
  } while (MatchToken(TokenKind::kComma));

  if (MatchKeyword(Keyword::kFrom)) {
    do {
      PDM_ASSIGN_OR_RETURN(FromItem item, ParseFromItem());
      core.from.push_back(std::move(item));
    } while (MatchToken(TokenKind::kComma));
  }
  if (MatchKeyword(Keyword::kWhere)) {
    PDM_ASSIGN_OR_RETURN(core.where, ParseExpr());
  }
  if (MatchKeyword(Keyword::kGroup)) {
    PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kBy));
    do {
      PDM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      core.group_by.push_back(std::move(e));
    } while (MatchToken(TokenKind::kComma));
  }
  if (MatchKeyword(Keyword::kHaving)) {
    PDM_ASSIGN_OR_RETURN(core.having, ParseExpr());
  }
  return core;
}

Result<SelectItem> Parser::ParseSelectItem() {
  SelectItem item;
  if (Check(TokenKind::kStar)) {
    Advance();
    item.is_star = true;
    return item;
  }
  // `alias.*`
  if (Check(TokenKind::kIdentifier) && Peek(1).kind == TokenKind::kDot &&
      Peek(2).kind == TokenKind::kStar) {
    item.is_star = true;
    item.star_qualifier = std::string(Advance().text);
    Advance();  // '.'
    Advance();  // '*'
    return item;
  }
  PDM_ASSIGN_OR_RETURN(item.expr, ParseExpr());
  if (MatchKeyword(Keyword::kAs)) {
    PDM_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("column alias"));
  } else if (Check(TokenKind::kIdentifier)) {
    item.alias = std::string(Advance().text);
  }
  return item;
}

Result<FromItem> Parser::ParseFromItem() {
  FromItem item;
  PDM_ASSIGN_OR_RETURN(item.ref, ParseTableRef());
  while (true) {
    bool is_join = false;
    if (CheckKeyword(Keyword::kJoin)) {
      Advance();
      is_join = true;
    } else if (CheckKeyword(Keyword::kInner) &&
               Peek(1).IsKeyword(Keyword::kJoin)) {
      Advance();
      Advance();
      is_join = true;
    }
    if (!is_join) break;
    JoinClause join;
    PDM_ASSIGN_OR_RETURN(join.ref, ParseTableRef());
    PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kOn));
    PDM_ASSIGN_OR_RETURN(join.on, ParseExpr());
    item.joins.push_back(std::move(join));
  }
  return item;
}

Result<TableRef> Parser::ParseTableRef() {
  TableRef ref;
  if (MatchToken(TokenKind::kLeftParen)) {
    ref.kind = TableRef::Kind::kSubquery;
    PDM_ASSIGN_OR_RETURN(ref.subquery, ParseQueryExpr());
    PDM_RETURN_NOT_OK(Expect(TokenKind::kRightParen, "')'"));
    MatchKeyword(Keyword::kAs);
    PDM_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier("derived table alias"));
    return ref;
  }
  PDM_ASSIGN_OR_RETURN(ref.table_name, ExpectIdentifier("table name"));
  if (MatchKeyword(Keyword::kAs)) {
    PDM_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier("table alias"));
  } else if (Check(TokenKind::kIdentifier)) {
    ref.alias = std::string(Advance().text);
  }
  return ref;
}

Result<StatementPtr> Parser::ParseCreateTable() {
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kCreate));
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kTable));
  auto stmt = std::make_unique<CreateTableStmt>();
  if (CheckKeyword(Keyword::kIf)) {
    Advance();
    PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kNot));
    PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kExists));
    stmt->if_not_exists = true;
  }
  PDM_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
  PDM_RETURN_NOT_OK(Expect(TokenKind::kLeftParen, "'('"));
  do {
    Column col;
    PDM_ASSIGN_OR_RETURN(col.name, ExpectIdentifier("column name"));
    PDM_ASSIGN_OR_RETURN(std::string type_name,
                         ExpectIdentifier("column type"));
    PDM_ASSIGN_OR_RETURN(col.type, ParseColumnType(type_name));
    // Swallow optional length: VARCHAR(80).
    if (MatchToken(TokenKind::kLeftParen)) {
      if (!Check(TokenKind::kIntegerLiteral)) {
        return ErrorHere("expected length in type");
      }
      Advance();
      PDM_RETURN_NOT_OK(Expect(TokenKind::kRightParen, "')'"));
    }
    stmt->columns.push_back(std::move(col));
  } while (MatchToken(TokenKind::kComma));
  PDM_RETURN_NOT_OK(Expect(TokenKind::kRightParen, "')'"));
  return StatementPtr(std::move(stmt));
}

Result<StatementPtr> Parser::ParseDropTable() {
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kDrop));
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kTable));
  auto stmt = std::make_unique<DropTableStmt>();
  if (CheckKeyword(Keyword::kIf)) {
    Advance();
    PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kExists));
    stmt->if_exists = true;
  }
  PDM_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
  return StatementPtr(std::move(stmt));
}

Result<StatementPtr> Parser::ParseInsert() {
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kInsert));
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kInto));
  auto stmt = std::make_unique<InsertStmt>();
  PDM_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
  if (MatchToken(TokenKind::kLeftParen)) {
    do {
      PDM_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      stmt->columns.push_back(std::move(col));
    } while (MatchToken(TokenKind::kComma));
    PDM_RETURN_NOT_OK(Expect(TokenKind::kRightParen, "')'"));
  }
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kValues));
  do {
    PDM_RETURN_NOT_OK(Expect(TokenKind::kLeftParen, "'('"));
    std::vector<ExprPtr> row;
    do {
      PDM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      row.push_back(std::move(e));
    } while (MatchToken(TokenKind::kComma));
    PDM_RETURN_NOT_OK(Expect(TokenKind::kRightParen, "')'"));
    stmt->rows.push_back(std::move(row));
  } while (MatchToken(TokenKind::kComma));
  return StatementPtr(std::move(stmt));
}

Result<StatementPtr> Parser::ParseUpdate() {
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kUpdate));
  auto stmt = std::make_unique<UpdateStmt>();
  PDM_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kSet));
  do {
    PDM_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
    PDM_RETURN_NOT_OK(Expect(TokenKind::kEq, "'='"));
    PDM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    stmt->assignments.emplace_back(std::move(col), std::move(e));
  } while (MatchToken(TokenKind::kComma));
  if (MatchKeyword(Keyword::kWhere)) {
    PDM_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return StatementPtr(std::move(stmt));
}

Result<StatementPtr> Parser::ParseDelete() {
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kDelete));
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kFrom));
  auto stmt = std::make_unique<DeleteStmt>();
  PDM_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
  if (MatchKeyword(Keyword::kWhere)) {
    PDM_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return StatementPtr(std::move(stmt));
}

Result<StatementPtr> Parser::ParseCall() {
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kCall));
  auto stmt = std::make_unique<CallStmt>();
  PDM_ASSIGN_OR_RETURN(stmt->procedure_name,
                       ExpectIdentifier("procedure name"));
  PDM_RETURN_NOT_OK(Expect(TokenKind::kLeftParen, "'('"));
  if (!Check(TokenKind::kRightParen)) {
    do {
      PDM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      stmt->args.push_back(std::move(e));
    } while (MatchToken(TokenKind::kComma));
  }
  PDM_RETURN_NOT_OK(Expect(TokenKind::kRightParen, "')'"));
  return StatementPtr(std::move(stmt));
}

// --- Expressions ---------------------------------------------------------------

Result<ExprPtr> Parser::ParseExpr() {
  PDM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
  while (MatchKeyword(Keyword::kOr)) {
    PDM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
    lhs = MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseAnd() {
  PDM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
  while (MatchKeyword(Keyword::kAnd)) {
    PDM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
    lhs = MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseNot() {
  // NOT EXISTS is handled as a unit by ParsePrimary so it yields an
  // ExistsExpr with its negated flag set (matching how the rule layer
  // builds and inspects these nodes).
  if (CheckKeyword(Keyword::kNot) && !Peek(1).IsKeyword(Keyword::kExists)) {
    Advance();
    PDM_ASSIGN_OR_RETURN(ExprPtr e, ParseNot());
    return MakeNot(std::move(e));
  }
  return ParseComparison();
}

bool Parser::PeekSubqueryAfterLParen() const {
  return Check(TokenKind::kLeftParen) &&
         (Peek(1).IsKeyword(Keyword::kSelect) ||
          Peek(1).IsKeyword(Keyword::kWith));
}

Result<ExprPtr> Parser::ParseComparison() {
  PDM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
  while (true) {
    BinaryOp op;
    if (Check(TokenKind::kEq)) {
      op = BinaryOp::kEq;
    } else if (Check(TokenKind::kNotEq)) {
      op = BinaryOp::kNotEq;
    } else if (Check(TokenKind::kLess)) {
      op = BinaryOp::kLess;
    } else if (Check(TokenKind::kLessEq)) {
      op = BinaryOp::kLessEq;
    } else if (Check(TokenKind::kGreater)) {
      op = BinaryOp::kGreater;
    } else if (Check(TokenKind::kGreaterEq)) {
      op = BinaryOp::kGreaterEq;
    } else {
      break;
    }
    Advance();
    PDM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
    lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
  }

  // Postfix predicates: IS [NOT] NULL, [NOT] IN / BETWEEN / LIKE.
  while (true) {
    if (MatchKeyword(Keyword::kIs)) {
      bool negated = MatchKeyword(Keyword::kNot);
      PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kNull));
      lhs = std::make_unique<IsNullExpr>(std::move(lhs), negated);
      continue;
    }
    bool negated = false;
    size_t saved = pos_;
    if (MatchKeyword(Keyword::kNot)) {
      if (CheckKeyword(Keyword::kIn) || CheckKeyword(Keyword::kBetween) ||
          CheckKeyword(Keyword::kLike)) {
        negated = true;
      } else {
        pos_ = saved;  // the NOT belongs to a boolean context above us
        break;
      }
    }
    if (MatchKeyword(Keyword::kIn)) {
      if (PeekSubqueryAfterLParen()) {
        PDM_RETURN_NOT_OK(Expect(TokenKind::kLeftParen, "'('"));
        PDM_ASSIGN_OR_RETURN(std::unique_ptr<QueryExpr> sub, ParseQueryExpr());
        PDM_RETURN_NOT_OK(Expect(TokenKind::kRightParen, "')'"));
        lhs = std::make_unique<InSubqueryExpr>(std::move(lhs), std::move(sub),
                                               negated);
      } else {
        PDM_RETURN_NOT_OK(Expect(TokenKind::kLeftParen, "'('"));
        std::vector<ExprPtr> items;
        do {
          PDM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          items.push_back(std::move(e));
        } while (MatchToken(TokenKind::kComma));
        PDM_RETURN_NOT_OK(Expect(TokenKind::kRightParen, "')'"));
        lhs = std::make_unique<InListExpr>(std::move(lhs), std::move(items),
                                           negated);
      }
      continue;
    }
    if (MatchKeyword(Keyword::kBetween)) {
      PDM_ASSIGN_OR_RETURN(ExprPtr low, ParseAdditive());
      PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kAnd));
      PDM_ASSIGN_OR_RETURN(ExprPtr high, ParseAdditive());
      lhs = std::make_unique<BetweenExpr>(std::move(lhs), std::move(low),
                                          std::move(high), negated);
      continue;
    }
    if (MatchKeyword(Keyword::kLike)) {
      PDM_ASSIGN_OR_RETURN(ExprPtr pattern, ParseAdditive());
      lhs = std::make_unique<LikeExpr>(std::move(lhs), std::move(pattern),
                                       negated);
      continue;
    }
    break;
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseAdditive() {
  PDM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
  while (true) {
    BinaryOp op;
    if (Check(TokenKind::kPlus)) {
      op = BinaryOp::kAdd;
    } else if (Check(TokenKind::kMinus)) {
      op = BinaryOp::kSub;
    } else if (Check(TokenKind::kConcat)) {
      op = BinaryOp::kConcat;
    } else {
      break;
    }
    Advance();
    PDM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
    lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseMultiplicative() {
  PDM_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
  while (true) {
    BinaryOp op;
    if (Check(TokenKind::kStar)) {
      op = BinaryOp::kMul;
    } else if (Check(TokenKind::kSlash)) {
      op = BinaryOp::kDiv;
    } else if (Check(TokenKind::kPercent)) {
      op = BinaryOp::kMod;
    } else {
      break;
    }
    Advance();
    PDM_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
    lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseUnary() {
  if (MatchToken(TokenKind::kMinus)) {
    PDM_ASSIGN_OR_RETURN(ExprPtr e, ParseUnary());
    return ExprPtr(std::make_unique<UnaryExpr>(UnaryOp::kNegate, std::move(e)));
  }
  if (MatchToken(TokenKind::kPlus)) {
    return ParseUnary();
  }
  return ParsePrimary();
}

ExprPtr Parser::StampedLiteral(Value v) {
  auto lit = std::make_unique<LiteralExpr>(std::move(v));
  lit->param_slot = static_cast<int>(next_param_slot_++);
  return lit;
}

Result<ExprPtr> Parser::ParsePrimary() {
  // Literals.
  if (Check(TokenKind::kIntegerLiteral)) {
    return StampedLiteral(Value::Int64(Advance().int_value));
  }
  if (Check(TokenKind::kDoubleLiteral)) {
    return StampedLiteral(Value::Double(Advance().double_value));
  }
  if (Check(TokenKind::kStringLiteral)) {
    return StampedLiteral(Value::String(Advance().StringValue()));
  }
  if (MatchKeyword(Keyword::kNull)) return MakeLiteral(Value::Null());
  if (MatchKeyword(Keyword::kTrue)) return MakeLiteral(Value::Bool(true));
  if (MatchKeyword(Keyword::kFalse)) return MakeLiteral(Value::Bool(false));

  if (CheckKeyword(Keyword::kCase)) return ParseCase();

  if (MatchKeyword(Keyword::kCast)) {
    PDM_RETURN_NOT_OK(Expect(TokenKind::kLeftParen, "'('"));
    PDM_ASSIGN_OR_RETURN(ExprPtr operand, ParseExpr());
    PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kAs));
    PDM_ASSIGN_OR_RETURN(std::string type_name,
                         ExpectIdentifier("type name"));
    PDM_ASSIGN_OR_RETURN(ColumnType type, ParseColumnType(type_name));
    // Optional length, e.g. CAST(x AS VARCHAR(10)).
    if (MatchToken(TokenKind::kLeftParen)) {
      if (!Check(TokenKind::kIntegerLiteral)) {
        return ErrorHere("expected length in type");
      }
      Advance();
      PDM_RETURN_NOT_OK(Expect(TokenKind::kRightParen, "')'"));
    }
    PDM_RETURN_NOT_OK(Expect(TokenKind::kRightParen, "')'"));
    return ExprPtr(std::make_unique<CastExpr>(std::move(operand), type));
  }

  if (CheckKeyword(Keyword::kExists) ||
      (CheckKeyword(Keyword::kNot) && Peek(1).IsKeyword(Keyword::kExists))) {
    bool negated = MatchKeyword(Keyword::kNot);
    PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kExists));
    PDM_RETURN_NOT_OK(Expect(TokenKind::kLeftParen, "'('"));
    PDM_ASSIGN_OR_RETURN(std::unique_ptr<QueryExpr> sub, ParseQueryExpr());
    PDM_RETURN_NOT_OK(Expect(TokenKind::kRightParen, "')'"));
    return ExprPtr(std::make_unique<ExistsExpr>(std::move(sub), negated));
  }

  // Parenthesized: scalar subquery or grouped expression.
  if (Check(TokenKind::kLeftParen)) {
    if (PeekSubqueryAfterLParen()) {
      Advance();  // '('
      PDM_ASSIGN_OR_RETURN(std::unique_ptr<QueryExpr> sub, ParseQueryExpr());
      PDM_RETURN_NOT_OK(Expect(TokenKind::kRightParen, "')'"));
      return ExprPtr(std::make_unique<ScalarSubqueryExpr>(std::move(sub)));
    }
    Advance();  // '('
    PDM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    PDM_RETURN_NOT_OK(Expect(TokenKind::kRightParen, "')'"));
    return e;
  }

  // Identifiers: function call, qualified or bare column ref.
  if (Check(TokenKind::kIdentifier)) {
    std::string name(Advance().text);
    if (Check(TokenKind::kLeftParen)) {
      return ParseFunctionCall(std::move(name));
    }
    if (MatchToken(TokenKind::kDot)) {
      PDM_ASSIGN_OR_RETURN(std::string column,
                           ExpectIdentifier("column name"));
      return MakeColumnRef(std::move(name), std::move(column));
    }
    return MakeColumnRef(std::move(name));
  }

  return ErrorHere("expected an expression, found " + Peek().Describe());
}

Result<ExprPtr> Parser::ParseFunctionCall(std::string name) {
  PDM_RETURN_NOT_OK(Expect(TokenKind::kLeftParen, "'('"));
  bool distinct = MatchKeyword(Keyword::kDistinct);
  std::vector<ExprPtr> args;
  if (!Check(TokenKind::kRightParen)) {
    if (Check(TokenKind::kStar)) {
      Advance();
      args.push_back(std::make_unique<StarExpr>());
    } else {
      do {
        PDM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        args.push_back(std::move(e));
      } while (MatchToken(TokenKind::kComma));
    }
  }
  PDM_RETURN_NOT_OK(Expect(TokenKind::kRightParen, "')'"));
  return ExprPtr(std::make_unique<FunctionCallExpr>(
      ToUpperAscii(name), std::move(args), distinct));
}

Result<ExprPtr> Parser::ParseCase() {
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kCase));
  std::vector<std::pair<ExprPtr, ExprPtr>> whens;
  while (MatchKeyword(Keyword::kWhen)) {
    PDM_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
    PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kThen));
    PDM_ASSIGN_OR_RETURN(ExprPtr val, ParseExpr());
    whens.emplace_back(std::move(cond), std::move(val));
  }
  if (whens.empty()) {
    return ErrorHere("CASE requires at least one WHEN clause");
  }
  ExprPtr else_expr;
  if (MatchKeyword(Keyword::kElse)) {
    PDM_ASSIGN_OR_RETURN(else_expr, ParseExpr());
  }
  PDM_RETURN_NOT_OK(ExpectKeyword(Keyword::kEnd));
  return ExprPtr(
      std::make_unique<CaseExpr>(std::move(whens), std::move(else_expr)));
}

// --- Free functions -------------------------------------------------------------

Result<StatementPtr> ParseSql(std::string_view sql) {
  PDM_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizeSql(sql));
  Parser parser(tokens);
  return parser.ParseStatement();
}

Result<std::vector<StatementPtr>> ParseSqlScript(std::string_view sql) {
  PDM_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizeSql(sql));
  Parser parser(tokens);
  return parser.ParseScript();
}

Result<ExprPtr> ParseSqlExpression(std::string_view text) {
  PDM_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizeSql(text));
  Parser parser(tokens);
  return parser.ParseStandaloneExpression();
}

}  // namespace pdm::sql
