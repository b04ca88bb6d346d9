#include "sql/fingerprint.h"

#include "obs/metrics.h"
#include "sql/lexer.h"

namespace pdm::sql {

namespace {

/// The counter lives in the process-wide MetricsRegistry; the reference
/// is stable for the life of the process, so it is looked up once.
obs::Counter& FingerprintCallCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("sql.fingerprint_calls");
  return counter;
}

}  // namespace

uint64_t FingerprintCallCount() { return FingerprintCallCounter().value(); }

namespace {

std::string_view PunctText(TokenKind kind) {
  switch (kind) {
    case TokenKind::kLeftParen:  return "(";
    case TokenKind::kRightParen: return ")";
    case TokenKind::kComma:      return ",";
    case TokenKind::kDot:        return ".";
    case TokenKind::kSemicolon:  return ";";
    case TokenKind::kStar:       return "*";
    case TokenKind::kPlus:       return "+";
    case TokenKind::kMinus:      return "-";
    case TokenKind::kSlash:      return "/";
    case TokenKind::kPercent:    return "%";
    case TokenKind::kEq:         return "=";
    case TokenKind::kNotEq:      return "<>";
    case TokenKind::kLess:       return "<";
    case TokenKind::kLessEq:     return "<=";
    case TokenKind::kGreater:    return ">";
    case TokenKind::kGreaterEq:  return ">=";
    case TokenKind::kConcat:     return "||";
    default:                     return "?";
  }
}

/// Per-parenthesis-depth ORDER BY state. `item_start` is true exactly
/// where Parser::ParseOrderByItem would treat a bare integer as an
/// output-column position: right after ORDER BY and after each
/// item-separating comma at the same depth.
struct OrderState {
  bool in_order_by = false;
  bool item_start = false;
};

}  // namespace

Result<StatementFingerprint> FingerprintSql(std::string_view sql) {
  FingerprintCallCounter().Increment();
  StatementFingerprint fp;
  PDM_ASSIGN_OR_RETURN(fp.tokens, TokenizeSql(sql));
  const Token& first = fp.tokens.front();  // at least the trailing kEnd
  fp.dml = first.IsKeyword("INSERT") || first.IsKeyword("UPDATE") ||
           first.IsKeyword("DELETE");
  if (!(first.IsKeyword("SELECT") || first.IsKeyword("WITH"))) return fp;
  fp.cacheable = true;

  std::vector<OrderState> levels(1);
  std::string& key = fp.key;
  auto append = [&key](std::string_view piece) {
    if (!key.empty()) key += ' ';
    key += piece;
  };

  const std::vector<Token>& toks = fp.tokens;
  for (size_t i = 0; i < toks.size() && toks[i].kind != TokenKind::kEnd; ++i) {
    const Token& t = toks[i];
    const bool was_item_start =
        levels.back().in_order_by && levels.back().item_start;
    levels.back().item_start = false;

    switch (t.kind) {
      case TokenKind::kKeyword:
        if (t.text == "BY" && i > 0 && toks[i - 1].IsKeyword("ORDER")) {
          levels.back().in_order_by = true;
          levels.back().item_start = true;
        } else if (t.text == "LIMIT") {
          levels.back().in_order_by = false;
        }
        append(t.text);
        break;
      case TokenKind::kIdentifier:
        // Quoted so an identifier can never collide with a keyword.
        key += key.empty() ? "\"" : " \"";
        key += t.text;
        key += '"';
        break;
      case TokenKind::kLeftParen:
        levels.emplace_back();
        append("(");
        break;
      case TokenKind::kRightParen:
        if (levels.size() > 1) levels.pop_back();
        append(")");
        break;
      case TokenKind::kComma:
        if (levels.back().in_order_by) levels.back().item_start = true;
        append(",");
        break;
      case TokenKind::kIntegerLiteral: {
        const bool after_limit = i > 0 && toks[i - 1].IsKeyword("LIMIT");
        const bool type_length = i >= 3 &&
                                 toks[i - 1].kind == TokenKind::kLeftParen &&
                                 toks[i - 2].kind == TokenKind::kIdentifier &&
                                 toks[i - 3].IsKeyword("AS");
        if (after_limit || type_length || was_item_start) {
          append(t.text);  // structural: baked into the plan, not a slot
        } else {
          append("?i");
          fp.params.push_back(Value::Int64(t.int_value));
        }
        break;
      }
      case TokenKind::kDoubleLiteral:
        append("?d");
        fp.params.push_back(Value::Double(t.double_value));
        break;
      case TokenKind::kStringLiteral:
        append("?s");
        fp.params.push_back(Value::String(t.text));
        break;
      default:
        append(PunctText(t.kind));
        break;
    }
  }
  return fp;
}

}  // namespace pdm::sql
