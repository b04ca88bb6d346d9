#include "sql/fingerprint.h"

#include <algorithm>
#include <cstring>

#include "common/string_util.h"
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

/// Consumes the lexer's tokens as they are produced: keeps them, sets
/// the flags and writes each token's piece of the key, so the text is
/// read once.
class Fingerprinter {
 public:
  Fingerprinter(StatementFingerprint* fp, size_t text_size)
      : fp_(*fp), toks_(fp->tokens), text_size_(text_size), in_order_by_(1) {
    // Generated SQL runs about 3.6 bytes per token.
    toks_.reserve(text_size / 3 + 2);
  }

  /// The slot the lexer fills next.
  Token* NextSlot() { return &toks_.emplace_back(); }

  /// Takes in the token just lexed into NextSlot().
  void Add() {
    const size_t i = toks_.size() - 1;
    const Token& t = toks_[i];
    if (i == 0) {
      fp_.dml = t.IsKeyword(Keyword::kInsert) ||
                t.IsKeyword(Keyword::kUpdate) ||
                t.IsKeyword(Keyword::kDelete);
      fp_.cacheable =
          t.IsKeyword(Keyword::kSelect) || t.IsKeyword(Keyword::kWith);
      // The key (quoted identifiers, placeholders) of generated SQL
      // runs about 1.3 times the text's length.
      if (fp_.cacheable) fp_.key.resize(text_size_ + text_size_ / 2 + 16);
    }
    if (t.kind == TokenKind::kEnd) {
      fp_.key.resize(key_size_);
      return;
    }
    if (!fp_.expand) fp_.expand = IsExpandCue(i);
    if (fp_.cacheable) AppendKey(i);
  }

 private:
  /// WITH RECURSIVE, or `link . left`, ending at token i.
  bool IsExpandCue(size_t i) const {
    const Token& t = toks_[i];
    if (t.IsKeyword(Keyword::kRecursive)) {
      return i > 0 && toks_[i - 1].IsKeyword(Keyword::kWith);
    }
    return t.kind == TokenKind::kIdentifier && i >= 2 &&
           toks_[i - 1].kind == TokenKind::kDot &&
           toks_[i - 2].kind == TokenKind::kIdentifier &&
           EqualsIgnoreCase(t.text, "left") &&
           EqualsIgnoreCase(toks_[i - 2].text, "link");
  }

  /// Writes " piece" (no space first) at the end of the key.
  void Append(std::string_view piece, bool quoted = false) {
    std::string& key = fp_.key;
    const size_t need = key_size_ + piece.size() + 3;
    if (need > key.size()) key.resize(std::max(need, 2 * key.size()));
    char* out = key.data() + key_size_;
    if (key_size_ > 0) *out++ = ' ';
    if (quoted) *out++ = '"';
    CopyShort(out, piece);
    out += piece.size();
    if (quoted) *out++ = '"';
    key_size_ = static_cast<size_t>(out - key.data());
  }

  /// memcpy for the short pieces of a key, without the call: overlapping
  /// fixed-size moves that read only inside `piece`.
  static void CopyShort(char* out, std::string_view piece) {
    const char* in = piece.data();
    const size_t n = piece.size();
    if (n >= 8 && n <= 16) {
      uint64_t head, tail;
      std::memcpy(&head, in, 8);
      std::memcpy(&tail, in + n - 8, 8);
      std::memcpy(out, &head, 8);
      std::memcpy(out + n - 8, &tail, 8);
    } else if (n >= 4 && n < 8) {
      uint32_t head, tail;
      std::memcpy(&head, in, 4);
      std::memcpy(&tail, in + n - 4, 4);
      std::memcpy(out, &head, 4);
      std::memcpy(out + n - 4, &tail, 4);
    } else if (n > 0 && n < 4) {
      out[0] = in[0];
      out[n / 2] = in[n / 2];
      out[n - 1] = in[n - 1];
    } else if (n > 16) {
      std::memcpy(out, in, n);
    }
  }

  void AppendKey(size_t i) {
    const Token& t = toks_[i];
    switch (t.kind) {
      case TokenKind::kKeyword:
        if (t.IsKeyword(Keyword::kBy) && i > 0 &&
            toks_[i - 1].IsKeyword(Keyword::kOrder)) {
          in_order_by_.back() = true;
          item_start_ = i + 1;
        } else if (t.IsKeyword(Keyword::kLimit)) {
          in_order_by_.back() = false;
        }
        Append(t.text);
        break;
      case TokenKind::kIdentifier:
        // Quoted so an identifier can never collide with a keyword.
        Append(t.text, /*quoted=*/true);
        break;
      case TokenKind::kLeftParen:
        in_order_by_.push_back(false);
        Append("(");
        break;
      case TokenKind::kRightParen:
        if (in_order_by_.size() > 1) in_order_by_.pop_back();
        Append(")");
        break;
      case TokenKind::kComma:
        if (in_order_by_.back()) item_start_ = i + 1;
        Append(",");
        break;
      case TokenKind::kIntegerLiteral: {
        const bool after_limit =
            i > 0 && toks_[i - 1].IsKeyword(Keyword::kLimit);
        const bool type_length =
            i >= 3 && toks_[i - 1].kind == TokenKind::kLeftParen &&
            toks_[i - 2].kind == TokenKind::kIdentifier &&
            toks_[i - 3].IsKeyword(Keyword::kAs);
        if (after_limit || type_length || i == item_start_) {
          Append(t.text);  // structural: baked into the plan, not a slot
        } else {
          Append("?i");
          fp_.params.push_back(Value::Int64(t.int_value));
        }
        break;
      }
      case TokenKind::kDoubleLiteral:
        Append("?d");
        fp_.params.push_back(Value::Double(t.double_value));
        break;
      case TokenKind::kStringLiteral:
        Append("?s");
        fp_.params.push_back(Value::String(t.StringValue()));
        break;
      default:
        Append(PunctText(t.kind));
        break;
    }
  }

  StatementFingerprint& fp_;
  std::vector<Token>& toks_;
  const size_t text_size_;
  size_t key_size_ = 0;
  /// Per parenthesis depth: inside an ORDER BY list. A bare integer
  /// there is an output-column position (Parser::ParseOrderByItem) when
  /// it starts an item: it is token `item_start_`, the one right after
  /// ORDER BY or after a comma of that list.
  std::vector<char> in_order_by_;
  size_t item_start_ = 0;
};

}  // namespace

Result<StatementFingerprint> FingerprintSql(std::string_view sql) {
  FingerprintCallCounter().Increment();
  StatementFingerprint fp;
  Fingerprinter fingerprinter(&fp, sql.size());
  Lexer lexer(sql);
  do {
    if (!lexer.Next(fingerprinter.NextSlot())) return lexer.error();
    fingerprinter.Add();
  } while (fp.tokens.back().kind != TokenKind::kEnd);
  return fp;
}

}  // namespace pdm::sql
