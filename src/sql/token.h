#ifndef PDM_SQL_TOKEN_H_
#define PDM_SQL_TOKEN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace pdm::sql {

/// Lexical token kinds. Reserved words are kKeyword, told apart by
/// Token::keyword.
enum class TokenKind : uint8_t {
  kEnd = 0,
  kIdentifier,        // bare or "quoted" identifier (quotes stripped)
  kKeyword,           // reserved word; Token::keyword names it
  kIntegerLiteral,    // 42
  kDoubleLiteral,     // 4.2, .5, 1e3
  kStringLiteral,     // 'abc'; Token::StringValue() unescapes ''
  // Punctuation / operators:
  kLeftParen,         // (
  kRightParen,        // )
  kComma,             // ,
  kDot,               // .
  kSemicolon,         // ;
  kStar,              // *
  kPlus,              // +
  kMinus,             // -
  kSlash,             // /
  kPercent,           // %
  kEq,                // =
  kNotEq,             // <> or !=
  kLess,              // <
  kLessEq,            // <=
  kGreater,           // >
  kGreaterEq,         // >=
  kConcat,            // ||
};

std::string_view TokenKindName(TokenKind kind);

/// The dialect's reserved words: X(id, "SPELLING"), one per keyword.
/// Deliberately small: the paper's schemas use LEFT, RIGHT, TYPE and DEC
/// as *column names*, so none of those may be reserved (the dialect has
/// INNER JOIN only). Aggregate names (COUNT, SUM, ...) parse as ordinary
/// function-call identifiers.
#define PDM_SQL_KEYWORDS(X)                                              \
  X(kSelect, "SELECT") X(kFrom, "FROM") X(kWhere, "WHERE")               \
  X(kAnd, "AND") X(kOr, "OR") X(kNot, "NOT") X(kAs, "AS")                \
  X(kJoin, "JOIN") X(kInner, "INNER") X(kOn, "ON") X(kUnion, "UNION")    \
  X(kAll, "ALL") X(kOrder, "ORDER") X(kBy, "BY") X(kGroup, "GROUP")      \
  X(kHaving, "HAVING") X(kLimit, "LIMIT") X(kWith, "WITH")               \
  X(kRecursive, "RECURSIVE") X(kExists, "EXISTS") X(kIn, "IN")           \
  X(kBetween, "BETWEEN") X(kLike, "LIKE") X(kIs, "IS") X(kNull, "NULL")  \
  X(kTrue, "TRUE") X(kFalse, "FALSE") X(kCast, "CAST")                   \
  X(kCreate, "CREATE") X(kTable, "TABLE") X(kDrop, "DROP") X(kIf, "IF")  \
  X(kInsert, "INSERT") X(kInto, "INTO") X(kValues, "VALUES")             \
  X(kUpdate, "UPDATE") X(kSet, "SET") X(kDelete, "DELETE")               \
  X(kCall, "CALL") X(kDistinct, "DISTINCT") X(kAsc, "ASC")               \
  X(kDesc, "DESC") X(kCase, "CASE") X(kWhen, "WHEN") X(kThen, "THEN")    \
  X(kElse, "ELSE") X(kEnd, "END") X(kExplain, "EXPLAIN")                 \
  X(kView, "VIEW") X(kReplace, "REPLACE")

enum class Keyword : uint8_t {
  kNone = 0,  // not a keyword
#define PDM_SQL_KEYWORD_ID(id, spelling) id,
  PDM_SQL_KEYWORDS(PDM_SQL_KEYWORD_ID)
#undef PDM_SQL_KEYWORD_ID
};

/// Canonical upper-case spelling of `kw` ("" for kNone).
std::string_view KeywordText(Keyword kw);

/// The keyword spelled `word` in any letter case, or kNone.
Keyword LookupKeyword(std::string_view word);

/// LookupKeyword for a caller that has already packed `word`'s first
/// eight bytes with bit 0x20 cleared (0x20 upper-cases a letter and
/// maps no other byte onto one), little-endian and zero-padded — the
/// lexer does so with one load.
Keyword LookupPackedKeyword(uint64_t packed, std::string_view word);

/// True if `word` (any case) is a reserved keyword of the dialect.
inline bool IsReservedKeyword(std::string_view word) {
  return LookupKeyword(word) != Keyword::kNone;
}

/// One lexical token. Trivially copyable: `text` views the statement
/// text the token was lexed from (sql/lexer.h), so tokens are valid only
/// while that text is alive.
///
///  * kIdentifier: the name as written, without the quotes of a quoted
///    identifier;
///  * kKeyword: the keyword's canonical upper-case spelling (a static
///    string, not the source spelling);
///  * literals: the source spelling, except that a string literal's
///    text is its body between the quotes, `''` escapes still doubled
///    (StringValue() unescapes);
///  * punctuation: the source characters (`!=` stays `!=`).
struct Token {
  TokenKind kind = TokenKind::kEnd;
  Keyword keyword = Keyword::kNone;  // kNone unless kKeyword
  bool has_escaped_quote = false;    // kStringLiteral text contains ''
  int line = 1;                      // 1-based source position, for
  int column = 1;                    // error messages
  std::string_view text;
  int64_t int_value = 0;    // valid for kIntegerLiteral
  double double_value = 0;  // valid for kDoubleLiteral

  bool IsKeyword(Keyword kw) const { return keyword == kw; }

  /// A string literal's value: its text with `''` unescaped. Copies the
  /// text; only a literal with an escaped quote needs more than that.
  std::string StringValue() const;

  /// Display form used in parser diagnostics.
  std::string Describe() const;
};

static_assert(std::is_trivially_copyable_v<Token>);

}  // namespace pdm::sql

#endif  // PDM_SQL_TOKEN_H_
