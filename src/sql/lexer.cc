#include "sql/lexer.h"

#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/string_util.h"

namespace pdm::sql {

namespace {

enum CharClass : uint8_t {
  kIdentStart = 1,  // may begin an identifier
  kIdentChar = 2,   // may continue one
  kDigit = 4,
};

constexpr std::array<uint8_t, 256> kCharClasses = [] {
  std::array<uint8_t, 256> classes{};
  for (int c = 'a'; c <= 'z'; ++c) classes[c] = kIdentStart | kIdentChar;
  for (int c = 'A'; c <= 'Z'; ++c) classes[c] = kIdentStart | kIdentChar;
  for (int c = '0'; c <= '9'; ++c) classes[c] = kIdentChar | kDigit;
  classes['_'] = kIdentStart | kIdentChar;
  // '$' admits the rule layer's $user placeholder qualifier, as the
  // first character only.
  classes['$'] = kIdentStart;
  return classes;
}();

bool Is(char c, CharClass cls) {
  return (kCharClasses[static_cast<unsigned char>(c)] & cls) != 0;
}

/// PackUpper for LookupPackedKeyword: one unaligned load when eight
/// bytes from the word's start are inside the text.
static_assert(std::endian::native == std::endian::little);
uint64_t PackUpper(std::string_view word, const char* end) {
  uint64_t packed = 0;
  if (end - word.data() >= 8) {
    std::memcpy(&packed, word.data(), 8);
    if (word.size() < 8) packed &= (uint64_t{1} << (8 * word.size())) - 1;
  } else {
    for (size_t i = 0; i < word.size(); ++i) {
      packed |= uint64_t{static_cast<unsigned char>(word[i])} << (8 * i);
    }
  }
  return packed & 0xDFDFDFDFDFDFDFDFULL;
}

double ParseDouble(std::string_view text) {
  char buf[64];
  if (text.size() < sizeof(buf)) {
    std::memcpy(buf, text.data(), text.size());
    buf[text.size()] = '\0';
    return std::strtod(buf, nullptr);
  }
  return std::strtod(std::string(text).c_str(), nullptr);
}

}  // namespace

bool Lexer::Fail(const char* at, const char* message) {
  error_ = Status::ParseError(
      StrFormat("%s at line %d, column %d", message, line_,
                static_cast<int>(at - line_start_) + 1));
  return false;
}

bool Lexer::Next(Token* token) {
  // Whitespace and comments.
  const char* p = pos_;
  while (p < end_) {
    const char c = *p;
    if (c == ' ' || c == '\t' || c == '\r') {
      ++p;
    } else if (c == '\n') {
      ++line_;
      line_start_ = ++p;
    } else if (c == '-' && At(p + 1) == '-') {
      p += 2;
      while (p < end_ && *p != '\n') ++p;
    } else if (c == '/' && At(p + 1) == '*') {
      p += 2;
      while (p < end_ && !(*p == '*' && At(p + 1) == '/')) NextChar(&p);
      p = p < end_ ? p + 2 : end_;
    } else {
      break;
    }
  }
  pos_ = p;

  Token& t = *token;
  t = Token();
  t.line = line_;
  t.column = static_cast<int>(p - line_start_) + 1;
  if (p == end_) return true;

  const char* const start = p;
  const char c = *p;
  if (Is(c, kIdentStart)) {
    // Identifiers and keywords.
    ++p;
    while (p < end_ && Is(*p, kIdentChar)) ++p;
    const std::string_view word(start, static_cast<size_t>(p - start));
    t.keyword = LookupPackedKeyword(PackUpper(word, end_), word);
    if (t.keyword != Keyword::kNone) {
      t.kind = TokenKind::kKeyword;
      t.text = KeywordText(t.keyword);
    } else {
      t.kind = TokenKind::kIdentifier;
      t.text = word;
    }
  } else if (c == '"') {
    // Quoted identifiers: "NAME" (used by the paper for result aliases).
    ++p;
    while (p < end_ && *p != '"') NextChar(&p);
    if (p == end_) return Fail(p, "unterminated quoted identifier");
    t.kind = TokenKind::kIdentifier;
    t.text = std::string_view(start + 1, static_cast<size_t>(p - start - 1));
    ++p;
  } else if (c == '\'') {
    // String literals: 'abc', with '' as escaped quote.
    ++p;
    while (true) {
      while (p < end_ && *p != '\'') NextChar(&p);
      if (p == end_) return Fail(p, "unterminated string literal");
      if (At(p + 1) != '\'') break;
      t.has_escaped_quote = true;
      p += 2;
    }
    t.kind = TokenKind::kStringLiteral;
    t.text = std::string_view(start + 1, static_cast<size_t>(p - start - 1));
    ++p;
  } else if (Is(c, kDigit) || (c == '.' && Is(At(p + 1), kDigit))) {
    // Numeric literals: 42, 4.2, .5, 5., 1e3, 1.5e-2.
    bool is_double = false;
    while (p < end_ && Is(*p, kDigit)) ++p;
    if (At(p) == '.' && Is(At(p + 1), kDigit)) {
      is_double = true;
      ++p;
      while (p < end_ && Is(*p, kDigit)) ++p;
    } else if (At(p) == '.' && !Is(At(p + 1), kIdentStart)) {
      is_double = true;  // trailing dot as in "5." — tolerate
      ++p;
    }
    if ((At(p) == 'e' || At(p) == 'E') &&
        (Is(At(p + 1), kDigit) ||
         ((At(p + 1) == '+' || At(p + 1) == '-') && Is(At(p + 2), kDigit)))) {
      is_double = true;
      p += 2;  // the 'e' and its sign or first digit
      while (p < end_ && Is(*p, kDigit)) ++p;
    }
    t.text = std::string_view(start, static_cast<size_t>(p - start));
    if (is_double) {
      t.kind = TokenKind::kDoubleLiteral;
      t.double_value = ParseDouble(t.text);
    } else {
      t.kind = TokenKind::kIntegerLiteral;
      constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
      int64_t value = 0;
      for (char digit : t.text) {
        const int d = digit - '0';
        if (value > (kMax - d) / 10) {
          return Fail(p, "integer literal out of range");
        }
        value = value * 10 + d;
      }
      t.int_value = value;
    }
  } else {
    // Operators / punctuation.
    ++p;
    switch (c) {
      case '(':
        t.kind = TokenKind::kLeftParen;
        break;
      case ')':
        t.kind = TokenKind::kRightParen;
        break;
      case ',':
        t.kind = TokenKind::kComma;
        break;
      case '.':
        t.kind = TokenKind::kDot;
        break;
      case ';':
        t.kind = TokenKind::kSemicolon;
        break;
      case '*':
        t.kind = TokenKind::kStar;
        break;
      case '+':
        t.kind = TokenKind::kPlus;
        break;
      case '-':
        t.kind = TokenKind::kMinus;
        break;
      case '/':
        t.kind = TokenKind::kSlash;
        break;
      case '%':
        t.kind = TokenKind::kPercent;
        break;
      case '=':
        t.kind = TokenKind::kEq;
        break;
      case '!':
        if (At(p) != '=') return Fail(p, "unexpected character '!'");
        ++p;
        t.kind = TokenKind::kNotEq;
        break;
      case '<':
        if (At(p) == '=') {
          ++p;
          t.kind = TokenKind::kLessEq;
        } else if (At(p) == '>') {
          ++p;
          t.kind = TokenKind::kNotEq;
        } else {
          t.kind = TokenKind::kLess;
        }
        break;
      case '>':
        if (At(p) == '=') {
          ++p;
          t.kind = TokenKind::kGreaterEq;
        } else {
          t.kind = TokenKind::kGreater;
        }
        break;
      case '|':
        if (At(p) != '|') return Fail(p, "unexpected character '|'");
        ++p;
        t.kind = TokenKind::kConcat;
        break;
      default:
        // Formatted in two steps, as a NUL byte cuts the message short.
        return Fail(p,
                    StrFormat("unexpected character '%c'", c).c_str());
    }
    t.text = std::string_view(start, static_cast<size_t>(p - start));
  }
  pos_ = p;
  return true;
}

Result<std::vector<Token>> TokenizeSql(std::string_view sql) {
  Lexer lexer(sql);
  std::vector<Token> tokens;
  Token token;
  do {
    if (!lexer.Next(&token)) return lexer.error();
    tokens.push_back(token);
  } while (token.kind != TokenKind::kEnd);
  return tokens;
}

}  // namespace pdm::sql
