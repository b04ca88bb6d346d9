#include "sql/token.h"

#include <array>

namespace pdm::sql {

std::string_view TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEnd:
      return "end of input";
    case TokenKind::kIdentifier:
      return "identifier";
    case TokenKind::kKeyword:
      return "keyword";
    case TokenKind::kIntegerLiteral:
      return "integer literal";
    case TokenKind::kDoubleLiteral:
      return "double literal";
    case TokenKind::kStringLiteral:
      return "string literal";
    case TokenKind::kLeftParen:
      return "'('";
    case TokenKind::kRightParen:
      return "')'";
    case TokenKind::kComma:
      return "','";
    case TokenKind::kDot:
      return "'.'";
    case TokenKind::kSemicolon:
      return "';'";
    case TokenKind::kStar:
      return "'*'";
    case TokenKind::kPlus:
      return "'+'";
    case TokenKind::kMinus:
      return "'-'";
    case TokenKind::kSlash:
      return "'/'";
    case TokenKind::kPercent:
      return "'%'";
    case TokenKind::kEq:
      return "'='";
    case TokenKind::kNotEq:
      return "'<>'";
    case TokenKind::kLess:
      return "'<'";
    case TokenKind::kLessEq:
      return "'<='";
    case TokenKind::kGreater:
      return "'>'";
    case TokenKind::kGreaterEq:
      return "'>='";
    case TokenKind::kConcat:
      return "'||'";
  }
  return "unknown token";
}

namespace {

constexpr std::string_view kKeywordSpellings[] = {
    "",
#define PDM_SQL_KEYWORD_SPELLING(id, spelling) spelling,
    PDM_SQL_KEYWORDS(PDM_SQL_KEYWORD_SPELLING)
#undef PDM_SQL_KEYWORD_SPELLING
};
constexpr size_t kNumKeywords = std::size(kKeywordSpellings);
constexpr size_t kMaxKeywordLength = 9;  // RECURSIVE

/// A word's first eight bytes with bit 0x20 cleared, little-endian.
/// Keywords are all letters, so a word packs like a keyword (and has
/// its tail, see LookupPackedKeyword) exactly when the two are equal
/// ignoring case.
constexpr uint64_t PackUpper(std::string_view word) {
  uint64_t packed = 0;
  for (size_t i = 0; i < word.size() && i < 8; ++i) {
    packed |= uint64_t{static_cast<unsigned char>(word[i] & 0xDF)} << (8 * i);
  }
  return packed;
}

constexpr size_t kSlots = 128;  // power of two, > 2x the keyword count

constexpr size_t SlotOf(uint64_t packed, size_t length) {
  return static_cast<size_t>(((packed + length) * 0x9E3779B97F4A7C15ULL) >>
                             57) &
         (kSlots - 1);
}

struct KeywordSlot {
  uint64_t packed = 0;
  uint8_t length = 0;
  Keyword keyword = Keyword::kNone;
};

/// Open-addressing table from PackUpper(spelling) to keyword id, built
/// at compile time.
constexpr std::array<KeywordSlot, kSlots> kKeywordTable = [] {
  std::array<KeywordSlot, kSlots> table{};
  for (size_t k = 1; k < kNumKeywords; ++k) {
    const std::string_view spelling = kKeywordSpellings[k];
    const uint64_t packed = PackUpper(spelling);
    size_t slot = SlotOf(packed, spelling.size());
    while (table[slot].keyword != Keyword::kNone) {
      slot = (slot + 1) & (kSlots - 1);
    }
    table[slot] = {packed, static_cast<uint8_t>(spelling.size()),
                   static_cast<Keyword>(k)};
  }
  return table;
}();

}  // namespace

std::string_view KeywordText(Keyword kw) {
  return kKeywordSpellings[static_cast<size_t>(kw)];
}

Keyword LookupKeyword(std::string_view word) {
  return LookupPackedKeyword(PackUpper(word), word);
}

Keyword LookupPackedKeyword(uint64_t packed, std::string_view word) {
  if (word.empty() || word.size() > kMaxKeywordLength) return Keyword::kNone;
  for (size_t slot = SlotOf(packed, word.size());;
       slot = (slot + 1) & (kSlots - 1)) {
    const KeywordSlot& entry = kKeywordTable[slot];
    if (entry.keyword == Keyword::kNone) return Keyword::kNone;
    if (entry.packed != packed || entry.length != word.size()) continue;
    const std::string_view spelling = KeywordText(entry.keyword);
    for (size_t i = 8; i < word.size(); ++i) {
      if ((word[i] & 0xDF) != spelling[i]) return Keyword::kNone;
    }
    return entry.keyword;
  }
}

std::string Token::StringValue() const {
  if (!has_escaped_quote) return std::string(text);
  std::string value;
  value.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    value += text[i];
    if (text[i] == '\'') ++i;  // the second quote of a '' pair
  }
  return value;
}

std::string Token::Describe() const {
  switch (kind) {
    case TokenKind::kIdentifier:
      return "identifier '" + std::string(text) + "'";
    case TokenKind::kKeyword:
      return "keyword " + std::string(text);
    case TokenKind::kIntegerLiteral:
    case TokenKind::kDoubleLiteral:
      return "literal '" + std::string(text) + "'";
    case TokenKind::kStringLiteral:
      return "literal '" + StringValue() + "'";
    default:
      return std::string(TokenKindName(kind));
  }
}

}  // namespace pdm::sql
