// Unit tests for the SQL lexer.

#include <gtest/gtest.h>

#include "sql/lexer.h"

namespace pdm::sql {
namespace {

std::vector<Token> MustLex(std::string_view input) {
  Result<std::vector<Token>> tokens = TokenizeSql(input);
  EXPECT_TRUE(tokens.ok()) << tokens.status();
  return std::move(tokens).ValueOr({});
}

TEST(Lexer, EmptyInputYieldsEnd) {
  std::vector<Token> tokens = MustLex("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kEnd);
}

TEST(Lexer, KeywordsAreUppercasedAndCaseInsensitive) {
  std::vector<Token> tokens = MustLex("select Select SELECT sElEcT");
  ASSERT_EQ(tokens.size(), 5u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(tokens[i].kind, TokenKind::kKeyword);
    EXPECT_EQ(tokens[i].text, "SELECT");
  }
}

TEST(Lexer, NonReservedWordsAreIdentifiers) {
  // LEFT/RIGHT/TYPE/DEC are column names in the paper's schema and must
  // not be reserved.
  std::vector<Token> tokens = MustLex("left right type dec count sum");
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    EXPECT_EQ(tokens[i].kind, TokenKind::kIdentifier) << i;
  }
}

TEST(Lexer, IntegerLiterals) {
  std::vector<Token> tokens = MustLex("0 42 123456789012");
  EXPECT_EQ(tokens[0].int_value, 0);
  EXPECT_EQ(tokens[1].int_value, 42);
  EXPECT_EQ(tokens[2].int_value, 123456789012LL);
  EXPECT_EQ(tokens[2].kind, TokenKind::kIntegerLiteral);
}

TEST(Lexer, DoubleLiterals) {
  std::vector<Token> tokens = MustLex("4.2 .5 1e3 1.5e-2 2E+4");
  EXPECT_DOUBLE_EQ(tokens[0].double_value, 4.2);
  EXPECT_DOUBLE_EQ(tokens[1].double_value, 0.5);
  EXPECT_DOUBLE_EQ(tokens[2].double_value, 1000.0);
  EXPECT_DOUBLE_EQ(tokens[3].double_value, 0.015);
  EXPECT_DOUBLE_EQ(tokens[4].double_value, 20000.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(tokens[i].kind, TokenKind::kDoubleLiteral) << i;
  }
}

TEST(Lexer, StringLiteralsWithEscapedQuotes) {
  std::vector<Token> tokens = MustLex("'abc' '' 'it''s'");
  EXPECT_EQ(tokens[0].StringValue(), "abc");
  EXPECT_EQ(tokens[1].StringValue(), "");
  EXPECT_EQ(tokens[2].StringValue(), "it's");
}

TEST(Lexer, QuotedIdentifiers) {
  std::vector<Token> tokens = MustLex("\"DEC\" \"EFF_FROM\"");
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "DEC");
  EXPECT_EQ(tokens[1].text, "EFF_FROM");
}

TEST(Lexer, DollarIdentifiers) {
  // The rule layer's $user placeholder.
  std::vector<Token> tokens = MustLex("$user.strc_opt");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "$user");
  EXPECT_EQ(tokens[1].kind, TokenKind::kDot);
  EXPECT_EQ(tokens[2].text, "strc_opt");
}

TEST(Lexer, Operators) {
  std::vector<Token> tokens = MustLex("= <> != < <= > >= + - * / % || ( ) , . ;");
  TokenKind expected[] = {
      TokenKind::kEq,      TokenKind::kNotEq,     TokenKind::kNotEq,
      TokenKind::kLess,    TokenKind::kLessEq,    TokenKind::kGreater,
      TokenKind::kGreaterEq, TokenKind::kPlus,    TokenKind::kMinus,
      TokenKind::kStar,    TokenKind::kSlash,     TokenKind::kPercent,
      TokenKind::kConcat,  TokenKind::kLeftParen, TokenKind::kRightParen,
      TokenKind::kComma,   TokenKind::kDot,       TokenKind::kSemicolon,
  };
  ASSERT_GE(tokens.size(), std::size(expected));
  for (size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(tokens[i].kind, expected[i]) << i;
  }
}

TEST(Lexer, LineAndBlockComments) {
  std::vector<Token> tokens = MustLex(
      "SELECT -- this is a comment\n 1 /* block\ncomment */ + 2");
  ASSERT_EQ(tokens.size(), 5u);  // SELECT 1 + 2 END
  EXPECT_EQ(tokens[1].int_value, 1);
  EXPECT_EQ(tokens[2].kind, TokenKind::kPlus);
  EXPECT_EQ(tokens[3].int_value, 2);
}

TEST(Lexer, TracksLineAndColumn) {
  std::vector<Token> tokens = MustLex("SELECT\n  foo");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[0].column, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[1].column, 3);
}

TEST(Lexer, ErrorsOnUnterminatedString) {
  Result<std::vector<Token>> result = TokenizeSql("'never closed");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(Lexer, ErrorsOnUnterminatedQuotedIdentifier) {
  Result<std::vector<Token>> result = TokenizeSql("\"never closed");
  ASSERT_FALSE(result.ok());
}

TEST(Lexer, ErrorsOnStrayCharacters) {
  EXPECT_FALSE(TokenizeSql("SELECT #").ok());
  EXPECT_FALSE(TokenizeSql("a ! b").ok());
  EXPECT_FALSE(TokenizeSql("a | b").ok());
}

TEST(Lexer, KeywordPredicate) {
  EXPECT_TRUE(IsReservedKeyword("select"));
  EXPECT_TRUE(IsReservedKeyword("RECURSIVE"));
  EXPECT_TRUE(IsReservedKeyword("Between"));
  EXPECT_FALSE(IsReservedKeyword("left"));
  EXPECT_FALSE(IsReservedKeyword("count"));
  EXPECT_FALSE(IsReservedKeyword("rtbl"));
}

}  // namespace
}  // namespace pdm::sql
