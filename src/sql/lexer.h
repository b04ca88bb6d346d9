#ifndef PDM_SQL_LEXER_H_
#define PDM_SQL_LEXER_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "sql/token.h"

namespace pdm::sql {

/// Single-pass, zero-copy SQL lexer over a borrowed text. Supports `--`
/// line comments, `/* */` block comments, single-quoted strings with
/// `''` escapes, and double-quoted identifiers. Every token views the
/// input (sql/token.h), which must outlive the tokens.
class Lexer {
 public:
  explicit Lexer(std::string_view input)
      : pos_(input.data()),
        end_(input.data() + input.size()),
        line_start_(input.data()) {}

  /// Scans the next token into `*token`: kEnd at the end of the input,
  /// and again on every later call. Returns false on a lexical error,
  /// which error() then describes (a ParseError with its line and
  /// column).
  bool Next(Token* token);

  const Status& error() const { return error_; }

 private:
  char At(const char* p) const { return p < end_ ? *p : '\0'; }
  /// Steps over the character at `*p` (before end_), keeping the line
  /// count.
  void NextChar(const char** p) {
    if (**p == '\n') {
      ++line_;
      line_start_ = *p + 1;
    }
    ++*p;
  }
  /// Records a ParseError at `at` (on the current line) and returns
  /// false.
  bool Fail(const char* at, const char* message);

  const char* pos_;
  const char* end_;
  const char* line_start_;  // first byte of the current line
  int line_ = 1;
  Status error_;
};

/// Convenience: tokenize a full statement string. The final token is
/// always kEnd; the tokens view `sql`.
Result<std::vector<Token>> TokenizeSql(std::string_view sql);

}  // namespace pdm::sql

#endif  // PDM_SQL_LEXER_H_
