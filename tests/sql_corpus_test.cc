// The SQL text path (lexer, fingerprint, parser) against a fixed corpus:
//  * FingerprintCorpus: keys, parameters, flags, diagnostics and parse
//    outcomes equal the reference values in sql_corpus_data.h;
//  * MutationSweep: every truncation of every corpus statement, plus
//    seeded byte flips and token splices, yields a Status or a
//    statement, never a crash or a token that views outside its text.
//
// The sweep's seed is a test-binary argument, `--mutation_seed=N`
// (default 1). Under ASan+UBSan, sweep several seeds with
//   sql_corpus_test --gtest_filter='MutationSweep.*' --mutation_seed=N

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "sql/fingerprint.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql_corpus_data.h"

namespace pdm::sql {
namespace {

using testdata::CorpusEntry;
using testdata::kSqlCorpus;

uint64_t g_mutation_seed = 1;

/// Same rendering as the reference values' `params`.
std::string RenderParams(const std::vector<Value>& params) {
  std::string out;
  for (const Value& v : params) {
    char buf[64];
    switch (v.kind()) {
      case ValueKind::kInt64:
        std::snprintf(buf, sizeof(buf), "i:%lld",
                      static_cast<long long>(v.int64_value()));
        out += buf;
        break;
      case ValueKind::kDouble:
        std::snprintf(buf, sizeof(buf), "d:%.17g", v.double_value());
        out += buf;
        break;
      case ValueKind::kString:
        out += "s:" + v.string_value();
        break;
      default:
        out += "?";
        break;
    }
    out += '\x1f';
  }
  return out;
}

TEST(FingerprintCorpus, MatchesReferenceFingerprints) {
  for (const CorpusEntry& entry : kSqlCorpus) {
    SCOPED_TRACE(std::string(entry.sql.substr(0, 200)));
    Result<StatementFingerprint> fp = FingerprintSql(entry.sql);
    if (!entry.error.empty()) {
      ASSERT_FALSE(fp.ok());
      EXPECT_EQ(fp.status().ToString(), entry.error);
      continue;
    }
    ASSERT_TRUE(fp.ok()) << fp.status();
    EXPECT_EQ(fp->cacheable, entry.cacheable);
    EXPECT_EQ(fp->dml, entry.dml);
    EXPECT_EQ(fp->key, entry.key);
    EXPECT_EQ(RenderParams(fp->params), entry.params);
  }
}

TEST(FingerprintCorpus, ParsesLikeReference) {
  for (const CorpusEntry& entry : kSqlCorpus) {
    SCOPED_TRACE(std::string(entry.sql.substr(0, 200)));
    Result<StatementPtr> stmt = ParseSql(entry.sql);
    const std::string outcome = stmt.ok()
                                    ? "ok: " + (*stmt)->ToSql()
                                    : "error: " + stmt.status().ToString();
    EXPECT_EQ(outcome, entry.parse);
  }
}

TEST(FingerprintCorpus, TokensViewTheirText) {
  for (const CorpusEntry& entry : kSqlCorpus) {
    if (!entry.error.empty()) continue;
    SCOPED_TRACE(std::string(entry.sql.substr(0, 200)));
    const std::string sql(entry.sql);  // a buffer of the test's own
    Result<StatementFingerprint> fp = FingerprintSql(sql);
    ASSERT_TRUE(fp.ok());
    for (const Token& t : fp->tokens) {
      if (t.kind == TokenKind::kKeyword) {
        EXPECT_EQ(t.text, KeywordText(t.keyword));
      } else if (t.kind != TokenKind::kEnd) {
        EXPECT_GE(t.text.data(), sql.data());
        EXPECT_LE(t.text.data() + t.text.size(), sql.data() + sql.size());
      }
    }
  }
}

// --- Mutation sweep ---------------------------------------------------------

/// Byte offset of each token's first character, from its line/column.
std::vector<size_t> TokenOffsets(std::string_view sql) {
  std::vector<size_t> line_starts = {0};
  for (size_t i = 0; i < sql.size(); ++i) {
    if (sql[i] == '\n') line_starts.push_back(i + 1);
  }
  std::vector<size_t> offsets;
  Result<std::vector<Token>> tokens = TokenizeSql(sql);
  if (!tokens.ok()) return offsets;
  for (const Token& t : *tokens) {
    offsets.push_back(line_starts[t.line - 1] + t.column - 1);
  }
  return offsets;  // ends with the kEnd offset, sql.size()
}

/// Runs one mutant through the text path; returns "" when it yields a
/// Status or a statement with well-formed tokens, else what went wrong.
std::string CheckMutant(const std::string& sql) {
  Result<StatementFingerprint> fp = FingerprintSql(sql);
  if (!fp.ok()) {
    return fp.status().code() == StatusCode::kParseError
               ? ""
               : "fingerprint failed with " + fp.status().ToString();
  }
  if (fp->tokens.empty() || fp->tokens.back().kind != TokenKind::kEnd) {
    return "token stream does not end with kEnd";
  }
  if (fp->cacheable == fp->key.empty()) return "key and cacheable disagree";
  for (const Token& t : fp->tokens) {
    if (t.kind == TokenKind::kKeyword || t.kind == TokenKind::kEnd) continue;
    if (t.text.data() < sql.data() ||
        t.text.data() + t.text.size() > sql.data() + sql.size()) {
      return "token views outside the text";
    }
  }
  Parser parser(fp->tokens);
  Result<StatementPtr> stmt = parser.ParseStatement();
  if (stmt.ok() && *stmt == nullptr) return "parse returned a null statement";
  return "";
}

/// A byte a flip writes: mostly ones the lexer treats specially.
char FlipByte(Rng& rng) {
  static constexpr char kInteresting[] = "'\"()-/*.,;eE0179 \n\t$!|<>=_%+";
  if (rng.NextBelow(4) == 0) return static_cast<char>(rng.NextBelow(256));
  return kInteresting[rng.NextBelow(sizeof(kInteresting) - 1)];
}

TEST(MutationSweep, EveryMutantYieldsStatusOrStatement) {
  Rng rng = Rng::ForStream(g_mutation_seed, /*stream=*/0);
  std::vector<std::string> corpus;
  std::vector<std::vector<size_t>> offsets;
  for (const CorpusEntry& entry : kSqlCorpus) {
    corpus.emplace_back(entry.sql);
    offsets.push_back(TokenOffsets(entry.sql));
  }
  constexpr int kFlipsPerStatement = 48;
  constexpr int kSplicesPerStatement = 48;

  size_t mutants = 0;
  size_t failures = 0;
  auto check = [&](const std::string& mutant) {
    ++mutants;
    const std::string problem = CheckMutant(mutant);
    if (!problem.empty() && failures++ == 0) {
      ADD_FAILURE() << problem << " for mutant of " << mutant.size()
                    << " bytes (seed " << g_mutation_seed << "): " << mutant;
    }
  };

  for (size_t s = 0; s < corpus.size(); ++s) {
    const std::string& sql = corpus[s];
    // Every truncation.
    for (size_t n = 0; n < sql.size(); ++n) check(sql.substr(0, n));
    // Byte flips: one to four bytes overwritten.
    for (int m = 0; m < kFlipsPerStatement && !sql.empty(); ++m) {
      std::string mutant = sql;
      const uint64_t flips = 1 + rng.NextBelow(4);
      for (uint64_t f = 0; f < flips; ++f) {
        mutant[rng.NextBelow(mutant.size())] = FlipByte(rng);
      }
      check(mutant);
    }
    // Token splices: a run of this statement's tokens replaced by a run
    // of another corpus statement's (possibly empty) tokens.
    if (offsets[s].empty()) continue;
    for (int m = 0; m < kSplicesPerStatement; ++m) {
      const std::vector<size_t>& here = offsets[s];
      const size_t d = rng.NextBelow(corpus.size());
      const std::vector<size_t>& there = offsets[d];
      if (there.empty()) continue;
      const size_t cut = rng.NextBelow(here.size());
      const size_t resume =
          std::min(here.size() - 1, cut + rng.NextBelow(4));
      const size_t from = rng.NextBelow(there.size());
      const size_t to = std::min(there.size() - 1, from + rng.NextBelow(6));
      check(sql.substr(0, here[cut]) + " " +
            corpus[d].substr(there[from], there[to] - there[from]) + " " +
            sql.substr(here[resume]));
    }
  }
  EXPECT_EQ(failures, 0u) << "of " << mutants << " mutants";
  EXPECT_GT(mutants, 10000u);
}

}  // namespace
}  // namespace pdm::sql

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    constexpr std::string_view kSeedFlag = "--mutation_seed=";
    uint64_t seed = 0;
    const char* const end = arg.data() + arg.size();
    if (arg.substr(0, kSeedFlag.size()) != kSeedFlag ||
        std::from_chars(arg.data() + kSeedFlag.size(), end, seed).ptr !=
            end) {
      std::fprintf(stderr, "usage: %s [gtest flags] [--mutation_seed=N]\n",
                   argv[0]);
      return 2;
    }
    pdm::sql::g_mutation_seed = seed;
  }
  return RUN_ALL_TESTS();
}
