// Reference fingerprints and parse outcomes of the SQL corpus that
// tests/sql_corpus_test.cc checks the text path against.
//
// The expected values were produced by FingerprintSql and ParseSql of
// commit 3a548f4, the last one with the string-owning multi-pass lexer,
// so they pin the single-pass lexer to that lexer's behaviour byte for
// byte. Never regenerate them from the current code. The corpus is:
//  * one statement per distinct statement shape that the wallbench
//    workloads (navigate, engine-scan, contended) and the examples
//    issue, rule-condition expressions included;
//  * lexer edge cases: letter case, comments, '' escapes, numeric
//    forms, operators, $user, keyword-like quoted identifiers,
//    structural literals, deep nesting, and lexical and parse errors.

#ifndef PDM_TESTS_SQL_CORPUS_DATA_H_
#define PDM_TESTS_SQL_CORPUS_DATA_H_

#include <string_view>

namespace pdm::sql::testdata {

using std::string_view_literals::operator""sv;

struct CorpusEntry {
  std::string_view sql;
  /// FingerprintSql's status (Status::ToString()); empty when it succeeds.
  std::string_view error;
  bool cacheable;
  bool dml;
  std::string_view key;
  /// The parameters, each "<i|d|s>:<value>" (doubles as %.17g) and
  /// terminated by '\037'.
  std::string_view params;
  /// ParseSql(sql): "ok: " + the statement's ToSql(), or "error: " +
  /// its Status::ToString().
  std::string_view parse;
};

// clang-format off
inline constexpr CorpusEntry kSqlCorpus[] = {
    {"\012    CREATE TABLE IF NOT EXISTS assy (\012      type VARCHAR, obi"
     "d INTEGER, name VARCHAR, dec VARCHAR,\012      make_or_buy VARCHAR, "
     "weight DOUBLE, acc VARCHAR,\012      checkedout BOOLEAN, frozen BOOL"
     "EAN);\012    CREATE TABLE IF NOT EXISTS comp (\012      type VARCHAR"
     ", obid INTEGER, name VARCHAR, material VARCHAR,\012      weight DOUB"
     "LE, acc VARCHAR, checkedout BOOLEAN);\012    CREATE TABLE IF NOT EXI"
     "STS link (\012      type VARCHAR, obid INTEGER, left INTEGER, right "
     "INTEGER,\012      eff_from INTEGER, eff_to INTEGER, strc_opt INTEGER"
     ", hier VARCHAR);\012    CREATE TABLE IF NOT EXISTS spec (\012      t"
     "ype VARCHAR, obid INTEGER, title VARCHAR, doc_size INTEGER);\012    "
     "CREATE TABLE IF NOT EXISTS specified_by (left INTEGER, right INTEGER"
     ");\012    CREATE TABLE IF NOT EXISTS users (\012      name VARCHAR, "
     "strc_opt INTEGER, eff_from INTEGER, eff_to INTEGER);\012  "sv,
     ""sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: unexpected trailing input: keyword CREATE (line 6"
     ", column 5)"sv},
    {"acc = '+'"sv,
     ""sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: expected a statement, found identifier 'acc' (lin"
     "e 1, column 1)"sv},
    {"eff_from <= $user.eff_to AND eff_to >= $user.eff_from AND BITAND(str"
     "c_opt, $user.strc_opt) <> 0"sv,
     ""sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: expected a statement, found identifier 'eff_from'"
     " (line 1, column 1)"sv},
    {"checkedout = FALSE"sv,
     ""sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: expected a statement, found identifier 'checkedou"
     "t' (line 1, column 1)"sv},
    {"SELECT assy.type AS \"type\", assy.obid AS \"obid\", assy.name AS \""
     "name\", assy.dec AS \"dec\", assy.make_or_buy AS \"make_or_buy\", ''"
     " AS \"material\", assy.weight AS \"weight\", assy.acc AS \"acc\", as"
     "sy.checkedout AS \"checkedout\", assy.frozen AS \"frozen\", link.lef"
     "t AS \"LEFT\", link.right AS \"RIGHT\", link.eff_from AS \"EFF_FROM\""
     ", link.eff_to AS \"EFF_TO\", link.strc_opt AS \"STRC_OPT\", link.hie"
     "r AS \"HIER\" FROM link JOIN assy ON link.right = assy.obid WHERE (("
     "(link.left = 1) AND (link.hier = 'phys')) AND (assy.acc = '+')) AND "
     "(((link.eff_from <= 60) AND (link.eff_to >= 40)) AND (BITAND(link.st"
     "rc_opt, 1) <> 0)) UNION ALL SELECT comp.type AS \"type\", comp.obid "
     "AS \"obid\", comp.name AS \"name\", '' AS \"dec\", '' AS \"make_or_b"
     "uy\", comp.material AS \"material\", comp.weight AS \"weight\", comp"
     ".acc AS \"acc\", comp.checkedout AS \"checkedout\", CAST(NULL AS BOO"
     "LEAN) AS \"frozen\", link.left AS \"LEFT\", link.right AS \"RIGHT\","
     " link.eff_from AS \"EFF_FROM\", link.eff_to AS \"EFF_TO\", link.strc"
     "_opt AS \"STRC_OPT\", link.hier AS \"HIER\" FROM link JOIN comp ON l"
     "ink.right = comp.obid WHERE (((link.left = 1) AND (link.hier = 'phys"
     "')) AND (comp.acc = '+')) AND (((link.eff_from <= 60) AND (link.eff_"
     "to >= 40)) AND (BITAND(link.strc_opt, 1) <> 0))"sv,
     ""sv,
     true, false,
     "SELECT \"assy\" . \"type\" AS \"type\" , \"assy\" . \"obid\" AS \"ob"
     "id\" , \"assy\" . \"name\" AS \"name\" , \"assy\" . \"dec\" AS \"dec"
     "\" , \"assy\" . \"make_or_buy\" AS \"make_or_buy\" , \?s AS \"materi"
     "al\" , \"assy\" . \"weight\" AS \"weight\" , \"assy\" . \"acc\" AS \""
     "acc\" , \"assy\" . \"checkedout\" AS \"checkedout\" , \"assy\" . \"f"
     "rozen\" AS \"frozen\" , \"link\" . \"left\" AS \"LEFT\" , \"link\" ."
     " \"right\" AS \"RIGHT\" , \"link\" . \"eff_from\" AS \"EFF_FROM\" , "
     "\"link\" . \"eff_to\" AS \"EFF_TO\" , \"link\" . \"strc_opt\" AS \"S"
     "TRC_OPT\" , \"link\" . \"hier\" AS \"HIER\" FROM \"link\" JOIN \"ass"
     "y\" ON \"link\" . \"right\" = \"assy\" . \"obid\" WHERE ( ( ( \"link"
     "\" . \"left\" = \?i ) AND ( \"link\" . \"hier\" = \?s ) ) AND ( \"as"
     "sy\" . \"acc\" = \?s ) ) AND ( ( ( \"link\" . \"eff_from\" <= \?i ) "
     "AND ( \"link\" . \"eff_to\" >= \?i ) ) AND ( \"BITAND\" ( \"link\" ."
     " \"strc_opt\" , \?i ) <> \?i ) ) UNION ALL SELECT \"comp\" . \"type\""
     " AS \"type\" , \"comp\" . \"obid\" AS \"obid\" , \"comp\" . \"name\""
     " AS \"name\" , \?s AS \"dec\" , \?s AS \"make_or_buy\" , \"comp\" . "
     "\"material\" AS \"material\" , \"comp\" . \"weight\" AS \"weight\" ,"
     " \"comp\" . \"acc\" AS \"acc\" , \"comp\" . \"checkedout\" AS \"chec"
     "kedout\" , CAST ( NULL AS \"BOOLEAN\" ) AS \"frozen\" , \"link\" . \""
     "left\" AS \"LEFT\" , \"link\" . \"right\" AS \"RIGHT\" , \"link\" . "
     "\"eff_from\" AS \"EFF_FROM\" , \"link\" . \"eff_to\" AS \"EFF_TO\" ,"
     " \"link\" . \"strc_opt\" AS \"STRC_OPT\" , \"link\" . \"hier\" AS \""
     "HIER\" FROM \"link\" JOIN \"comp\" ON \"link\" . \"right\" = \"comp\""
     " . \"obid\" WHERE ( ( ( \"link\" . \"left\" = \?i ) AND ( \"link\" ."
     " \"hier\" = \?s ) ) AND ( \"comp\" . \"acc\" = \?s ) ) AND ( ( ( \"l"
     "ink\" . \"eff_from\" <= \?i ) AND ( \"link\" . \"eff_to\" >= \?i ) )"
     " AND ( \"BITAND\" ( \"link\" . \"strc_opt\" , \?i ) <> \?i ) )"sv,
     "s:\037i:1\037s:phys\037s:+\037i:60\037i:40\037i:1\037i:0\037s:\037s:"
     "\037i:1\037s:phys\037s:+\037i:60\037i:40\037i:1\037i:0\037"sv,
     "ok: SELECT assy.type AS \"type\", assy.obid AS \"obid\", assy.name A"
     "S \"name\", assy.dec AS \"dec\", assy.make_or_buy AS \"make_or_buy\""
     ", '' AS \"material\", assy.weight AS \"weight\", assy.acc AS \"acc\""
     ", assy.checkedout AS \"checkedout\", assy.frozen AS \"frozen\", link"
     ".left AS \"LEFT\", link.right AS \"RIGHT\", link.eff_from AS \"EFF_F"
     "ROM\", link.eff_to AS \"EFF_TO\", link.strc_opt AS \"STRC_OPT\", lin"
     "k.hier AS \"HIER\" FROM link JOIN assy ON link.right = assy.obid WHE"
     "RE (((link.left = 1) AND (link.hier = 'phys')) AND (assy.acc = '+'))"
     " AND (((link.eff_from <= 60) AND (link.eff_to >= 40)) AND (BITAND(li"
     "nk.strc_opt, 1) <> 0)) UNION ALL SELECT comp.type AS \"type\", comp."
     "obid AS \"obid\", comp.name AS \"name\", '' AS \"dec\", '' AS \"make"
     "_or_buy\", comp.material AS \"material\", comp.weight AS \"weight\","
     " comp.acc AS \"acc\", comp.checkedout AS \"checkedout\", CAST(NULL A"
     "S BOOLEAN) AS \"frozen\", link.left AS \"LEFT\", link.right AS \"RIG"
     "HT\", link.eff_from AS \"EFF_FROM\", link.eff_to AS \"EFF_TO\", link"
     ".strc_opt AS \"STRC_OPT\", link.hier AS \"HIER\" FROM link JOIN comp"
     " ON link.right = comp.obid WHERE (((link.left = 1) AND (link.hier = "
     "'phys')) AND (comp.acc = '+')) AND (((link.eff_from <= 60) AND (link"
     ".eff_to >= 40)) AND (BITAND(link.strc_opt, 1) <> 0))"sv},
    {"WITH RECURSIVE rtbl (type, obid, name, dec, make_or_buy, material, w"
     "eight, acc, checkedout, frozen, lvl) AS (SELECT assy.type AS \"type\""
     ", assy.obid AS \"obid\", assy.name AS \"name\", assy.dec AS \"dec\","
     " assy.make_or_buy AS \"make_or_buy\", '' AS \"material\", assy.weigh"
     "t AS \"weight\", assy.acc AS \"acc\", assy.checkedout AS \"checkedou"
     "t\", assy.frozen AS \"frozen\", 0 AS \"lvl\" FROM assy WHERE (assy.o"
     "bid = 1) AND (assy.acc = '+') UNION SELECT assy.type AS \"type\", as"
     "sy.obid AS \"obid\", assy.name AS \"name\", assy.dec AS \"dec\", ass"
     "y.make_or_buy AS \"make_or_buy\", '' AS \"material\", assy.weight AS"
     " \"weight\", assy.acc AS \"acc\", assy.checkedout AS \"checkedout\","
     " assy.frozen AS \"frozen\", rtbl.lvl + 1 AS \"lvl\" FROM rtbl JOIN l"
     "ink ON rtbl.obid = link.left JOIN assy ON link.right = assy.obid WHE"
     "RE ((link.hier = 'phys') AND (assy.acc = '+')) AND (((link.eff_from "
     "<= 60) AND (link.eff_to >= 40)) AND (BITAND(link.strc_opt, 1) <> 0))"
     " UNION SELECT comp.type AS \"type\", comp.obid AS \"obid\", comp.nam"
     "e AS \"name\", '' AS \"dec\", '' AS \"make_or_buy\", comp.material A"
     "S \"material\", comp.weight AS \"weight\", comp.acc AS \"acc\", comp"
     ".checkedout AS \"checkedout\", CAST(NULL AS BOOLEAN) AS \"frozen\", "
     "rtbl.lvl + 1 AS \"lvl\" FROM rtbl JOIN link ON rtbl.obid = link.left"
     " JOIN comp ON link.right = comp.obid WHERE ((link.hier = 'phys') AND"
     " (comp.acc = '+')) AND (((link.eff_from <= 60) AND (link.eff_to >= 4"
     "0)) AND (BITAND(link.strc_opt, 1) <> 0))) SELECT type AS \"type\", o"
     "bid AS \"obid\", name AS \"name\", dec AS \"dec\", make_or_buy AS \""
     "make_or_buy\", material AS \"material\", weight AS \"weight\", acc A"
     "S \"acc\", checkedout AS \"checkedout\", frozen AS \"frozen\", CAST("
     "NULL AS INTEGER) AS \"LEFT\", CAST(NULL AS INTEGER) AS \"RIGHT\", CA"
     "ST(NULL AS INTEGER) AS \"EFF_FROM\", CAST(NULL AS INTEGER) AS \"EFF_"
     "TO\", CAST(NULL AS INTEGER) AS \"STRC_OPT\", CAST(NULL AS INTEGER) A"
     "S \"HIER\" FROM rtbl UNION SELECT type AS \"type\", obid AS \"obid\""
     ", '' AS \"name\", '' AS \"dec\", '' AS \"make_or_buy\", '' AS \"mate"
     "rial\", CAST(NULL AS DOUBLE) AS \"weight\", '' AS \"acc\", CAST(NULL"
     " AS BOOLEAN) AS \"checkedout\", CAST(NULL AS BOOLEAN) AS \"frozen\","
     " left AS \"LEFT\", right AS \"RIGHT\", eff_from AS \"EFF_FROM\", eff"
     "_to AS \"EFF_TO\", strc_opt AS \"STRC_OPT\", hier AS \"HIER\" FROM l"
     "ink WHERE (((left IN (SELECT obid FROM rtbl)) AND (right IN (SELECT "
     "obid FROM rtbl))) AND (link.hier = 'phys')) AND (((link.eff_from <= "
     "60) AND (link.eff_to >= 40)) AND (BITAND(link.strc_opt, 1) <> 0)) OR"
     "DER BY 1, 2"sv,
     ""sv,
     true, false,
     "WITH RECURSIVE \"rtbl\" ( \"type\" , \"obid\" , \"name\" , \"dec\" ,"
     " \"make_or_buy\" , \"material\" , \"weight\" , \"acc\" , \"checkedou"
     "t\" , \"frozen\" , \"lvl\" ) AS ( SELECT \"assy\" . \"type\" AS \"ty"
     "pe\" , \"assy\" . \"obid\" AS \"obid\" , \"assy\" . \"name\" AS \"na"
     "me\" , \"assy\" . \"dec\" AS \"dec\" , \"assy\" . \"make_or_buy\" AS"
     " \"make_or_buy\" , \?s AS \"material\" , \"assy\" . \"weight\" AS \""
     "weight\" , \"assy\" . \"acc\" AS \"acc\" , \"assy\" . \"checkedout\""
     " AS \"checkedout\" , \"assy\" . \"frozen\" AS \"frozen\" , \?i AS \""
     "lvl\" FROM \"assy\" WHERE ( \"assy\" . \"obid\" = \?i ) AND ( \"assy"
     "\" . \"acc\" = \?s ) UNION SELECT \"assy\" . \"type\" AS \"type\" , "
     "\"assy\" . \"obid\" AS \"obid\" , \"assy\" . \"name\" AS \"name\" , "
     "\"assy\" . \"dec\" AS \"dec\" , \"assy\" . \"make_or_buy\" AS \"make"
     "_or_buy\" , \?s AS \"material\" , \"assy\" . \"weight\" AS \"weight\""
     " , \"assy\" . \"acc\" AS \"acc\" , \"assy\" . \"checkedout\" AS \"ch"
     "eckedout\" , \"assy\" . \"frozen\" AS \"frozen\" , \"rtbl\" . \"lvl\""
     " + \?i AS \"lvl\" FROM \"rtbl\" JOIN \"link\" ON \"rtbl\" . \"obid\""
     " = \"link\" . \"left\" JOIN \"assy\" ON \"link\" . \"right\" = \"ass"
     "y\" . \"obid\" WHERE ( ( \"link\" . \"hier\" = \?s ) AND ( \"assy\" "
     ". \"acc\" = \?s ) ) AND ( ( ( \"link\" . \"eff_from\" <= \?i ) AND ("
     " \"link\" . \"eff_to\" >= \?i ) ) AND ( \"BITAND\" ( \"link\" . \"st"
     "rc_opt\" , \?i ) <> \?i ) ) UNION SELECT \"comp\" . \"type\" AS \"ty"
     "pe\" , \"comp\" . \"obid\" AS \"obid\" , \"comp\" . \"name\" AS \"na"
     "me\" , \?s AS \"dec\" , \?s AS \"make_or_buy\" , \"comp\" . \"materi"
     "al\" AS \"material\" , \"comp\" . \"weight\" AS \"weight\" , \"comp\""
     " . \"acc\" AS \"acc\" , \"comp\" . \"checkedout\" AS \"checkedout\" "
     ", CAST ( NULL AS \"BOOLEAN\" ) AS \"frozen\" , \"rtbl\" . \"lvl\" + "
     "\?i AS \"lvl\" FROM \"rtbl\" JOIN \"link\" ON \"rtbl\" . \"obid\" = "
     "\"link\" . \"left\" JOIN \"comp\" ON \"link\" . \"right\" = \"comp\""
     " . \"obid\" WHERE ( ( \"link\" . \"hier\" = \?s ) AND ( \"comp\" . \""
     "acc\" = \?s ) ) AND ( ( ( \"link\" . \"eff_from\" <= \?i ) AND ( \"l"
     "ink\" . \"eff_to\" >= \?i ) ) AND ( \"BITAND\" ( \"link\" . \"strc_o"
     "pt\" , \?i ) <> \?i ) ) ) SELECT \"type\" AS \"type\" , \"obid\" AS "
     "\"obid\" , \"name\" AS \"name\" , \"dec\" AS \"dec\" , \"make_or_buy"
     "\" AS \"make_or_buy\" , \"material\" AS \"material\" , \"weight\" AS"
     " \"weight\" , \"acc\" AS \"acc\" , \"checkedout\" AS \"checkedout\" "
     ", \"frozen\" AS \"frozen\" , CAST ( NULL AS \"INTEGER\" ) AS \"LEFT\""
     " , CAST ( NULL AS \"INTEGER\" ) AS \"RIGHT\" , CAST ( NULL AS \"INTE"
     "GER\" ) AS \"EFF_FROM\" , CAST ( NULL AS \"INTEGER\" ) AS \"EFF_TO\""
     " , CAST ( NULL AS \"INTEGER\" ) AS \"STRC_OPT\" , CAST ( NULL AS \"I"
     "NTEGER\" ) AS \"HIER\" FROM \"rtbl\" UNION SELECT \"type\" AS \"type"
     "\" , \"obid\" AS \"obid\" , \?s AS \"name\" , \?s AS \"dec\" , \?s A"
     "S \"make_or_buy\" , \?s AS \"material\" , CAST ( NULL AS \"DOUBLE\" "
     ") AS \"weight\" , \?s AS \"acc\" , CAST ( NULL AS \"BOOLEAN\" ) AS \""
     "checkedout\" , CAST ( NULL AS \"BOOLEAN\" ) AS \"frozen\" , \"left\""
     " AS \"LEFT\" , \"right\" AS \"RIGHT\" , \"eff_from\" AS \"EFF_FROM\""
     " , \"eff_to\" AS \"EFF_TO\" , \"strc_opt\" AS \"STRC_OPT\" , \"hier\""
     " AS \"HIER\" FROM \"link\" WHERE ( ( ( \"left\" IN ( SELECT \"obid\""
     " FROM \"rtbl\" ) ) AND ( \"right\" IN ( SELECT \"obid\" FROM \"rtbl\""
     " ) ) ) AND ( \"link\" . \"hier\" = \?s ) ) AND ( ( ( \"link\" . \"ef"
     "f_from\" <= \?i ) AND ( \"link\" . \"eff_to\" >= \?i ) ) AND ( \"BIT"
     "AND\" ( \"link\" . \"strc_opt\" , \?i ) <> \?i ) ) ORDER BY 1 , 2"sv,
     "s:\037i:0\037i:1\037s:+\037s:\037i:1\037s:phys\037s:+\037i:60\037i:4"
     "0\037i:1\037i:0\037s:\037s:\037i:1\037s:phys\037s:+\037i:60\037i:40\037"
     "i:1\037i:0\037s:\037s:\037s:\037s:\037s:\037s:phys\037i:60\037i:40\037"
     "i:1\037i:0\037"sv,
     "ok: WITH RECURSIVE rtbl (type, obid, name, dec, make_or_buy, materia"
     "l, weight, acc, checkedout, frozen, lvl) AS (SELECT assy.type AS \"t"
     "ype\", assy.obid AS \"obid\", assy.name AS \"name\", assy.dec AS \"d"
     "ec\", assy.make_or_buy AS \"make_or_buy\", '' AS \"material\", assy."
     "weight AS \"weight\", assy.acc AS \"acc\", assy.checkedout AS \"chec"
     "kedout\", assy.frozen AS \"frozen\", 0 AS \"lvl\" FROM assy WHERE (a"
     "ssy.obid = 1) AND (assy.acc = '+') UNION SELECT assy.type AS \"type\""
     ", assy.obid AS \"obid\", assy.name AS \"name\", assy.dec AS \"dec\","
     " assy.make_or_buy AS \"make_or_buy\", '' AS \"material\", assy.weigh"
     "t AS \"weight\", assy.acc AS \"acc\", assy.checkedout AS \"checkedou"
     "t\", assy.frozen AS \"frozen\", rtbl.lvl + 1 AS \"lvl\" FROM rtbl JO"
     "IN link ON rtbl.obid = link.left JOIN assy ON link.right = assy.obid"
     " WHERE ((link.hier = 'phys') AND (assy.acc = '+')) AND (((link.eff_f"
     "rom <= 60) AND (link.eff_to >= 40)) AND (BITAND(link.strc_opt, 1) <>"
     " 0)) UNION SELECT comp.type AS \"type\", comp.obid AS \"obid\", comp"
     ".name AS \"name\", '' AS \"dec\", '' AS \"make_or_buy\", comp.materi"
     "al AS \"material\", comp.weight AS \"weight\", comp.acc AS \"acc\", "
     "comp.checkedout AS \"checkedout\", CAST(NULL AS BOOLEAN) AS \"frozen"
     "\", rtbl.lvl + 1 AS \"lvl\" FROM rtbl JOIN link ON rtbl.obid = link."
     "left JOIN comp ON link.right = comp.obid WHERE ((link.hier = 'phys')"
     " AND (comp.acc = '+')) AND (((link.eff_from <= 60) AND (link.eff_to "
     ">= 40)) AND (BITAND(link.strc_opt, 1) <> 0))) SELECT type AS \"type\""
     ", obid AS \"obid\", name AS \"name\", dec AS \"dec\", make_or_buy AS"
     " \"make_or_buy\", material AS \"material\", weight AS \"weight\", ac"
     "c AS \"acc\", checkedout AS \"checkedout\", frozen AS \"frozen\", CA"
     "ST(NULL AS INTEGER) AS \"LEFT\", CAST(NULL AS INTEGER) AS \"RIGHT\","
     " CAST(NULL AS INTEGER) AS \"EFF_FROM\", CAST(NULL AS INTEGER) AS \"E"
     "FF_TO\", CAST(NULL AS INTEGER) AS \"STRC_OPT\", CAST(NULL AS INTEGER"
     ") AS \"HIER\" FROM rtbl UNION SELECT type AS \"type\", obid AS \"obi"
     "d\", '' AS \"name\", '' AS \"dec\", '' AS \"make_or_buy\", '' AS \"m"
     "aterial\", CAST(NULL AS DOUBLE) AS \"weight\", '' AS \"acc\", CAST(N"
     "ULL AS BOOLEAN) AS \"checkedout\", CAST(NULL AS BOOLEAN) AS \"frozen"
     "\", left AS \"LEFT\", right AS \"RIGHT\", eff_from AS \"EFF_FROM\", "
     "eff_to AS \"EFF_TO\", strc_opt AS \"STRC_OPT\", hier AS \"HIER\" FRO"
     "M link WHERE (((left IN (SELECT obid FROM rtbl)) AND (right IN (SELE"
     "CT obid FROM rtbl))) AND (link.hier = 'phys')) AND (((link.eff_from "
     "<= 60) AND (link.eff_to >= 40)) AND (BITAND(link.strc_opt, 1) <> 0))"
     " ORDER BY 1, 2"sv},
    {"SELECT assy.type AS \"type\", assy.obid AS \"obid\", assy.name AS \""
     "name\", assy.dec AS \"dec\", assy.make_or_buy AS \"make_or_buy\", ''"
     " AS \"material\", assy.weight AS \"weight\", assy.acc AS \"acc\", as"
     "sy.checkedout AS \"checkedout\", assy.frozen AS \"frozen\" FROM assy"
     " WHERE assy.acc = '+' UNION ALL SELECT comp.type AS \"type\", comp.o"
     "bid AS \"obid\", comp.name AS \"name\", '' AS \"dec\", '' AS \"make_"
     "or_buy\", comp.material AS \"material\", comp.weight AS \"weight\", "
     "comp.acc AS \"acc\", comp.checkedout AS \"checkedout\", CAST(NULL AS"
     " BOOLEAN) AS \"frozen\" FROM comp WHERE comp.acc = '+'"sv,
     ""sv,
     true, false,
     "SELECT \"assy\" . \"type\" AS \"type\" , \"assy\" . \"obid\" AS \"ob"
     "id\" , \"assy\" . \"name\" AS \"name\" , \"assy\" . \"dec\" AS \"dec"
     "\" , \"assy\" . \"make_or_buy\" AS \"make_or_buy\" , \?s AS \"materi"
     "al\" , \"assy\" . \"weight\" AS \"weight\" , \"assy\" . \"acc\" AS \""
     "acc\" , \"assy\" . \"checkedout\" AS \"checkedout\" , \"assy\" . \"f"
     "rozen\" AS \"frozen\" FROM \"assy\" WHERE \"assy\" . \"acc\" = \?s U"
     "NION ALL SELECT \"comp\" . \"type\" AS \"type\" , \"comp\" . \"obid\""
     " AS \"obid\" , \"comp\" . \"name\" AS \"name\" , \?s AS \"dec\" , \?"
     "s AS \"make_or_buy\" , \"comp\" . \"material\" AS \"material\" , \"c"
     "omp\" . \"weight\" AS \"weight\" , \"comp\" . \"acc\" AS \"acc\" , \""
     "comp\" . \"checkedout\" AS \"checkedout\" , CAST ( NULL AS \"BOOLEAN"
     "\" ) AS \"frozen\" FROM \"comp\" WHERE \"comp\" . \"acc\" = \?s"sv,
     "s:\037s:+\037s:\037s:\037s:+\037"sv,
     "ok: SELECT assy.type AS \"type\", assy.obid AS \"obid\", assy.name A"
     "S \"name\", assy.dec AS \"dec\", assy.make_or_buy AS \"make_or_buy\""
     ", '' AS \"material\", assy.weight AS \"weight\", assy.acc AS \"acc\""
     ", assy.checkedout AS \"checkedout\", assy.frozen AS \"frozen\" FROM "
     "assy WHERE assy.acc = '+' UNION ALL SELECT comp.type AS \"type\", co"
     "mp.obid AS \"obid\", comp.name AS \"name\", '' AS \"dec\", '' AS \"m"
     "ake_or_buy\", comp.material AS \"material\", comp.weight AS \"weight"
     "\", comp.acc AS \"acc\", comp.checkedout AS \"checkedout\", CAST(NUL"
     "L AS BOOLEAN) AS \"frozen\" FROM comp WHERE comp.acc = '+'"sv},
    {"SELECT obid FROM assy WHERE checkedout = TRUE UNION ALL SELECT obid "
     "FROM comp WHERE checkedout = TRUE"sv,
     ""sv,
     true, false,
     "SELECT \"obid\" FROM \"assy\" WHERE \"checkedout\" = TRUE UNION ALL "
     "SELECT \"obid\" FROM \"comp\" WHERE \"checkedout\" = TRUE"sv,
     ""sv,
     "ok: SELECT obid FROM assy WHERE checkedout = TRUE UNION ALL SELECT o"
     "bid FROM comp WHERE checkedout = TRUE"sv},
    {"SELECT assy.type AS \"type\", assy.obid AS \"obid\", assy.name AS \""
     "name\", assy.dec AS \"dec\", assy.make_or_buy AS \"make_or_buy\", ''"
     " AS \"material\", assy.weight AS \"weight\", assy.acc AS \"acc\", as"
     "sy.checkedout AS \"checkedout\", assy.frozen AS \"frozen\" FROM assy"
     " UNION ALL SELECT comp.type AS \"type\", comp.obid AS \"obid\", comp"
     ".name AS \"name\", '' AS \"dec\", '' AS \"make_or_buy\", comp.materi"
     "al AS \"material\", comp.weight AS \"weight\", comp.acc AS \"acc\", "
     "comp.checkedout AS \"checkedout\", CAST(NULL AS BOOLEAN) AS \"frozen"
     "\" FROM comp"sv,
     ""sv,
     true, false,
     "SELECT \"assy\" . \"type\" AS \"type\" , \"assy\" . \"obid\" AS \"ob"
     "id\" , \"assy\" . \"name\" AS \"name\" , \"assy\" . \"dec\" AS \"dec"
     "\" , \"assy\" . \"make_or_buy\" AS \"make_or_buy\" , \?s AS \"materi"
     "al\" , \"assy\" . \"weight\" AS \"weight\" , \"assy\" . \"acc\" AS \""
     "acc\" , \"assy\" . \"checkedout\" AS \"checkedout\" , \"assy\" . \"f"
     "rozen\" AS \"frozen\" FROM \"assy\" UNION ALL SELECT \"comp\" . \"ty"
     "pe\" AS \"type\" , \"comp\" . \"obid\" AS \"obid\" , \"comp\" . \"na"
     "me\" AS \"name\" , \?s AS \"dec\" , \?s AS \"make_or_buy\" , \"comp\""
     " . \"material\" AS \"material\" , \"comp\" . \"weight\" AS \"weight\""
     " , \"comp\" . \"acc\" AS \"acc\" , \"comp\" . \"checkedout\" AS \"ch"
     "eckedout\" , CAST ( NULL AS \"BOOLEAN\" ) AS \"frozen\" FROM \"comp\""sv,
     "s:\037s:\037s:\037"sv,
     "ok: SELECT assy.type AS \"type\", assy.obid AS \"obid\", assy.name A"
     "S \"name\", assy.dec AS \"dec\", assy.make_or_buy AS \"make_or_buy\""
     ", '' AS \"material\", assy.weight AS \"weight\", assy.acc AS \"acc\""
     ", assy.checkedout AS \"checkedout\", assy.frozen AS \"frozen\" FROM "
     "assy UNION ALL SELECT comp.type AS \"type\", comp.obid AS \"obid\", "
     "comp.name AS \"name\", '' AS \"dec\", '' AS \"make_or_buy\", comp.ma"
     "terial AS \"material\", comp.weight AS \"weight\", comp.acc AS \"acc"
     "\", comp.checkedout AS \"checkedout\", CAST(NULL AS BOOLEAN) AS \"fr"
     "ozen\" FROM comp"sv},
    {"WITH RECURSIVE rtbl (type, obid, name, dec, make_or_buy, material, w"
     "eight, acc, checkedout, frozen, lvl) AS (SELECT assy.type AS \"type\""
     ", assy.obid AS \"obid\", assy.name AS \"name\", assy.dec AS \"dec\","
     " assy.make_or_buy AS \"make_or_buy\", '' AS \"material\", assy.weigh"
     "t AS \"weight\", assy.acc AS \"acc\", assy.checkedout AS \"checkedou"
     "t\", assy.frozen AS \"frozen\", 0 AS \"lvl\" FROM assy WHERE (assy.o"
     "bid = 4) AND (assy.acc = '+') UNION SELECT assy.type AS \"type\", as"
     "sy.obid AS \"obid\", assy.name AS \"name\", assy.dec AS \"dec\", ass"
     "y.make_or_buy AS \"make_or_buy\", '' AS \"material\", assy.weight AS"
     " \"weight\", assy.acc AS \"acc\", assy.checkedout AS \"checkedout\","
     " assy.frozen AS \"frozen\", rtbl.lvl + 1 AS \"lvl\" FROM rtbl JOIN l"
     "ink ON rtbl.obid = link.left JOIN assy ON link.right = assy.obid WHE"
     "RE ((link.hier = 'phys') AND (assy.acc = '+')) AND (((link.eff_from "
     "<= 60) AND (link.eff_to >= 40)) AND (BITAND(link.strc_opt, 1) <> 0))"
     " UNION SELECT comp.type AS \"type\", comp.obid AS \"obid\", comp.nam"
     "e AS \"name\", '' AS \"dec\", '' AS \"make_or_buy\", comp.material A"
     "S \"material\", comp.weight AS \"weight\", comp.acc AS \"acc\", comp"
     ".checkedout AS \"checkedout\", CAST(NULL AS BOOLEAN) AS \"frozen\", "
     "rtbl.lvl + 1 AS \"lvl\" FROM rtbl JOIN link ON rtbl.obid = link.left"
     " JOIN comp ON link.right = comp.obid WHERE ((link.hier = 'phys') AND"
     " (comp.acc = '+')) AND (((link.eff_from <= 60) AND (link.eff_to >= 4"
     "0)) AND (BITAND(link.strc_opt, 1) <> 0))) SELECT type AS \"type\", o"
     "bid AS \"obid\", name AS \"name\", dec AS \"dec\", make_or_buy AS \""
     "make_or_buy\", material AS \"material\", weight AS \"weight\", acc A"
     "S \"acc\", checkedout AS \"checkedout\", frozen AS \"frozen\", CAST("
     "NULL AS INTEGER) AS \"LEFT\", CAST(NULL AS INTEGER) AS \"RIGHT\", CA"
     "ST(NULL AS INTEGER) AS \"EFF_FROM\", CAST(NULL AS INTEGER) AS \"EFF_"
     "TO\", CAST(NULL AS INTEGER) AS \"STRC_OPT\", CAST(NULL AS INTEGER) A"
     "S \"HIER\" FROM rtbl WHERE NOT EXISTS (SELECT * FROM rtbl WHERE NOT "
     "(rtbl.checkedout = FALSE)) UNION SELECT type AS \"type\", obid AS \""
     "obid\", '' AS \"name\", '' AS \"dec\", '' AS \"make_or_buy\", '' AS "
     "\"material\", CAST(NULL AS DOUBLE) AS \"weight\", '' AS \"acc\", CAS"
     "T(NULL AS BOOLEAN) AS \"checkedout\", CAST(NULL AS BOOLEAN) AS \"fro"
     "zen\", left AS \"LEFT\", right AS \"RIGHT\", eff_from AS \"EFF_FROM\""
     ", eff_to AS \"EFF_TO\", strc_opt AS \"STRC_OPT\", hier AS \"HIER\" F"
     "ROM link WHERE ((((left IN (SELECT obid FROM rtbl)) AND (right IN (S"
     "ELECT obid FROM rtbl))) AND (link.hier = 'phys')) AND (NOT EXISTS (S"
     "ELECT * FROM rtbl WHERE NOT (rtbl.checkedout = FALSE)))) AND (((link"
     ".eff_from <= 60) AND (link.eff_to >= 40)) AND (BITAND(link.strc_opt,"
     " 1) <> 0)) ORDER BY 1, 2"sv,
     ""sv,
     true, false,
     "WITH RECURSIVE \"rtbl\" ( \"type\" , \"obid\" , \"name\" , \"dec\" ,"
     " \"make_or_buy\" , \"material\" , \"weight\" , \"acc\" , \"checkedou"
     "t\" , \"frozen\" , \"lvl\" ) AS ( SELECT \"assy\" . \"type\" AS \"ty"
     "pe\" , \"assy\" . \"obid\" AS \"obid\" , \"assy\" . \"name\" AS \"na"
     "me\" , \"assy\" . \"dec\" AS \"dec\" , \"assy\" . \"make_or_buy\" AS"
     " \"make_or_buy\" , \?s AS \"material\" , \"assy\" . \"weight\" AS \""
     "weight\" , \"assy\" . \"acc\" AS \"acc\" , \"assy\" . \"checkedout\""
     " AS \"checkedout\" , \"assy\" . \"frozen\" AS \"frozen\" , \?i AS \""
     "lvl\" FROM \"assy\" WHERE ( \"assy\" . \"obid\" = \?i ) AND ( \"assy"
     "\" . \"acc\" = \?s ) UNION SELECT \"assy\" . \"type\" AS \"type\" , "
     "\"assy\" . \"obid\" AS \"obid\" , \"assy\" . \"name\" AS \"name\" , "
     "\"assy\" . \"dec\" AS \"dec\" , \"assy\" . \"make_or_buy\" AS \"make"
     "_or_buy\" , \?s AS \"material\" , \"assy\" . \"weight\" AS \"weight\""
     " , \"assy\" . \"acc\" AS \"acc\" , \"assy\" . \"checkedout\" AS \"ch"
     "eckedout\" , \"assy\" . \"frozen\" AS \"frozen\" , \"rtbl\" . \"lvl\""
     " + \?i AS \"lvl\" FROM \"rtbl\" JOIN \"link\" ON \"rtbl\" . \"obid\""
     " = \"link\" . \"left\" JOIN \"assy\" ON \"link\" . \"right\" = \"ass"
     "y\" . \"obid\" WHERE ( ( \"link\" . \"hier\" = \?s ) AND ( \"assy\" "
     ". \"acc\" = \?s ) ) AND ( ( ( \"link\" . \"eff_from\" <= \?i ) AND ("
     " \"link\" . \"eff_to\" >= \?i ) ) AND ( \"BITAND\" ( \"link\" . \"st"
     "rc_opt\" , \?i ) <> \?i ) ) UNION SELECT \"comp\" . \"type\" AS \"ty"
     "pe\" , \"comp\" . \"obid\" AS \"obid\" , \"comp\" . \"name\" AS \"na"
     "me\" , \?s AS \"dec\" , \?s AS \"make_or_buy\" , \"comp\" . \"materi"
     "al\" AS \"material\" , \"comp\" . \"weight\" AS \"weight\" , \"comp\""
     " . \"acc\" AS \"acc\" , \"comp\" . \"checkedout\" AS \"checkedout\" "
     ", CAST ( NULL AS \"BOOLEAN\" ) AS \"frozen\" , \"rtbl\" . \"lvl\" + "
     "\?i AS \"lvl\" FROM \"rtbl\" JOIN \"link\" ON \"rtbl\" . \"obid\" = "
     "\"link\" . \"left\" JOIN \"comp\" ON \"link\" . \"right\" = \"comp\""
     " . \"obid\" WHERE ( ( \"link\" . \"hier\" = \?s ) AND ( \"comp\" . \""
     "acc\" = \?s ) ) AND ( ( ( \"link\" . \"eff_from\" <= \?i ) AND ( \"l"
     "ink\" . \"eff_to\" >= \?i ) ) AND ( \"BITAND\" ( \"link\" . \"strc_o"
     "pt\" , \?i ) <> \?i ) ) ) SELECT \"type\" AS \"type\" , \"obid\" AS "
     "\"obid\" , \"name\" AS \"name\" , \"dec\" AS \"dec\" , \"make_or_buy"
     "\" AS \"make_or_buy\" , \"material\" AS \"material\" , \"weight\" AS"
     " \"weight\" , \"acc\" AS \"acc\" , \"checkedout\" AS \"checkedout\" "
     ", \"frozen\" AS \"frozen\" , CAST ( NULL AS \"INTEGER\" ) AS \"LEFT\""
     " , CAST ( NULL AS \"INTEGER\" ) AS \"RIGHT\" , CAST ( NULL AS \"INTE"
     "GER\" ) AS \"EFF_FROM\" , CAST ( NULL AS \"INTEGER\" ) AS \"EFF_TO\""
     " , CAST ( NULL AS \"INTEGER\" ) AS \"STRC_OPT\" , CAST ( NULL AS \"I"
     "NTEGER\" ) AS \"HIER\" FROM \"rtbl\" WHERE NOT EXISTS ( SELECT * FRO"
     "M \"rtbl\" WHERE NOT ( \"rtbl\" . \"checkedout\" = FALSE ) ) UNION S"
     "ELECT \"type\" AS \"type\" , \"obid\" AS \"obid\" , \?s AS \"name\" "
     ", \?s AS \"dec\" , \?s AS \"make_or_buy\" , \?s AS \"material\" , CA"
     "ST ( NULL AS \"DOUBLE\" ) AS \"weight\" , \?s AS \"acc\" , CAST ( NU"
     "LL AS \"BOOLEAN\" ) AS \"checkedout\" , CAST ( NULL AS \"BOOLEAN\" )"
     " AS \"frozen\" , \"left\" AS \"LEFT\" , \"right\" AS \"RIGHT\" , \"e"
     "ff_from\" AS \"EFF_FROM\" , \"eff_to\" AS \"EFF_TO\" , \"strc_opt\" "
     "AS \"STRC_OPT\" , \"hier\" AS \"HIER\" FROM \"link\" WHERE ( ( ( ( \""
     "left\" IN ( SELECT \"obid\" FROM \"rtbl\" ) ) AND ( \"right\" IN ( S"
     "ELECT \"obid\" FROM \"rtbl\" ) ) ) AND ( \"link\" . \"hier\" = \?s )"
     " ) AND ( NOT EXISTS ( SELECT * FROM \"rtbl\" WHERE NOT ( \"rtbl\" . "
     "\"checkedout\" = FALSE ) ) ) ) AND ( ( ( \"link\" . \"eff_from\" <= "
     "\?i ) AND ( \"link\" . \"eff_to\" >= \?i ) ) AND ( \"BITAND\" ( \"li"
     "nk\" . \"strc_opt\" , \?i ) <> \?i ) ) ORDER BY 1 , 2"sv,
     "s:\037i:0\037i:4\037s:+\037s:\037i:1\037s:phys\037s:+\037i:60\037i:4"
     "0\037i:1\037i:0\037s:\037s:\037i:1\037s:phys\037s:+\037i:60\037i:40\037"
     "i:1\037i:0\037s:\037s:\037s:\037s:\037s:\037s:phys\037i:60\037i:40\037"
     "i:1\037i:0\037"sv,
     "ok: WITH RECURSIVE rtbl (type, obid, name, dec, make_or_buy, materia"
     "l, weight, acc, checkedout, frozen, lvl) AS (SELECT assy.type AS \"t"
     "ype\", assy.obid AS \"obid\", assy.name AS \"name\", assy.dec AS \"d"
     "ec\", assy.make_or_buy AS \"make_or_buy\", '' AS \"material\", assy."
     "weight AS \"weight\", assy.acc AS \"acc\", assy.checkedout AS \"chec"
     "kedout\", assy.frozen AS \"frozen\", 0 AS \"lvl\" FROM assy WHERE (a"
     "ssy.obid = 4) AND (assy.acc = '+') UNION SELECT assy.type AS \"type\""
     ", assy.obid AS \"obid\", assy.name AS \"name\", assy.dec AS \"dec\","
     " assy.make_or_buy AS \"make_or_buy\", '' AS \"material\", assy.weigh"
     "t AS \"weight\", assy.acc AS \"acc\", assy.checkedout AS \"checkedou"
     "t\", assy.frozen AS \"frozen\", rtbl.lvl + 1 AS \"lvl\" FROM rtbl JO"
     "IN link ON rtbl.obid = link.left JOIN assy ON link.right = assy.obid"
     " WHERE ((link.hier = 'phys') AND (assy.acc = '+')) AND (((link.eff_f"
     "rom <= 60) AND (link.eff_to >= 40)) AND (BITAND(link.strc_opt, 1) <>"
     " 0)) UNION SELECT comp.type AS \"type\", comp.obid AS \"obid\", comp"
     ".name AS \"name\", '' AS \"dec\", '' AS \"make_or_buy\", comp.materi"
     "al AS \"material\", comp.weight AS \"weight\", comp.acc AS \"acc\", "
     "comp.checkedout AS \"checkedout\", CAST(NULL AS BOOLEAN) AS \"frozen"
     "\", rtbl.lvl + 1 AS \"lvl\" FROM rtbl JOIN link ON rtbl.obid = link."
     "left JOIN comp ON link.right = comp.obid WHERE ((link.hier = 'phys')"
     " AND (comp.acc = '+')) AND (((link.eff_from <= 60) AND (link.eff_to "
     ">= 40)) AND (BITAND(link.strc_opt, 1) <> 0))) SELECT type AS \"type\""
     ", obid AS \"obid\", name AS \"name\", dec AS \"dec\", make_or_buy AS"
     " \"make_or_buy\", material AS \"material\", weight AS \"weight\", ac"
     "c AS \"acc\", checkedout AS \"checkedout\", frozen AS \"frozen\", CA"
     "ST(NULL AS INTEGER) AS \"LEFT\", CAST(NULL AS INTEGER) AS \"RIGHT\","
     " CAST(NULL AS INTEGER) AS \"EFF_FROM\", CAST(NULL AS INTEGER) AS \"E"
     "FF_TO\", CAST(NULL AS INTEGER) AS \"STRC_OPT\", CAST(NULL AS INTEGER"
     ") AS \"HIER\" FROM rtbl WHERE NOT EXISTS (SELECT * FROM rtbl WHERE N"
     "OT (rtbl.checkedout = FALSE)) UNION SELECT type AS \"type\", obid AS"
     " \"obid\", '' AS \"name\", '' AS \"dec\", '' AS \"make_or_buy\", '' "
     "AS \"material\", CAST(NULL AS DOUBLE) AS \"weight\", '' AS \"acc\", "
     "CAST(NULL AS BOOLEAN) AS \"checkedout\", CAST(NULL AS BOOLEAN) AS \""
     "frozen\", left AS \"LEFT\", right AS \"RIGHT\", eff_from AS \"EFF_FR"
     "OM\", eff_to AS \"EFF_TO\", strc_opt AS \"STRC_OPT\", hier AS \"HIER"
     "\" FROM link WHERE ((((left IN (SELECT obid FROM rtbl)) AND (right I"
     "N (SELECT obid FROM rtbl))) AND (link.hier = 'phys')) AND (NOT EXIST"
     "S (SELECT * FROM rtbl WHERE NOT (rtbl.checkedout = FALSE)))) AND ((("
     "link.eff_from <= 60) AND (link.eff_to >= 40)) AND (BITAND(link.strc_"
     "opt, 1) <> 0)) ORDER BY 1, 2"sv},
    {"UPDATE assy SET checkedout = TRUE WHERE obid IN (4, 4, 30, 31, 33, 3"
     "5, 36)"sv,
     ""sv,
     false, true,
     ""sv,
     ""sv,
     "ok: UPDATE assy SET checkedout = TRUE WHERE obid IN (4, 4, 30, 31, 3"
     "3, 35, 36)"sv},
    {"UPDATE comp SET checkedout = TRUE WHERE obid IN (264, 265, 267, 269,"
     " 270, 272, 274, 275, 277, 279, 280, 291, 293, 294, 296, 298, 308, 31"
     "0, 312, 313, 315, 317, 318, 320, 322, 323, 325)"sv,
     ""sv,
     false, true,
     ""sv,
     ""sv,
     "ok: UPDATE comp SET checkedout = TRUE WHERE obid IN (264, 265, 267, "
     "269, 270, 272, 274, 275, 277, 279, 280, 291, 293, 294, 296, 298, 308"
     ", 310, 312, 313, 315, 317, 318, 320, 322, 323, 325)"sv},
    {"UPDATE assy SET checkedout = FALSE WHERE obid IN (4, 4, 30, 31, 33, "
     "35, 36)"sv,
     ""sv,
     false, true,
     ""sv,
     ""sv,
     "ok: UPDATE assy SET checkedout = FALSE WHERE obid IN (4, 4, 30, 31, "
     "33, 35, 36)"sv},
    {"UPDATE comp SET checkedout = FALSE WHERE obid IN (264, 265, 267, 269"
     ", 270, 272, 274, 275, 277, 279, 280, 291, 293, 294, 296, 298, 308, 3"
     "10, 312, 313, 315, 317, 318, 320, 322, 323, 325)"sv,
     ""sv,
     false, true,
     ""sv,
     ""sv,
     "ok: UPDATE comp SET checkedout = FALSE WHERE obid IN (264, 265, 267,"
     " 269, 270, 272, 274, 275, 277, 279, 280, 291, 293, 294, 296, 298, 30"
     "8, 310, 312, 313, 315, 317, 318, 320, 322, 323, 325)"sv},
    {"\012    CREATE TABLE assy (type VARCHAR, obid INTEGER, name VARCHAR,"
     " dec VARCHAR);\012    CREATE TABLE comp (type VARCHAR, obid INTEGER,"
     " name VARCHAR);\012    CREATE TABLE link (type VARCHAR, obid INTEGER"
     ", left INTEGER,\012                       right INTEGER, eff_from IN"
     "TEGER, eff_to INTEGER);\012    INSERT INTO assy VALUES\012      ('as"
     "sy', 1, 'Assy1', '+'), ('assy', 2, 'Assy2', '+'),\012      ('assy', "
     "3, 'Assy3', '+'), ('assy', 4, 'Assy4', '+'),\012      ('assy', 5, 'A"
     "ssy5', '-'), ('assy', 6, 'Assy6', '-'),\012      ('assy', 7, 'Assy7'"
     ", '-'), ('assy', 8, 'Assy8', '-');\012    INSERT INTO comp VALUES\012"
     "      ('comp', 101, 'Comp1'), ('comp', 102, 'Comp2'), ('comp', 103, "
     "'Comp3'),\012      ('comp', 104, 'Comp4'), ('comp', 105, 'Comp5'), ("
     "'comp', 106, 'Comp6'),\012      ('comp', 107, 'Comp7');\012    INSER"
     "T INTO link VALUES\012      ('link', 1001, 1, 2, 1, 3),    ('link', "
     "1002, 1, 3, 4, 10),\012      ('link', 1003, 2, 4, 1, 10),   ('link',"
     " 1004, 2, 5, 1, 10),\012      ('link', 1005, 4, 101, 6, 10), ('link'"
     ", 1006, 4, 102, 1, 5),\012      ('link', 1007, 5, 103, 1, 10), ('lin"
     "k', 1008, 5, 104, 1, 10);\012  "sv,
     ""sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: unexpected trailing input: keyword CREATE (line 3"
     ", column 5)"sv},
    {"\012WITH RECURSIVE rtbl (type, obid, name, dec) AS\012  (SELECT type"
     ", obid, name, dec FROM assy WHERE assy.obid = 1\012   UNION\012   SE"
     "LECT assy.type, assy.obid, assy.name, assy.dec\012   FROM rtbl JOIN "
     "link ON rtbl.obid = link.left\012             JOIN assy ON link.righ"
     "t = assy.obid\012   UNION\012   SELECT comp.type, comp.obid, comp.na"
     "me, ''\012   FROM rtbl JOIN link ON rtbl.obid = link.left\012       "
     "      JOIN comp ON link.right = comp.obid)\012SELECT type, obid, nam"
     "e, dec AS \"DEC\",\012       cast(NULL AS integer) AS \"LEFT\",\012 "
     "      cast(NULL AS integer) AS \"RIGHT\",\012       cast(NULL AS int"
     "eger) AS \"EFF_FROM\",\012       cast(NULL AS integer) AS \"EFF_TO\""
     "\012FROM rtbl\012UNION\012SELECT type, obid, '' AS \"NAME\", '' AS \""
     "DEC\",\012       left, right, eff_from, eff_to\012FROM link\012WHERE"
     " (left IN (SELECT obid FROM rtbl)\012   AND right IN (SELECT obid FR"
     "OM rtbl))\012ORDER BY 1, 2\012"sv,
     ""sv,
     true, false,
     "WITH RECURSIVE \"rtbl\" ( \"type\" , \"obid\" , \"name\" , \"dec\" )"
     " AS ( SELECT \"type\" , \"obid\" , \"name\" , \"dec\" FROM \"assy\" "
     "WHERE \"assy\" . \"obid\" = \?i UNION SELECT \"assy\" . \"type\" , \""
     "assy\" . \"obid\" , \"assy\" . \"name\" , \"assy\" . \"dec\" FROM \""
     "rtbl\" JOIN \"link\" ON \"rtbl\" . \"obid\" = \"link\" . \"left\" JO"
     "IN \"assy\" ON \"link\" . \"right\" = \"assy\" . \"obid\" UNION SELE"
     "CT \"comp\" . \"type\" , \"comp\" . \"obid\" , \"comp\" . \"name\" ,"
     " \?s FROM \"rtbl\" JOIN \"link\" ON \"rtbl\" . \"obid\" = \"link\" ."
     " \"left\" JOIN \"comp\" ON \"link\" . \"right\" = \"comp\" . \"obid\""
     " ) SELECT \"type\" , \"obid\" , \"name\" , \"dec\" AS \"DEC\" , CAST"
     " ( NULL AS \"integer\" ) AS \"LEFT\" , CAST ( NULL AS \"integer\" ) "
     "AS \"RIGHT\" , CAST ( NULL AS \"integer\" ) AS \"EFF_FROM\" , CAST ("
     " NULL AS \"integer\" ) AS \"EFF_TO\" FROM \"rtbl\" UNION SELECT \"ty"
     "pe\" , \"obid\" , \?s AS \"NAME\" , \?s AS \"DEC\" , \"left\" , \"ri"
     "ght\" , \"eff_from\" , \"eff_to\" FROM \"link\" WHERE ( \"left\" IN "
     "( SELECT \"obid\" FROM \"rtbl\" ) AND \"right\" IN ( SELECT \"obid\""
     " FROM \"rtbl\" ) ) ORDER BY 1 , 2"sv,
     "i:1\037s:\037s:\037s:\037"sv,
     "ok: WITH RECURSIVE rtbl (type, obid, name, dec) AS (SELECT type, obi"
     "d, name, dec FROM assy WHERE assy.obid = 1 UNION SELECT assy.type, a"
     "ssy.obid, assy.name, assy.dec FROM rtbl JOIN link ON rtbl.obid = lin"
     "k.left JOIN assy ON link.right = assy.obid UNION SELECT comp.type, c"
     "omp.obid, comp.name, '' FROM rtbl JOIN link ON rtbl.obid = link.left"
     " JOIN comp ON link.right = comp.obid) SELECT type, obid, name, dec A"
     "S \"DEC\", CAST(NULL AS INTEGER) AS \"LEFT\", CAST(NULL AS INTEGER) "
     "AS \"RIGHT\", CAST(NULL AS INTEGER) AS \"EFF_FROM\", CAST(NULL AS IN"
     "TEGER) AS \"EFF_TO\" FROM rtbl UNION SELECT type, obid, '' AS \"NAME"
     "\", '' AS \"DEC\", left, right, eff_from, eff_to FROM link WHERE (le"
     "ft IN (SELECT obid FROM rtbl)) AND (right IN (SELECT obid FROM rtbl)"
     ") ORDER BY 1, 2"sv},
    {"SELECT assy.type AS \"type\", assy.obid AS \"obid\", assy.name AS \""
     "name\", assy.dec AS \"dec\", assy.make_or_buy AS \"make_or_buy\", ''"
     " AS \"material\", assy.weight AS \"weight\", assy.acc AS \"acc\", as"
     "sy.checkedout AS \"checkedout\", assy.frozen AS \"frozen\", link.lef"
     "t AS \"LEFT\", link.right AS \"RIGHT\", link.eff_from AS \"EFF_FROM\""
     ", link.eff_to AS \"EFF_TO\", link.strc_opt AS \"STRC_OPT\", link.hie"
     "r AS \"HIER\" FROM link JOIN assy ON link.right = assy.obid WHERE (l"
     "ink.left = 1) AND (link.hier = 'phys') UNION ALL SELECT comp.type AS"
     " \"type\", comp.obid AS \"obid\", comp.name AS \"name\", '' AS \"dec"
     "\", '' AS \"make_or_buy\", comp.material AS \"material\", comp.weigh"
     "t AS \"weight\", comp.acc AS \"acc\", comp.checkedout AS \"checkedou"
     "t\", CAST(NULL AS BOOLEAN) AS \"frozen\", link.left AS \"LEFT\", lin"
     "k.right AS \"RIGHT\", link.eff_from AS \"EFF_FROM\", link.eff_to AS "
     "\"EFF_TO\", link.strc_opt AS \"STRC_OPT\", link.hier AS \"HIER\" FRO"
     "M link JOIN comp ON link.right = comp.obid WHERE (link.left = 1) AND"
     " (link.hier = 'phys')"sv,
     ""sv,
     true, false,
     "SELECT \"assy\" . \"type\" AS \"type\" , \"assy\" . \"obid\" AS \"ob"
     "id\" , \"assy\" . \"name\" AS \"name\" , \"assy\" . \"dec\" AS \"dec"
     "\" , \"assy\" . \"make_or_buy\" AS \"make_or_buy\" , \?s AS \"materi"
     "al\" , \"assy\" . \"weight\" AS \"weight\" , \"assy\" . \"acc\" AS \""
     "acc\" , \"assy\" . \"checkedout\" AS \"checkedout\" , \"assy\" . \"f"
     "rozen\" AS \"frozen\" , \"link\" . \"left\" AS \"LEFT\" , \"link\" ."
     " \"right\" AS \"RIGHT\" , \"link\" . \"eff_from\" AS \"EFF_FROM\" , "
     "\"link\" . \"eff_to\" AS \"EFF_TO\" , \"link\" . \"strc_opt\" AS \"S"
     "TRC_OPT\" , \"link\" . \"hier\" AS \"HIER\" FROM \"link\" JOIN \"ass"
     "y\" ON \"link\" . \"right\" = \"assy\" . \"obid\" WHERE ( \"link\" ."
     " \"left\" = \?i ) AND ( \"link\" . \"hier\" = \?s ) UNION ALL SELECT"
     " \"comp\" . \"type\" AS \"type\" , \"comp\" . \"obid\" AS \"obid\" ,"
     " \"comp\" . \"name\" AS \"name\" , \?s AS \"dec\" , \?s AS \"make_or"
     "_buy\" , \"comp\" . \"material\" AS \"material\" , \"comp\" . \"weig"
     "ht\" AS \"weight\" , \"comp\" . \"acc\" AS \"acc\" , \"comp\" . \"ch"
     "eckedout\" AS \"checkedout\" , CAST ( NULL AS \"BOOLEAN\" ) AS \"fro"
     "zen\" , \"link\" . \"left\" AS \"LEFT\" , \"link\" . \"right\" AS \""
     "RIGHT\" , \"link\" . \"eff_from\" AS \"EFF_FROM\" , \"link\" . \"eff"
     "_to\" AS \"EFF_TO\" , \"link\" . \"strc_opt\" AS \"STRC_OPT\" , \"li"
     "nk\" . \"hier\" AS \"HIER\" FROM \"link\" JOIN \"comp\" ON \"link\" "
     ". \"right\" = \"comp\" . \"obid\" WHERE ( \"link\" . \"left\" = \?i "
     ") AND ( \"link\" . \"hier\" = \?s )"sv,
     "s:\037i:1\037s:phys\037s:\037s:\037i:1\037s:phys\037"sv,
     "ok: SELECT assy.type AS \"type\", assy.obid AS \"obid\", assy.name A"
     "S \"name\", assy.dec AS \"dec\", assy.make_or_buy AS \"make_or_buy\""
     ", '' AS \"material\", assy.weight AS \"weight\", assy.acc AS \"acc\""
     ", assy.checkedout AS \"checkedout\", assy.frozen AS \"frozen\", link"
     ".left AS \"LEFT\", link.right AS \"RIGHT\", link.eff_from AS \"EFF_F"
     "ROM\", link.eff_to AS \"EFF_TO\", link.strc_opt AS \"STRC_OPT\", lin"
     "k.hier AS \"HIER\" FROM link JOIN assy ON link.right = assy.obid WHE"
     "RE (link.left = 1) AND (link.hier = 'phys') UNION ALL SELECT comp.ty"
     "pe AS \"type\", comp.obid AS \"obid\", comp.name AS \"name\", '' AS "
     "\"dec\", '' AS \"make_or_buy\", comp.material AS \"material\", comp."
     "weight AS \"weight\", comp.acc AS \"acc\", comp.checkedout AS \"chec"
     "kedout\", CAST(NULL AS BOOLEAN) AS \"frozen\", link.left AS \"LEFT\""
     ", link.right AS \"RIGHT\", link.eff_from AS \"EFF_FROM\", link.eff_t"
     "o AS \"EFF_TO\", link.strc_opt AS \"STRC_OPT\", link.hier AS \"HIER\""
     " FROM link JOIN comp ON link.right = comp.obid WHERE (link.left = 1)"
     " AND (link.hier = 'phys')"sv},
    {"make_or_buy <> 'buy'"sv,
     ""sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: expected a statement, found identifier 'make_or_b"
     "uy' (line 1, column 1)"sv},
    {"BITAND(strc_opt, $user.strc_opt) <> 0 AND eff_from <= $user.eff_to A"
     "ND eff_to >= $user.eff_from"sv,
     ""sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: expected a statement, found identifier 'BITAND' ("
     "line 1, column 1)"sv},
    {"select A.x, b.Y From T a Join u B On a.id = B.id WhErE a.z = 1 Order"
     " By 1 Limit 5"sv,
     ""sv,
     true, false,
     "SELECT \"A\" . \"x\" , \"b\" . \"Y\" FROM \"T\" \"a\" JOIN \"u\" \"B"
     "\" ON \"a\" . \"id\" = \"B\" . \"id\" WHERE \"a\" . \"z\" = \?i ORDE"
     "R BY 1 LIMIT 5"sv,
     "i:1\037"sv,
     "ok: SELECT A.x, b.Y FROM T AS a JOIN u AS B ON a.id = B.id WHERE a.z"
     " = 1 ORDER BY 1 LIMIT 5"sv},
    {"SeLeCt DiStInCt name FrOm assy wHeRe obid In (1, 2, 3) oRdEr bY name"
     " DeSc"sv,
     ""sv,
     true, false,
     "SELECT DISTINCT \"name\" FROM \"assy\" WHERE \"obid\" IN ( \?i , \?i"
     " , \?i ) ORDER BY \"name\" DESC"sv,
     "i:1\037i:2\037i:3\037"sv,
     "ok: SELECT DISTINCT name FROM assy WHERE obid IN (1, 2, 3) ORDER BY "
     "name DESC"sv},
    {"with RECURSIVE r (n) As (Select 1 Union All select n + 1 From r Wher"
     "e n < 10) SELECT n from r"sv,
     ""sv,
     true, false,
     "WITH RECURSIVE \"r\" ( \"n\" ) AS ( SELECT \?i UNION ALL SELECT \"n\""
     " + \?i FROM \"r\" WHERE \"n\" < \?i ) SELECT \"n\" FROM \"r\""sv,
     "i:1\037i:1\037i:10\037"sv,
     "ok: WITH RECURSIVE r (n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r "
     "WHERE n < 10) SELECT n FROM r"sv},
    {"SELECT -- lead comment\012 a /* mid */ FROM /* multi\012line */ t --"
     " trailing"sv,
     ""sv,
     true, false,
     "SELECT \"a\" FROM \"t\""sv,
     ""sv,
     "ok: SELECT a FROM t"sv},
    {"/* head */ -- line\012 SELECT 1"sv,
     ""sv,
     true, false,
     "SELECT \?i"sv,
     "i:1\037"sv,
     "ok: SELECT 1"sv},
    {"SELECT a /* 'not a string */ FROM t -- \"not an identifier\012 WHERE"
     " b = '/* not a comment */' AND c = '-- nor this'"sv,
     ""sv,
     true, false,
     "SELECT \"a\" FROM \"t\" WHERE \"b\" = \?s AND \"c\" = \?s"sv,
     "s:/* not a comment */\037s:-- nor this\037"sv,
     "ok: SELECT a FROM t WHERE (b = '/* not a comment */') AND (c = '-- n"
     "or this')"sv},
    {"SELECT a FROM t WHERE a = 1 /* unterminated comment runs to the end"sv,
     ""sv,
     true, false,
     "SELECT \"a\" FROM \"t\" WHERE \"a\" = \?i"sv,
     "i:1\037"sv,
     "ok: SELECT a FROM t WHERE a = 1"sv},
    {"-- only a comment"sv,
     ""sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: expected a statement, found end of input (line 1,"
     " column 18)"sv},
    {""sv,
     ""sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: expected a statement, found end of input (line 1,"
     " column 1)"sv},
    {" \011\015\012 "sv,
     ""sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: expected a statement, found end of input (line 2,"
     " column 2)"sv},
    {"SELECT 'it''s', '''', '', 'a''b''c' FROM t WHERE s = 'x''y'"sv,
     ""sv,
     true, false,
     "SELECT \?s , \?s , \?s , \?s FROM \"t\" WHERE \"s\" = \?s"sv,
     "s:it's\037s:'\037s:\037s:a'b'c\037s:x'y\037"sv,
     "ok: SELECT 'it''s', '''', '', 'a''b''c' FROM t WHERE s = 'x''y'"sv},
    {"SELECT 'multi\012line\012string', 'tab\011here' FROM t"sv,
     ""sv,
     true, false,
     "SELECT \?s , \?s FROM \"t\""sv,
     "s:multi\012line\012string\037s:tab\011here\037"sv,
     "ok: SELECT 'multi\012line\012string', 'tab\011here' FROM t"sv},
    {"SELECT .5, 5., 1e3, 1.5e-2, 2E+4, 0.0, 12.75, 007 FROM t"sv,
     ""sv,
     true, false,
     "SELECT \?d , \?d , \?d , \?d , \?d , \?d , \?d , \?i FROM \"t\""sv,
     "d:0.5\037d:5\037d:1000\037d:0.014999999999999999\037d:20000\037d:0\037"
     "d:12.75\037i:7\037"sv,
     "ok: SELECT 0.5, 5, 1000, 0.015, 20000, 0, 12.75, 7 FROM t"sv},
    {"SELECT 9223372036854775807, 0, 1e308, 4.9e-324 FROM t"sv,
     ""sv,
     true, false,
     "SELECT \?i , \?i , \?d , \?d FROM \"t\""sv,
     "i:9223372036854775807\037i:0\037d:1e+308\037d:4.9406564584124654e-32"
     "4\037"sv,
     "ok: SELECT 9223372036854775807, 0, 1e+308, 4.94066e-324 FROM t"sv},
    {"SELECT 5.x, 1e, 1.e3, 3e+, 7e- FROM t"sv,
     ""sv,
     true, false,
     "SELECT \?i . \"x\" , \?i \"e\" , \?i . \"e3\" , \?i \"e\" + , \?i \""
     "e\" - FROM \"t\""sv,
     "i:5\037i:1\037i:1\037i:3\037i:7\037"sv,
     "error: ParseError: unexpected trailing input: '.' (line 1, column 9)"sv},
    {"SELECT a FROM t WHERE a != 1 AND b <> 2 AND c <= 3 AND d >= 4 AND e "
     "< 5 AND f > 6 AND g = 7"sv,
     ""sv,
     true, false,
     "SELECT \"a\" FROM \"t\" WHERE \"a\" <> \?i AND \"b\" <> \?i AND \"c\""
     " <= \?i AND \"d\" >= \?i AND \"e\" < \?i AND \"f\" > \?i AND \"g\" ="
     " \?i"sv,
     "i:1\037i:2\037i:3\037i:4\037i:5\037i:6\037i:7\037"sv,
     "ok: SELECT a FROM t WHERE ((((((a <> 1) AND (b <> 2)) AND (c <= 3)) "
     "AND (d >= 4)) AND (e < 5)) AND (f > 6)) AND (g = 7)"sv},
    {"SELECT a||b, a || 'x', -1, +2, 3 % 2, 4 / 2, 2 * 3 - 1 FROM t;"sv,
     ""sv,
     true, false,
     "SELECT \"a\" || \"b\" , \"a\" || \?s , - \?i , + \?i , \?i % \?i , \?"
     "i / \?i , \?i * \?i - \?i FROM \"t\" ;"sv,
     "s:x\037i:1\037i:2\037i:3\037i:2\037i:4\037i:2\037i:2\037i:3\037i:1\037"sv,
     "ok: SELECT a || b, a || 'x', -1, 2, 3 % 2, 4 / 2, (2 * 3) - 1 FROM t"sv},
    {"SELECT $user.strc_opt, x FROM t WHERE y = $user.name AND BITAND(z, $"
     "user.strc_opt) <> 0"sv,
     ""sv,
     true, false,
     "SELECT \"$user\" . \"strc_opt\" , \"x\" FROM \"t\" WHERE \"y\" = \"$"
     "user\" . \"name\" AND \"BITAND\" ( \"z\" , \"$user\" . \"strc_opt\" "
     ") <> \?i"sv,
     "i:0\037"sv,
     "ok: SELECT $user.strc_opt, x FROM t WHERE (y = $user.name) AND (BITA"
     "ND(z, $user.strc_opt) <> 0)"sv},
    {"SELECT \"SELECT\", \"from\", \"Where\" AS \"ORDER\" FROM \"TABLE\" W"
     "HERE \"LIMIT\" = 1"sv,
     ""sv,
     true, false,
     "SELECT \"SELECT\" , \"from\" , \"Where\" AS \"ORDER\" FROM \"TABLE\""
     " WHERE \"LIMIT\" = \?i"sv,
     "i:1\037"sv,
     "ok: SELECT SELECT, from, Where AS \"ORDER\" FROM TABLE WHERE LIMIT ="
     " 1"sv},
    {"SELECT a AS \"LEFT\", b \"RIGHT\", c AS \"EFF_FROM\" FROM link"sv,
     ""sv,
     true, false,
     "SELECT \"a\" AS \"LEFT\" , \"b\" \"RIGHT\" , \"c\" AS \"EFF_FROM\" F"
     "ROM \"link\""sv,
     ""sv,
     "ok: SELECT a AS \"LEFT\", b AS \"RIGHT\", c AS \"EFF_FROM\" FROM lin"
     "k"sv},
    {"SELECT a, b FROM t ORDER BY 2 DESC, 1 ASC LIMIT 10"sv,
     ""sv,
     true, false,
     "SELECT \"a\" , \"b\" FROM \"t\" ORDER BY 2 DESC , 1 ASC LIMIT 10"sv,
     ""sv,
     "ok: SELECT a, b FROM t ORDER BY 2 DESC, 1 LIMIT 10"sv},
    {"SELECT a, b FROM t ORDER BY a + 1, 2 LIMIT 3"sv,
     ""sv,
     true, false,
     "SELECT \"a\" , \"b\" FROM \"t\" ORDER BY \"a\" + \?i , 2 LIMIT 3"sv,
     "i:1\037"sv,
     "ok: SELECT a, b FROM t ORDER BY a + 1, 2 LIMIT 3"sv},
    {"SELECT CAST(a AS VARCHAR(10)), CAST(1 AS INTEGER), CAST(b AS DECIMAL"
     "(12)), CAST('7' AS BIGINT) FROM t"sv,
     ""sv,
     true, false,
     "SELECT CAST ( \"a\" AS \"VARCHAR\" ( 10 ) ) , CAST ( \?i AS \"INTEGE"
     "R\" ) , CAST ( \"b\" AS \"DECIMAL\" ( 12 ) ) , CAST ( \?s AS \"BIGIN"
     "T\" ) FROM \"t\""sv,
     "i:1\037s:7\037"sv,
     "ok: SELECT CAST(a AS VARCHAR), CAST(1 AS INTEGER), CAST(b AS DOUBLE)"
     ", CAST('7' AS INTEGER) FROM t"sv},
    {"SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE b = 7 ORDER BY 1 L"
     "IMIT 3) ORDER BY 1"sv,
     ""sv,
     true, false,
     "SELECT \"a\" FROM \"t\" WHERE \"a\" IN ( SELECT \"b\" FROM \"u\" WHE"
     "RE \"b\" = \?i ORDER BY 1 LIMIT 3 ) ORDER BY 1"sv,
     "i:7\037"sv,
     "ok: SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE b = 7 ORDER BY"
     " 1 LIMIT 3) ORDER BY 1"sv},
    {"SELECT a FROM (SELECT a FROM t ORDER BY 1) AS s ORDER BY (1), 1"sv,
     ""sv,
     true, false,
     "SELECT \"a\" FROM ( SELECT \"a\" FROM \"t\" ORDER BY 1 ) AS \"s\" OR"
     "DER BY ( \?i ) , 1"sv,
     "i:1\037"sv,
     "ok: SELECT a FROM (SELECT a FROM t ORDER BY 1) AS s ORDER BY 1, 1"sv},
    {"SELECT ((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((("
     "(((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((("
     "(((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((("
     "(((1))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))"
     "))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))"
     "))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))"sv,
     ""sv,
     true, false,
     "SELECT ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ("
     " ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ("
     " ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ("
     " ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ("
     " ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ("
     " ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( \?"
     "i ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) "
     ") ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) "
     ") ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) "
     ") ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) "
     ") ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) "
     ") ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) )"sv,
     "i:1\037"sv,
     "ok: SELECT 1"sv},
    {"SELECT x FROM t WHERE (((((((((((((((((((((((((((((((((((((((((((((("
     "(((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((("
     "(((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((("
     "((((((((((((((((((x = 1)))))))))))))))))))))))))))))))))))))))))))))"
     "))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))"
     "))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))"
     ")))))))))))))))))))"sv,
     ""sv,
     true, false,
     "SELECT \"x\" FROM \"t\" WHERE ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( "
     "( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( "
     "( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( "
     "( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( "
     "( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( "
     "( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( "
     "( ( ( ( ( ( ( ( ( ( ( \"x\" = \?i ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) "
     ") ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) "
     ") ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) "
     ") ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) "
     ") ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) "
     ") ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) ) "
     ") ) ) ) ) ) ) ) ) ) ) ) )"sv,
     "i:1\037"sv,
     "ok: SELECT x FROM t WHERE x = 1"sv},
    {"SELECT ((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((("
     "(((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((("
     "(((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((("
     "(((a + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1"
     ") + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) +"
     " 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1)"
     " + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + "
     "1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) "
     "+ 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1"
     ") + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) +"
     " 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1)"
     " + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + "
     "1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) "
     "+ 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1"
     ") + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) +"
     " 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1)"
     " + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + "
     "1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) FROM t ORDER BY"
     " 1"sv,
     ""sv,
     true, false,
     "SELECT ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ("
     " ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ("
     " ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ("
     " ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ("
     " ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ("
     " ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( ( \""
     "a\" + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) "
     "+ \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?"
     "i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) "
     "+ \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?"
     "i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) "
     "+ \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?"
     "i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) "
     "+ \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?"
     "i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) "
     "+ \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?"
     "i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) "
     "+ \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?"
     "i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) "
     "+ \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?"
     "i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) "
     "+ \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?"
     "i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) "
     "+ \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?"
     "i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) "
     "+ \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?"
     "i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) "
     "+ \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?"
     "i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) + \?i ) "
     "+ \?i ) + \?i ) + \?i ) + \?i ) + \?i ) FROM \"t\" ORDER BY 1"sv,
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"
     "i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037i:1\037"sv,
     "ok: SELECT ((((((((((((((((((((((((((((((((((((((((((((((((((((((((("
     "(((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((("
     "(((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((("
     "((((((a + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) "
     "+ 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1"
     ") + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) +"
     " 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1)"
     " + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + "
     "1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) "
     "+ 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1"
     ") + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) +"
     " 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1)"
     " + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + "
     "1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) "
     "+ 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1"
     ") + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) +"
     " 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1)"
     " + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1) + 1 FROM t ORDER "
     "BY 1"sv},
    {"WITH RECURSIVE r (n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r WHER"
     "E n < 10) SELECT n FROM r ORDER BY n"sv,
     ""sv,
     true, false,
     "WITH RECURSIVE \"r\" ( \"n\" ) AS ( SELECT \?i UNION ALL SELECT \"n\""
     " + \?i FROM \"r\" WHERE \"n\" < \?i ) SELECT \"n\" FROM \"r\" ORDER "
     "BY \"n\""sv,
     "i:1\037i:1\037i:10\037"sv,
     "ok: WITH RECURSIVE r (n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r "
     "WHERE n < 10) SELECT n FROM r ORDER BY n"sv},
    {"with recursive r as (select 1 as n) select * from r"sv,
     ""sv,
     true, false,
     "WITH RECURSIVE \"r\" AS ( SELECT \?i AS \"n\" ) SELECT * FROM \"r\""sv,
     "i:1\037"sv,
     "ok: WITH RECURSIVE r AS (SELECT 1 AS \"n\") SELECT * FROM r"sv},
    {"SELECT * FROM link WHERE LINK . LEFT = 5"sv,
     ""sv,
     true, false,
     "SELECT * FROM \"link\" WHERE \"LINK\" . \"LEFT\" = \?i"sv,
     "i:5\037"sv,
     "ok: SELECT * FROM link WHERE LINK.LEFT = 5"sv},
    {"SELECT name FROM t WHERE name = 'link.left'"sv,
     ""sv,
     true, false,
     "SELECT \"name\" FROM \"t\" WHERE \"name\" = \?s"sv,
     "s:link.left\037"sv,
     "ok: SELECT name FROM t WHERE name = 'link.left'"sv},
    {"SELECT a FROM t WHERE b LIKE 'a%' AND c BETWEEN 1 AND 2 AND d IS NOT"
     " NULL AND NOT e = 1 AND EXISTS (SELECT 1 FROM u) AND f IN (1, 2.5, '"
     "x') AND g NOT IN (3) AND h NOT BETWEEN 4 AND 5 AND i NOT LIKE 'b' AN"
     "D NOT EXISTS (SELECT 2 FROM u)"sv,
     ""sv,
     true, false,
     "SELECT \"a\" FROM \"t\" WHERE \"b\" LIKE \?s AND \"c\" BETWEEN \?i A"
     "ND \?i AND \"d\" IS NOT NULL AND NOT \"e\" = \?i AND EXISTS ( SELECT"
     " \?i FROM \"u\" ) AND \"f\" IN ( \?i , \?d , \?s ) AND \"g\" NOT IN "
     "( \?i ) AND \"h\" NOT BETWEEN \?i AND \?i AND \"i\" NOT LIKE \?s AND"
     " NOT EXISTS ( SELECT \?i FROM \"u\" )"sv,
     "s:a%\037i:1\037i:2\037i:1\037i:1\037i:1\037d:2.5\037s:x\037i:3\037i:"
     "4\037i:5\037s:b\037i:2\037"sv,
     "ok: SELECT a FROM t WHERE (((((((((b LIKE 'a%') AND (c BETWEEN 1 AND"
     " 2)) AND (d IS NOT NULL)) AND (NOT (e = 1))) AND (EXISTS (SELECT 1 F"
     "ROM u))) AND (f IN (1, 2.5, 'x'))) AND (g NOT IN (3))) AND (h NOT BE"
     "TWEEN 4 AND 5)) AND (i NOT LIKE 'b')) AND (NOT EXISTS (SELECT 2 FROM"
     " u))"sv},
    {"SELECT CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'other'"
     " END, COUNT(DISTINCT b), SUM(c) FROM t GROUP BY a HAVING COUNT(*) > "
     "2"sv,
     ""sv,
     true, false,
     "SELECT CASE WHEN \"a\" = \?i THEN \?s WHEN \"a\" = \?i THEN \?s ELSE"
     " \?s END , \"COUNT\" ( DISTINCT \"b\" ) , \"SUM\" ( \"c\" ) FROM \"t"
     "\" GROUP BY \"a\" HAVING \"COUNT\" ( * ) > \?i"sv,
     "i:1\037s:one\037i:2\037s:two\037s:other\037i:2\037"sv,
     "ok: SELECT CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'ot"
     "her' END, COUNT(DISTINCT b), SUM(c) FROM t GROUP BY a HAVING COUNT(*"
     ") > 2"sv},
    {"SELECT t.* , u.a FROM t INNER JOIN u ON t.id = u.id JOIN v ON v.id ="
     " u.id WHERE TRUE AND NOT FALSE AND x IS NULL"sv,
     ""sv,
     true, false,
     "SELECT \"t\" . * , \"u\" . \"a\" FROM \"t\" INNER JOIN \"u\" ON \"t\""
     " . \"id\" = \"u\" . \"id\" JOIN \"v\" ON \"v\" . \"id\" = \"u\" . \""
     "id\" WHERE TRUE AND NOT FALSE AND \"x\" IS NULL"sv,
     ""sv,
     "ok: SELECT t.*, u.a FROM t JOIN u ON t.id = u.id JOIN v ON v.id = u."
     "id WHERE (TRUE AND (NOT FALSE)) AND (x IS NULL)"sv},
    {"update T set a = 'x''', b = 2.5 where c = 1"sv,
     ""sv,
     false, true,
     ""sv,
     ""sv,
     "ok: UPDATE T SET a = 'x''', b = 2.5 WHERE c = 1"sv},
    {"/* c */ delete from t where a = 1"sv,
     ""sv,
     false, true,
     ""sv,
     ""sv,
     "ok: DELETE FROM t WHERE a = 1"sv},
    {"-- c\012insert into t (a, b) values (1, 'x'), (2, 'y')"sv,
     ""sv,
     false, true,
     ""sv,
     ""sv,
     "ok: INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')"sv},
    {"INSERT INTO t VALUES (1.5e3, .25, 'q', NULL, TRUE)"sv,
     ""sv,
     false, true,
     ""sv,
     ""sv,
     "ok: INSERT INTO t VALUES (1500, 0.25, 'q', NULL, TRUE)"sv},
    {"CREATE TABLE IF NOT EXISTS t (a INTEGER, b VARCHAR(80), c DOUBLE)"sv,
     ""sv,
     false, false,
     ""sv,
     ""sv,
     "ok: CREATE TABLE IF NOT EXISTS t (a INTEGER, b VARCHAR, c DOUBLE)"sv},
    {"DROP TABLE IF EXISTS t"sv,
     ""sv,
     false, false,
     ""sv,
     ""sv,
     "ok: DROP TABLE IF EXISTS t"sv},
    {"CALL p(1, 'x', 2.5)"sv,
     ""sv,
     false, false,
     ""sv,
     ""sv,
     "ok: CALL p(1, 'x', 2.5)"sv},
    {"EXPLAIN SELECT a FROM t WHERE a = 1"sv,
     ""sv,
     false, false,
     ""sv,
     ""sv,
     "ok: EXPLAIN SELECT a FROM t WHERE a = 1"sv},
    {"CREATE OR REPLACE VIEW v AS SELECT a FROM t WHERE b = 2"sv,
     ""sv,
     false, false,
     ""sv,
     ""sv,
     "ok: CREATE OR REPLACE VIEW v AS SELECT a FROM t WHERE b = 2"sv},
    {"DROP VIEW IF EXISTS v"sv,
     ""sv,
     false, false,
     ""sv,
     ""sv,
     "ok: DROP VIEW IF EXISTS v"sv},
    {"SELECT 1; SELECT 2"sv,
     ""sv,
     true, false,
     "SELECT \?i ; SELECT \?i"sv,
     "i:1\037i:2\037"sv,
     "error: ParseError: unexpected trailing input: keyword SELECT (line 1"
     ", column 11)"sv},
    {"SELECT 'never closed"sv,
     "ParseError: unterminated string literal at line 1, column 21"sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: unterminated string literal at line 1, column 21"sv},
    {"SELECT a,\012  'spans\012lines"sv,
     "ParseError: unterminated string literal at line 3, column 6"sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: unterminated string literal at line 3, column 6"sv},
    {"SELECT \"never closed"sv,
     "ParseError: unterminated quoted identifier at line 1, column 21"sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: unterminated quoted identifier at line 1, column "
     "21"sv},
    {"SELECT a FROM t WHERE a ! b"sv,
     "ParseError: unexpected character '!' at line 1, column 26"sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: unexpected character '!' at line 1, column 26"sv},
    {"SELECT a | b"sv,
     "ParseError: unexpected character '|' at line 1, column 11"sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: unexpected character '|' at line 1, column 11"sv},
    {"SELECT #"sv,
     "ParseError: unexpected character '#' at line 1, column 9"sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: unexpected character '#' at line 1, column 9"sv},
    {"SELECT a\012  FROM t WHERE x = @"sv,
     "ParseError: unexpected character '@' at line 2, column 21"sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: unexpected character '@' at line 2, column 21"sv},
    {"SELECT 9223372036854775808"sv,
     "ParseError: integer literal out of range at line 1, column 27"sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: integer literal out of range at line 1, column 27"sv},
    {"SELECT a\000b"sv,
     "ParseError: unexpected character ' at line 1, column 10"sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: unexpected character ' at line 1, column 10"sv},
    {"SELECT caf\303\251"sv,
     "ParseError: unexpected character '\303' at line 1, column 12"sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: unexpected character '\303' at line 1, column 12"sv},
    {"SELECT FROM t"sv,
     ""sv,
     true, false,
     "SELECT FROM \"t\""sv,
     ""sv,
     "error: ParseError: expected an expression, found keyword FROM (line "
     "1, column 8)"sv},
    {"SELECT a FROM t WHERE"sv,
     ""sv,
     true, false,
     "SELECT \"a\" FROM \"t\" WHERE"sv,
     ""sv,
     "error: ParseError: expected an expression, found end of input (line "
     "1, column 22)"sv},
    {"SELECT a\012FROM t\012WHERE a = = 1"sv,
     ""sv,
     true, false,
     "SELECT \"a\" FROM \"t\" WHERE \"a\" = = \?i"sv,
     "i:1\037"sv,
     "error: ParseError: expected an expression, found '=' (line 3, column"
     " 11)"sv},
    {"SELECT a FROM t LIMIT x"sv,
     ""sv,
     true, false,
     "SELECT \"a\" FROM \"t\" LIMIT \"x\""sv,
     ""sv,
     "error: ParseError: expected integer after LIMIT (line 1, column 23)"sv},
    {"CREATE VIEW"sv,
     ""sv,
     false, false,
     ""sv,
     ""sv,
     "error: ParseError: expected view name, found end of input (line 1, c"
     "olumn 12)"sv},
    {"SELECT CAST(a AS VARCHAR(x)) FROM t"sv,
     ""sv,
     true, false,
     "SELECT CAST ( \"a\" AS \"VARCHAR\" ( \"x\" ) ) FROM \"t\""sv,
     ""sv,
     "error: ParseError: expected length in type (line 1, column 26)"sv},
    {"UPDATE t SET a 1"sv,
     ""sv,
     false, true,
     ""sv,
     ""sv,
     "error: ParseError: expected '=', found literal '1' (line 1, column 1"
     "6)"sv},
};
// clang-format on

}  // namespace pdm::sql::testdata

#endif  // PDM_TESTS_SQL_CORPUS_DATA_H_
