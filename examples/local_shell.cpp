// An interactive in-process MLDS shell over all four user data models
// (the networked equivalent is tools/mlds_shell, which talks to
// tools/mlds_server over the wire protocol). Statements route to a
// language interface by their leading keyword:
//
//   CODASYL-DML  (university, functional database accessed cross-model):
//       MOVE / FIND / GET / STORE / CONNECT / DISCONNECT / RECONNECT /
//       MODIFY / ERASE
//   Daplex       (university):  FOR EACH / CREATE / DESTROY /
//       UPDATE <entity type> (...)
//   SQL          (payroll, relational):  SELECT / INSERT INTO /
//       DELETE FROM / UPDATE <table> SET
//   DL/I         (clinic, hierarchical):  GU / GN / GNP / ISRT / REPL /
//       DLET
//
// An EXPLAIN prefix on a SQL or CODASYL-DML statement executes it
// normally and additionally prints the annotated physical plan
// (estimated vs. actual rows and blocks per node). Every statement runs
// through the same kms::LanguageInterface contract a wire session uses,
// so the shell prints exactly the bytes the server would send.
//
// Meta commands: .help  .trace  .schema  .stats  .quit
//
//   echo "MOVE 'Advanced Database' TO title IN course
//   EXPLAIN FIND ANY course USING title IN course
//   GET" | ./local_shell

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <iostream>
#include <map>
#include <string>

#include "common/strings.h"
#include "kfs/formatter.h"
#include "kms/language_interface.h"
#include "mlds/mlds.h"
#include "university/university.h"

namespace {

using namespace mlds;

void PrintHelp() {
  std::printf(
      "Databases: university (functional), payroll (relational), clinic "
      "(hierarchical)\n"
      "  CODASYL-DML   FIND ANY course USING title IN course\n"
      "  Daplex        FOR EACH student SUCH THAT major = 'CS' PRINT pname\n"
      "  SQL           SELECT name, wage FROM staff ORDER BY name\n"
      "  DL/I          GU patient (pname = 'smith')\n"
      "Prefix a SQL or CODASYL-DML statement with EXPLAIN to also print\n"
      "its annotated plan (estimated vs. actual rows and blocks).\n"
      "Meta: .trace (last CODASYL translations), .schema (transformed\n"
      "network schema), .stats (session statistics), .help, .quit\n");
}

bool StartsWithWord(std::string_view line, std::string_view word) {
  if (!StartsWithIgnoreCase(line, word)) return false;
  return line.size() == word.size() || line[word.size()] == ' ' ||
         line[word.size()] == '\t';
}

/// The language a statement's leading keyword selects (an EXPLAIN prefix
/// routes by the statement underneath it).
kms::Language RouteOf(std::string_view statement) {
  if (StartsWithWord(statement, "EXPLAIN")) {
    statement = Trim(statement.substr(7));
  }
  auto starts = [statement](std::initializer_list<std::string_view> words) {
    for (std::string_view word : words) {
      if (StartsWithWord(statement, word)) return true;
    }
    return false;
  };
  if (starts({"GU", "GN", "GNP", "ISRT", "REPL", "DLET"})) {
    return kms::Language::kDli;
  }
  if (starts({"SELECT", "INSERT", "DELETE"})) return kms::Language::kSql;
  if (starts({"UPDATE"})) {
    // SQL names a table and then SET; Daplex names an entity type and
    // then SUCH THAT or its assignment list.
    std::string_view rest = Trim(statement.substr(6));
    const size_t name_end = std::min(rest.find_first_of(" \t"), rest.size());
    rest = Trim(rest.substr(name_end));
    return StartsWithWord(rest, "SET") ? kms::Language::kSql
                                       : kms::Language::kDaplex;
  }
  if (starts({"FOR", "CREATE", "DESTROY"})) return kms::Language::kDaplex;
  return kms::Language::kCodasyl;
}

}  // namespace

int main() {
  MldsSystem system;
  if (!system.LoadFunctionalDatabase(university::kUniversityDaplexDdl).ok()) {
    return 1;
  }
  university::UniversityConfig config;
  if (!university::BuildUniversityDatabaseOnLoaded(config, system.executor())
           .ok()) {
    return 1;
  }
  if (!system
           .LoadRelationalDatabase(
               "SCHEMA payroll;"
               "CREATE TABLE staff (name CHAR(12) NOT NULL, wage FLOAT, "
               "UNIQUE (name));")
           .ok()) {
    return 1;
  }
  if (!system
           .LoadHierarchicalDatabase(
               "SCHEMA clinic;"
               "SEGMENT patient; FIELD pname CHAR(12);"
               "SEGMENT visit PARENT patient; FIELD vdate CHAR(8); FIELD "
               "cost FLOAT;")
           .ok()) {
    return 1;
  }

  auto codasyl = system.OpenCodasylSession("university");
  auto daplex = system.OpenDaplexSession("university");
  auto sql = system.OpenSqlSession("payroll");
  auto dli = system.OpenDliSession("clinic");
  if (!codasyl.ok() || !daplex.ok() || !sql.ok() || !dli.ok()) return 1;
  const std::map<kms::Language, kms::LanguageInterface*> interfaces = {
      {kms::Language::kCodasyl, *codasyl},
      {kms::Language::kDaplex, *daplex},
      {kms::Language::kSql, *sql},
      {kms::Language::kDli, *dli}};

  std::printf("MLDS shell — four languages, one kernel. Type .help for "
              "commands.\n");

  std::string line;
  while (true) {
    std::printf("mlds> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;

    if (trimmed[0] == '.') {
      if (trimmed == ".quit" || trimmed == ".exit") break;
      if (trimmed == ".help") {
        PrintHelp();
      } else if (trimmed == ".trace") {
        for (const auto& entry : (*codasyl)->trace()) {
          std::printf("  %s\n", entry.dml.c_str());
          for (const auto& abdl : entry.abdl) {
            std::printf("    => %s\n", abdl.c_str());
          }
        }
      } else if (trimmed == ".schema") {
        std::printf("%s", system.NetworkViewOf("university")->ToDdl().c_str());
      } else if (trimmed == ".stats") {
        std::printf("%s", (*codasyl)->statistics().ToString().c_str());
      } else {
        std::printf("unknown command: %s\n", std::string(trimmed).c_str());
      }
      continue;
    }

    Result<kms::Reply> reply =
        interfaces.at(RouteOf(trimmed))->Run(trimmed, /*explain=*/false);
    if (!reply.ok()) {
      std::printf("error: %s\n", reply.status().ToString().c_str());
      continue;
    }
    std::fputs(reply->body->Drain().c_str(), stdout);
    std::fputs(kfs::FormatWarnings(reply->warnings).c_str(), stdout);
  }
  std::printf("\nbye.\n");
  return 0;
}
