// spnet_lint: the project's source linter.
//
// Tokenizes the C++ sources under the given paths with a real lexer
// (comments, string/char literals, raw strings and preprocessor lines are
// understood, so rules never fire inside them) and enforces the project
// rules described in DESIGN.md §lint. Exit status: 0 when clean, 1 when
// any error-severity finding survives suppression (or any warning under
// --werror), 2 on usage/IO problems (an unknown flag included).
//
// Usage:
//   spnet_lint [--werror] [--list-rules] [--json_out <path>]
//              [--graph_out <path>] <path>...
//
// Suppress a finding inline with `// spnet-lint: allow(<rule>)` on the
// same line or the line above.

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/status.h"
#include "lint/lint.h"
#include "lint/runner.h"
#include "metrics/json_writer.h"

namespace {

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: spnet_lint [--werror] [--list-rules] [--json_out <path>]\n"
      "                  [--graph_out <path>] <path>...\n"
      "  --werror            treat warnings as errors\n"
      "  --list-rules        print the rule catalog and exit\n"
      "  --json_out <path>   write machine-readable findings JSON\n"
      "  --graph_out <path>  write the include-graph/layering JSON\n");
}

void PrintRules() {
  for (const spnet::lint::RuleInfo& rule : spnet::lint::Rules()) {
    std::printf("%-24s %-8s %s\n", rule.name,
                rule.severity == spnet::lint::Severity::kError ? "error"
                                                               : "warning",
                rule.summary);
  }
}

}  // namespace

int main(int argc, char** argv) {
  spnet::FlagParser flags;
  const spnet::Status parsed =
      flags.Parse(argc, argv, {"werror", "list-rules", "list_rules"});
  if (!parsed.ok()) {
    std::fprintf(stderr, "spnet_lint: %s\n", parsed.ToString().c_str());
    PrintUsage();
    return 2;
  }
  const bool list_rules = flags.GetBool("list-rules", false);
  const bool list_rules_alias = flags.GetBool("list_rules", false);
  const bool werror = flags.GetBool("werror", false);
  const std::string json_out = flags.GetString("json_out", "");
  const std::string graph_out = flags.GetString("graph_out", "");
  const spnet::Status all_read = flags.CheckAllRead();
  if (!all_read.ok()) {
    std::fprintf(stderr, "spnet_lint: %s\n", all_read.ToString().c_str());
    PrintUsage();
    return 2;
  }
  if (list_rules || list_rules_alias) {
    PrintRules();
    return 0;
  }
  if (flags.positional().empty()) {
    PrintUsage();
    return 2;
  }

  const spnet::lint::LintOptions options;
  auto summary = spnet::lint::LintPaths(flags.positional(), options);
  if (!summary.ok()) {
    std::fprintf(stderr, "spnet_lint: %s\n",
                 summary.status().ToString().c_str());
    return 2;
  }
  for (const spnet::lint::Diagnostic& diagnostic : summary->diagnostics) {
    std::fprintf(stderr, "%s\n",
                 spnet::lint::FormatDiagnostic(diagnostic).c_str());
  }
  if (!json_out.empty()) {
    const spnet::Status written = spnet::metrics::WriteTextFile(
        json_out, spnet::lint::FindingsJson(*summary) + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "spnet_lint: %s\n", written.ToString().c_str());
      return 2;
    }
  }
  if (!graph_out.empty()) {
    const spnet::Status written = spnet::metrics::WriteTextFile(
        graph_out, summary->graph_json + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "spnet_lint: %s\n", written.ToString().c_str());
      return 2;
    }
  }
  const int effective_errors =
      summary->errors + (werror ? summary->warnings : 0);
  std::fprintf(stderr, "spnet_lint: %d file%s, %d error%s, %d warning%s\n",
               summary->files_linted, summary->files_linted == 1 ? "" : "s",
               summary->errors, summary->errors == 1 ? "" : "s",
               summary->warnings, summary->warnings == 1 ? "" : "s");
  return effective_errors > 0 ? 1 : 0;
}
