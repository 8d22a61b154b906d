// vadalog_cli — command-line front end for the reasoner.
//
// Usage:
//   vadalog_cli [options] <program-file>
//     --engine=auto|chase|linear|alternating   decision/enumeration engine
//     --no-subsumption                         disable subsumption-based
//                                              state pruning
//     --analyze                                print the fragment analysis
//     --lint                                   print lint diagnostics and
//                                              exit (nonzero on errors)
//     --explain                                print a linear proof tree
//                                              for each certain answer
//     --dot-chase                              dump the chase graph (dot)
//     --data=facts.tsv                         load extra TSV facts
//                                              (predicate\targ1\targ2...)
//     --version                                print the version and exit
//
// The program file uses the surface syntax of ast/parser.h (rules, facts,
// '?(..) :- ..' queries). Every query in the file is answered.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/lint.h"
#include "ast/parser.h"
#include "base/version.h"
#include "chase/chase.h"
#include "chase/chase_graph.h"
#include "storage/homomorphism.h"
#include "storage/io.h"
#include "vadalog/reasoner.h"

using namespace vadalog;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--engine=auto|chase|linear|alternating] "
               "[--no-subsumption] "
               "[--analyze] [--lint] [--explain] [--dot-chase] "
               "<program-file>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string data_path;
  bool analyze = false;
  bool lint = false;
  bool explain = false;
  bool dot_chase = false;
  EngineChoice engine = EngineChoice::kAuto;
  bool subsumption = true;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--version") == 0) {
      std::printf("vadalog_cli %s\n", kVersionString);
      return 0;
    } else if (std::strncmp(arg, "--data=", 7) == 0) {
      data_path = arg + 7;
    } else if (std::strcmp(arg, "--analyze") == 0) {
      analyze = true;
    } else if (std::strcmp(arg, "--lint") == 0) {
      lint = true;
    } else if (std::strcmp(arg, "--explain") == 0) {
      explain = true;
    } else if (std::strcmp(arg, "--dot-chase") == 0) {
      dot_chase = true;
    } else if (std::strcmp(arg, "--no-subsumption") == 0) {
      subsumption = false;
    } else if (std::strncmp(arg, "--engine=", 9) == 0) {
      const char* value = arg + 9;
      if (std::strcmp(value, "auto") == 0) {
        engine = EngineChoice::kAuto;
      } else if (std::strcmp(value, "chase") == 0) {
        engine = EngineChoice::kChase;
      } else if (std::strcmp(value, "linear") == 0) {
        engine = EngineChoice::kLinearProof;
      } else if (std::strcmp(value, "alternating") == 0) {
        engine = EngineChoice::kAlternatingProof;
      } else {
        return Usage(argv[0]);
      }
    } else if (arg[0] == '-') {
      return Usage(argv[0]);
    } else {
      path = arg;
    }
  }
  if (path.empty()) return Usage(argv[0]);

  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();

  if (lint) {
    // Lint the unnormalized source: the Reasoner's single-head rewrite
    // would invent predicates and drop the source anchors.
    LintResult result = LintSource(buffer.str(), path);
    std::printf("%s", RenderText(result.file).c_str());
    return result.ok() ? 0 : 1;
  }

  ParseResult parsed = ParseProgram(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), parsed.error.c_str());
    return 1;
  }
  if (!data_path.empty()) {
    std::string io_error = LoadFactsTsvFile(data_path, &*parsed.program);
    if (!io_error.empty()) {
      std::fprintf(stderr, "%s: %s\n", data_path.c_str(), io_error.c_str());
      return 1;
    }
  }
  auto reasoner = std::make_unique<Reasoner>(std::move(*parsed.program));

  if (analyze) {
    std::printf("%s\n", reasoner->AnalysisReport().c_str());
  }

  if (dot_chase) {
    ChaseOptions options;
    options.record_provenance = true;
    ChaseResult chase =
        RunChase(reasoner->program(), reasoner->database(), options);
    ChaseGraph graph(chase, reasoner->database());
    std::printf("%s", graph.ToDot(reasoner->program()).c_str());
    return 0;
  }

  ReasonerOptions options;
  options.engine = engine;
  options.proof.subsumption = subsumption;
  const auto& queries = reasoner->program().queries();
  if (queries.empty()) {
    std::printf("(no queries in %s)\n", path.c_str());
    return 0;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    std::printf("query %zu: %s\n", i,
                queries[i].ToString(reasoner->program().symbols()).c_str());
    CertainAnswerSet result = reasoner->AnswerChecked(queries[i], options);
    if (!result.error.empty()) {
      // Scripted callers must be able to tell "unservable program" from
      // "empty answer set": one-line diagnostic on stderr, nonzero exit.
      std::fprintf(stderr, "%s: query %zu: %s\n", path.c_str(), i,
                   result.error.c_str());
      return 1;
    }
    if (!result.complete) {
      std::fprintf(stderr,
                   "%s: query %zu: warning: budget exhausted on %llu "
                   "candidate(s); the answers below are a sound subset\n",
                   path.c_str(), i,
                   static_cast<unsigned long long>(
                       result.budget_exhausted_candidates));
    }
    const std::vector<std::vector<Term>>& answers = result.answers;
    if (answers.empty()) {
      std::printf("  (no certain answers)\n");
    }
    for (const std::vector<Term>& tuple : answers) {
      std::printf("  %s\n", reasoner->TupleToString(tuple).c_str());
      if (explain) {
        std::string proof = reasoner->Explain(queries[i], tuple);
        if (!proof.empty()) {
          std::printf("  proof:\n");
          std::istringstream lines(proof);
          std::string line;
          while (std::getline(lines, line)) {
            std::printf("    %s\n", line.c_str());
          }
        }
      }
    }
  }
  return 0;
}
