// vadalog::Reasoner — the high-level public API tying the library together:
// parse a program, analyze its fragment memberships, load a database, and
// answer conjunctive queries with the engine matching the program's class.
//
// Quickstart:
//
//   auto reasoner = vadalog::Reasoner::FromText(R"(
//     t(X, Y) :- e(X, Y).
//     t(X, Z) :- e(X, Y), t(Y, Z).
//     e(a, b).  e(b, c).
//     ?(X) :- t(a, X).
//   )");
//   for (const std::string& row : reasoner->AnswerStrings(0)) { ... }

#ifndef VADALOG_VADALOG_REASONER_H_
#define VADALOG_VADALOG_REASONER_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/classify.h"
#include "analysis/wardedness.h"
#include "ast/program.h"
#include "chase/chase.h"
#include "engine/certain.h"
#include "storage/instance.h"

namespace vadalog {

/// Which decision/enumeration engine to use.
enum class EngineChoice : uint8_t {
  kAuto,         // linear search for WARD∩PWL, alternating for WARD, else chase
  kChase,        // materialize chase(D, Σ), evaluate (Proposition 2.1)
  kLinearProof,  // Section 4.3 bounded linear proof search
  kAlternatingProof,  // Section 4.3 alternating search (general WARD)
};

struct ReasonerOptions {
  EngineChoice engine = EngineChoice::kAuto;
  ChaseOptions chase;
  ProofSearchOptions proof;
};

class Reasoner {
 public:
  /// Parses a full program text (rules + facts + optional queries).
  /// Returns nullptr and sets `error` on parse failure.
  static std::unique_ptr<Reasoner> FromText(std::string_view text,
                                            std::string* error = nullptr);

  explicit Reasoner(Program program);

  /// The single-head-normalized program the engines run on.
  const Program& program() const { return program_; }

  /// The database built from the program's parsed facts (extendable).
  const Instance& database() const { return database_; }
  void AddFact(const Atom& fact) { database_.Insert(fact); }

  /// Parses surface-syntax clauses and inserts them as facts (program +
  /// database). Clauses that are not ground facts (rules, queries,
  /// non-ground "facts") are rejected and the whole batch is rolled back
  /// all-or-nothing: program vectors, database, AND the symbol-table
  /// generation the batch interned (fresh constant/predicate ids are
  /// released, so repeated failing batches keep the table flat).
  /// Returns an error message, or "" on success. On success,
  /// `delta_predicates` (when non-null) receives the deduplicated
  /// predicates of the facts actually inserted — facts already present
  /// do not count, so a no-op batch reports an empty delta and warm
  /// caches need not be touched at all. Mutates the reasoner: callers
  /// sharing it across threads must hold their write lock.
  std::string AddFactsText(std::string_view text,
                           std::vector<PredicateId>* delta_predicates =
                               nullptr);

  /// Parses one query clause ("?(X) :- ...") against this reasoner's
  /// symbol table without retaining it in the program. Exactly one query
  /// and nothing else may appear in `text`. Interns new constants, so it
  /// mutates the symbol table: same locking caveat as AddFactsText.
  std::optional<ConjunctiveQuery> ParseQuery(std::string_view text,
                                             std::string* error);

  /// Interns a constant by name (protocol answers arrive as strings).
  /// Mutates the symbol table: same locking caveat as AddFactsText.
  Term InternConstant(std::string_view name) {
    return program_.symbols().InternConstant(name);
  }

  /// Generation-scoped interning support for callers whose interning may
  /// turn out to be speculative (e.g. EXPLAIN answers naming constants
  /// the session has never seen): mark, intern, and — only if nothing
  /// else can hold the fresh ids — roll back. Same locking caveat as
  /// AddFactsText.
  SymbolTable::Generation MarkSymbolGeneration() const {
    return program_.symbols().MarkGeneration();
  }
  void RollbackSymbolGeneration(const SymbolTable::Generation& mark) {
    program_.symbols().RollbackGeneration(mark);
  }

  /// Fragment analysis of the normalized rule set.
  const ProgramClassification& classification() const {
    return classification_;
  }
  const WardednessReport& wardedness() const { return wardedness_; }

  /// Human-readable analysis summary (fragments, levels, width bounds).
  std::string AnalysisReport() const;

  /// Certain answers to a query (sorted, deduplicated tuples of constants).
  /// With proof-search budgets set (options.proof.max_states/max_millis)
  /// the answer set can be silently incomplete — use AnswerChecked to see
  /// whether any search gave up.
  ///
  /// The query entry points below are const and re-entrant: any number of
  /// threads may answer queries against one Reasoner concurrently, as
  /// long as no thread mutates it (AddFact*/ParseQuery/InternConstant) at
  /// the same time — the daemon's sessions guard exactly that split with
  /// a reader-writer lock. A ProofSearchCache passed via options is NOT
  /// covered by this guarantee (single concurrent user; see
  /// engine/search_cache.h).
  std::vector<std::vector<Term>> Answer(
      const ConjunctiveQuery& query,
      const ReasonerOptions& options = {}) const;

  /// Like Answer, but keeps the completeness signal: `complete` is false
  /// when a budget-exhausted search rejected a candidate without refuting
  /// it, or when a chase budget (options.chase max_steps/max_atoms/
  /// max_depth) cut the materialization short. Unbudgeted chase-based
  /// enumeration (kAuto/kChase, or stratified-negation programs) is always
  /// complete. `error` is set (and the answers empty) when no engine can
  /// serve the program at all, e.g. stratified negation outside Datalog.
  CertainAnswerSet AnswerChecked(const ConjunctiveQuery& query,
                                 const ReasonerOptions& options = {}) const;

  /// True when enumerations under `engine` are answered by materializing
  /// a model — chase(D, Σ) for kAuto/kChase, the stratified Datalog
  /// fixpoint for negation programs (whatever the engine) — rather than
  /// by proof search. Such answers depend on the database state only, so
  /// one materialization can serve a whole pool of queries.
  bool AnswersByMaterialization(EngineChoice engine) const;

  /// Certain answers to every query of `queries` from ONE materialization
  /// — chase(D, Σ) under `options`, or the stratified Datalog fixpoint for
  /// a negation program — which is dropped on return. One result per
  /// query, in order. AnswerChecked is this with a pool of one whenever
  /// AnswersByMaterialization holds for its engine.
  std::vector<CertainAnswerSet> AnswerAllByMaterialization(
      std::span<const ConjunctiveQuery> queries,
      const ChaseOptions& options = {}) const;

  /// Certain answers to the program's `index`-th parsed query.
  std::vector<std::vector<Term>> Answer(
      size_t query_index, const ReasonerOptions& options = {}) const;

  /// Rendered answers, e.g. "(a, b)".
  std::vector<std::string> AnswerStrings(
      size_t query_index, const ReasonerOptions& options = {}) const;

  /// Decides one candidate tuple with the engine chosen by `options`.
  bool IsCertain(const ConjunctiveQuery& query,
                 const std::vector<Term>& answer,
                 const ReasonerOptions& options = {}) const;

  /// Decides a candidate tuple with the linear proof search and, when it
  /// is a certain answer, returns the reconstructed linear proof tree as
  /// a human-readable explanation (Definition 4.6); empty string when the
  /// tuple is not certain.
  std::string Explain(const ConjunctiveQuery& query,
                      const std::vector<Term>& answer,
                      const ReasonerOptions& options = {}) const;

  /// Renders a tuple with this reasoner's symbol table.
  std::string TupleToString(const std::vector<Term>& tuple) const;

 private:
  EngineChoice ResolveEngine(EngineChoice requested) const;

  Program program_;
  Instance database_;
  ProgramClassification classification_;
  WardednessReport wardedness_;
};

}  // namespace vadalog

#endif  // VADALOG_VADALOG_REASONER_H_
