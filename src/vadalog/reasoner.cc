#include "vadalog/reasoner.h"

#include <algorithm>

#include "analysis/fragments.h"
#include "analysis/predicate_graph.h"
#include "ast/parser.h"
#include "datalog/seminaive.h"
#include "storage/homomorphism.h"

namespace vadalog {

std::unique_ptr<Reasoner> Reasoner::FromText(std::string_view text,
                                             std::string* error) {
  ParseResult parsed = ParseProgram(text);
  if (!parsed.ok()) {
    if (error != nullptr) *error = parsed.error;
    return nullptr;
  }
  return std::make_unique<Reasoner>(std::move(*parsed.program));
}

Reasoner::Reasoner(Program program) : program_(std::move(program)) {
  NormalizeToSingleHead(&program_, nullptr);
  database_ = DatabaseFromFacts(program_.facts());
  classification_ = ClassifyProgram(program_);
  wardedness_ = CheckWardedness(program_);
}

std::string Reasoner::AddFactsText(std::string_view text,
                                   std::vector<PredicateId>* delta_predicates) {
  size_t old_tgds = program_.tgds().size();
  size_t old_facts = program_.facts().size();
  size_t old_queries = program_.queries().size();
  // The batch's interning is one symbol-table generation: any failure
  // below releases the fresh ids along with the parsed clauses, so a
  // failed ADD_FACTS leaves no trace — not even in the symbol table.
  // Sound because the rolled-back clauses are the only holders of the
  // fresh ids (no database insert or query runs before the checks pass).
  SymbolTable::Generation generation = program_.symbols().MarkGeneration();
  std::string error = ParseInto(text, &program_);
  auto rollback = [&] {
    program_.tgds().resize(old_tgds);
    program_.facts().resize(old_facts);
    program_.queries().resize(old_queries);
    program_.symbols().RollbackGeneration(generation);
  };
  if (!error.empty()) {
    rollback();
    return error;
  }
  if (program_.tgds().size() != old_tgds ||
      program_.queries().size() != old_queries) {
    rollback();
    return "only ground facts may be added to a loaded program "
           "(found rules or queries)";
  }
  for (size_t i = old_facts; i < program_.facts().size(); ++i) {
    if (!program_.facts()[i].IsGround()) {
      rollback();
      return "facts must be ground (no variables)";
    }
  }
  for (size_t i = old_facts; i < program_.facts().size(); ++i) {
    if (database_.Insert(program_.facts()[i]) && delta_predicates != nullptr) {
      delta_predicates->push_back(program_.facts()[i].predicate);
    }
  }
  if (delta_predicates != nullptr) {
    std::sort(delta_predicates->begin(), delta_predicates->end());
    delta_predicates->erase(
        std::unique(delta_predicates->begin(), delta_predicates->end()),
        delta_predicates->end());
  }
  return "";
}

std::optional<ConjunctiveQuery> Reasoner::ParseQuery(std::string_view text,
                                                     std::string* error) {
  size_t old_tgds = program_.tgds().size();
  size_t old_facts = program_.facts().size();
  size_t old_queries = program_.queries().size();
  SymbolTable::Generation generation = program_.symbols().MarkGeneration();
  std::string parse_error = ParseInto(text, &program_);
  auto rollback = [&] {
    program_.tgds().resize(old_tgds);
    program_.facts().resize(old_facts);
    program_.queries().resize(old_queries);
  };
  if (!parse_error.empty()) {
    rollback();
    // A failed parse releases its interning generation too — nothing
    // holds the fresh ids.
    program_.symbols().RollbackGeneration(generation);
    if (error != nullptr) *error = parse_error;
    return std::nullopt;
  }
  if (program_.queries().size() != old_queries + 1 ||
      program_.tgds().size() != old_tgds ||
      program_.facts().size() != old_facts) {
    rollback();
    program_.symbols().RollbackGeneration(generation);
    if (error != nullptr) {
      *error = "expected exactly one query clause (\"?(X) :- ...\")";
    }
    return std::nullopt;
  }
  ConjunctiveQuery query = std::move(program_.queries().back());
  // The query itself is returned and may hold freshly interned constants,
  // so only the clause vectors are rolled back on success.
  rollback();
  return query;
}

std::string Reasoner::AnalysisReport() const {
  PredicateGraph graph(program_);
  std::string report;
  report += "rules: " + std::to_string(program_.tgds().size()) + "\n";
  report += "facts: " + std::to_string(database_.size()) + "\n";
  report += std::string("warded: ") +
            (classification_.warded ? "yes" : "no") + "\n";
  report += std::string("piece-wise linear: ") +
            (classification_.piecewise_linear
                 ? "yes"
                 : (classification_.pwl_after_linearization
                        ? "after linearization"
                        : "no")) +
            "\n";
  report += std::string("intensionally linear: ") +
            (classification_.intensionally_linear ? "yes" : "no") + "\n";
  report += std::string("datalog (FULL1): ") +
            (classification_.datalog ? "yes" : "no") + "\n";
  report += std::string("linear TGDs: ") +
            (classification_.linear_tgds ? "yes" : "no") + "\n";
  report += std::string("guarded: ") +
            (classification_.guarded ? "yes" : "no") + "\n";
  report += std::string("sticky: ") +
            (classification_.sticky ? "yes" : "no") + "\n";
  if (classification_.uses_negation) {
    report += "uses stratified negation: yes\n";
  }
  report += "max predicate level: " + std::to_string(graph.MaxLevel()) + "\n";
  report += "expected data complexity: ";
  if (classification_.warded && classification_.piecewise_linear) {
    report += "NLogSpace (Theorem 4.2)\n";
  } else if (classification_.warded) {
    report += "PTime (Proposition 3.2)\n";
  } else if (classification_.piecewise_linear) {
    report += "undecidable in general (Theorem 5.1)\n";
  } else {
    report += "undecidable in general\n";
  }
  return report;
}

EngineChoice Reasoner::ResolveEngine(EngineChoice requested) const {
  if (requested != EngineChoice::kAuto) return requested;
  if (classification_.warded && classification_.piecewise_linear) {
    return EngineChoice::kLinearProof;
  }
  if (classification_.warded) return EngineChoice::kAlternatingProof;
  return EngineChoice::kChase;
}

std::vector<std::vector<Term>> Reasoner::Answer(
    const ConjunctiveQuery& query, const ReasonerOptions& options) const {
  return AnswerChecked(query, options).answers;
}

bool Reasoner::AnswersByMaterialization(EngineChoice engine) const {
  // Enumeration in kAuto mode always materializes via the chase — the
  // proof searches are *decision* procedures; enumerating through them
  // means one exhaustive refutation per non-answer in dom(D)^k (they
  // remain available by explicit selection, and IsCertain uses them).
  return classification_.uses_negation || engine == EngineChoice::kAuto ||
         engine == EngineChoice::kChase;
}

CertainAnswerSet Reasoner::AnswerChecked(
    const ConjunctiveQuery& query, const ReasonerOptions& options) const {
  if (AnswersByMaterialization(options.engine)) {
    return std::move(
        AnswerAllByMaterialization({&query, 1}, options.chase).front());
  }
  bool use_alternating = options.engine == EngineChoice::kAlternatingProof;
  return CertainAnswersViaSearchChecked(program_, database_, query,
                                        use_alternating, options.proof);
}

std::vector<CertainAnswerSet> Reasoner::AnswerAllByMaterialization(
    std::span<const ConjunctiveQuery> queries,
    const ChaseOptions& options) const {
  if (!classification_.uses_negation) {
    return CertainAnswersViaChaseChecked(program_, database_, queries,
                                         options);
  }
  // Stratified negation: well-defined for Datalog programs only, via the
  // stratified bottom-up evaluator.
  std::vector<CertainAnswerSet> results(queries.size());
  if (!classification_.datalog) {
    for (CertainAnswerSet& result : results) {
      result.error =
          "stratified negation is only supported for Datalog (FULL1) "
          "programs; this program mixes negation with existential or "
          "multi-atom-head rules";
    }
    return results;
  }
  DatalogResult evaluated = EvaluateDatalog(program_, database_);
  for (size_t i = 0; i < queries.size(); ++i) {
    results[i].answers = EvaluateQuerySorted(queries[i], evaluated.instance);
    results[i].complete = evaluated.reached_fixpoint;
  }
  return results;
}

std::vector<std::vector<Term>> Reasoner::Answer(
    size_t query_index, const ReasonerOptions& options) const {
  if (query_index >= program_.queries().size()) return {};
  return Answer(program_.queries()[query_index], options);
}

std::vector<std::string> Reasoner::AnswerStrings(
    size_t query_index, const ReasonerOptions& options) const {
  std::vector<std::string> rendered;
  for (const std::vector<Term>& tuple : Answer(query_index, options)) {
    rendered.push_back(TupleToString(tuple));
  }
  return rendered;
}

bool Reasoner::IsCertain(const ConjunctiveQuery& query,
                         const std::vector<Term>& answer,
                         const ReasonerOptions& options) const {
  if (classification_.uses_negation) {
    // The chase and the proof searches ignore negative bodies, so for
    // negation programs the only sound decision route is the stratified
    // Datalog evaluator (and none at all outside Datalog).
    if (!classification_.datalog) return false;
    DatalogResult evaluated = EvaluateDatalog(program_, database_);
    std::vector<std::vector<Term>> all =
        EvaluateQuerySorted(query, evaluated.instance);
    return std::binary_search(all.begin(), all.end(), answer);
  }
  EngineChoice engine = ResolveEngine(options.engine);
  switch (engine) {
    case EngineChoice::kChase: {
      std::vector<std::vector<Term>> all =
          CertainAnswersViaChase(program_, database_, query, options.chase);
      return std::binary_search(all.begin(), all.end(), answer);
    }
    case EngineChoice::kLinearProof:
      return IsCertainViaLinearSearch(program_, database_, query, answer,
                                      options.proof);
    case EngineChoice::kAlternatingProof:
      return IsCertainViaAlternatingSearch(program_, database_, query, answer,
                                           options.proof);
    case EngineChoice::kAuto:
      break;  // unreachable
  }
  return false;
}

ProofSearchResult Reasoner::Explain(const ConjunctiveQuery& query,
                                    const std::vector<Term>& answer,
                                    std::string* proof,
                                    const ReasonerOptions& options) const {
  proof->clear();
  // The linear proof search ignores negative bodies: refusing (no
  // proof) is sound, running it on a negation program is not.
  if (classification_.uses_negation) return ProofSearchResult{};
  ProofExplanation explanation;
  ProofSearchResult result = LinearProofSearch(
      program_, database_, query, answer, options.proof, &explanation);
  if (result.accepted) *proof = explanation.ToString(program_);
  return result;
}

std::string Reasoner::TupleToString(const std::vector<Term>& tuple) const {
  std::string out = "(";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) out += ", ";
    out += program_.symbols().TermToString(tuple[i]);
  }
  out += ")";
  return out;
}

}  // namespace vadalog
