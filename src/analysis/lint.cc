#include "analysis/lint.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "analysis/fragments.h"
#include "analysis/predicate_graph.h"
#include "analysis/wardedness.h"
#include "ast/parser.h"

namespace vadalog {
namespace {

std::string PredicateDisplay(const SymbolTable& symbols, PredicateId p) {
  return symbols.PredicateName(p) + "/" +
         std::to_string(symbols.PredicateArity(p));
}

std::string PositionDisplay(const SymbolTable& symbols, Position pos) {
  return symbols.PredicateName(PositionPredicate(pos)) + "[" +
         std::to_string(PositionIndex(pos)) + "]";
}

Diagnostic MakeDiagnostic(std::string id, SourceLoc loc, std::string message) {
  Diagnostic d;
  d.id = std::move(id);
  const CheckInfo* info = FindCheck(d.id);
  d.severity = info ? info->severity : Severity::kWarning;
  d.loc = loc;
  d.message = std::move(message);
  return d;
}

std::string LocDisplay(SourceLoc loc, size_t rule_index) {
  return loc.valid() ? "line " + std::to_string(loc.line)
                     : "rule " + std::to_string(rule_index);
}

// ---- V003: unstratified negation ----------------------------------------

void CheckUnstratifiedNegation(const Program& program,
                               const PredicateGraph& graph,
                               std::vector<Diagnostic>* out) {
  auto witness = graph.UnstratifiedNegationWitness();
  if (!witness.has_value()) return;
  const SymbolTable& symbols = program.symbols();
  // Anchor at the negative atom that contributes the offending edge.
  SourceLoc loc;
  for (const Tgd& tgd : program.tgds()) {
    bool head_matches = std::any_of(
        tgd.head.begin(), tgd.head.end(),
        [&](const Atom& h) { return h.predicate == witness->head; });
    if (!head_matches) continue;
    for (const Atom& n : tgd.negative_body) {
      if (n.predicate == witness->negated) {
        loc = n.loc;
        break;
      }
    }
    if (loc.valid()) break;
  }
  Diagnostic d = MakeDiagnostic(
      "V003", loc,
      "predicate '" + symbols.PredicateName(witness->negated) +
          "' is negated inside a recursive cycle; the negation cannot be "
          "stratified");
  std::string cycle;
  for (PredicateId p : witness->cycle) {
    if (!cycle.empty()) cycle += " -> ";
    cycle += symbols.PredicateName(p);
  }
  cycle += " -[not]-> " + symbols.PredicateName(witness->head);
  d.witness.emplace_back("cycle", cycle);
  out->push_back(std::move(d));
}

// ---- V004: unsupported fragment -----------------------------------------

void CheckUnsupportedFragment(const Program& program,
                              const ProgramClassification& cls,
                              std::vector<Diagnostic>* out) {
  if (!cls.uses_negation || cls.datalog) return;
  SourceLoc loc;
  for (const Tgd& tgd : program.tgds()) {
    if (!tgd.negative_body.empty()) {
      loc = tgd.negative_body.front().loc;
      break;
    }
  }
  Diagnostic d = MakeDiagnostic(
      "V004", loc,
      "negation is only supported for plain Datalog programs; no engine "
      "can serve this combination");
  d.witness.emplace_back("uses-existentials",
                         cls.uses_existentials ? "true" : "false");
  out->push_back(std::move(d));
}

// ---- V101: non-warded rules ---------------------------------------------

void CheckWarded(const Program& program, std::vector<Diagnostic>* out) {
  WardednessReport report = CheckWardedness(program);
  if (report.is_warded) return;
  const SymbolTable& symbols = program.symbols();
  for (const WardednessViolation& w : report.witnesses) {
    const Tgd& tgd = program.tgds()[w.rule_index];
    std::string variables;
    for (Term v : w.dangerous) {
      if (!variables.empty()) variables += ", ";
      variables += "'" + VariableName(tgd.var_names, v) + "'";
    }
    Diagnostic d = MakeDiagnostic(
        "V101", tgd.loc,
        "dangerous variable" + std::string(w.dangerous.size() > 1 ? "s " : " ") +
            variables + " admit no ward (Definition 3.1)");
    d.witness.emplace_back("rule", tgd.ToString(symbols));
    for (size_t i = 0; i < w.dangerous.size(); ++i) {
      std::string positions;
      for (Position pos : w.dangerous_positions[i]) {
        if (!positions.empty()) positions += ", ";
        positions += PositionDisplay(symbols, pos);
      }
      d.witness.emplace_back(
          "dangerous:" + VariableName(tgd.var_names, w.dangerous[i]),
          "all body occurrences affected: " + positions);
    }
    for (size_t i = 0; i < w.candidate_failures.size(); ++i) {
      std::string why;
      if (w.candidate_failures[i] ==
          WardednessViolation::CandidateFailure::kMissesDangerous) {
        why = "misses a dangerous variable";
      } else {
        why = "shares non-harmless '" +
              VariableName(tgd.var_names, w.shared_variable[i]) +
              "' with the rest of the body";
      }
      d.witness.emplace_back("body[" + std::to_string(i) + "]", why);
    }
    out->push_back(std::move(d));
  }
}

// ---- V102: fragment downgrade -------------------------------------------

void CheckFragmentDowngrade(const Program& program,
                            const PredicateGraph& graph,
                            const ProgramClassification& cls,
                            std::vector<Diagnostic>* out) {
  if (!cls.warded || cls.piecewise_linear) return;
  // Anchor at the first rule with more than one recursive body atom (the
  // Definition 4.1 offender).
  SourceLoc loc;
  std::string rule_text;
  size_t recursive_atoms = 0;
  for (const Tgd& tgd : program.tgds()) {
    size_t count = RecursiveBodyAtomCount(tgd, graph);
    if (count > 1) {
      loc = tgd.loc;
      rule_text = tgd.ToString(program.symbols());
      recursive_atoms = count;
      break;
    }
  }
  std::string message =
      cls.pwl_after_linearization
          ? "program is piece-wise linear only after linearization; direct "
            "proof search loses the polynomial node-width bound"
          : "program is warded but not piece-wise linear; proof search "
            "falls back to the exponential node-width bound";
  Diagnostic d = MakeDiagnostic("V102", loc, std::move(message));
  d.witness.emplace_back("bucket", cls.RecursionBucket());
  if (recursive_atoms > 0) {
    d.witness.emplace_back("rule", rule_text);
    d.witness.emplace_back("recursive-body-atoms",
                           std::to_string(recursive_atoms));
  }
  out->push_back(std::move(d));
}

// ---- V201: singleton variables ------------------------------------------

void CheckSingletons(const Program& program, std::vector<Diagnostic>* out) {
  for (size_t rule_index = 0; rule_index < program.tgds().size();
       ++rule_index) {
    const Tgd& tgd = program.tgds()[rule_index];
    if (tgd.var_names == nullptr) continue;  // synthetic rule: names unknown
    std::unordered_map<uint64_t, size_t> occurrences;
    std::unordered_map<uint64_t, SourceLoc> first_loc;
    std::unordered_set<uint64_t> in_body;
    auto visit = [&](const std::vector<Atom>& atoms, bool body) {
      for (const Atom& a : atoms) {
        for (Term t : a.args) {
          if (!t.is_variable()) continue;
          ++occurrences[t.index()];
          if (body) in_body.insert(t.index());
          first_loc.emplace(t.index(), a.loc);
        }
      }
    };
    visit(tgd.body, true);
    visit(tgd.negative_body, true);
    visit(tgd.head, false);
    // Deterministic order: by variable index. Head-only singletons are
    // existentials — intentional, never flagged. Wildcards parse as fresh
    // variables named "_".
    std::map<uint64_t, size_t> ordered(occurrences.begin(), occurrences.end());
    for (const auto& [index, count] : ordered) {
      if (count != 1 || in_body.count(index) == 0) continue;
      std::string name = VariableName(tgd.var_names, Term::Variable(index));
      if (name == "_") continue;
      Diagnostic d = MakeDiagnostic(
          "V201", first_loc.at(index),
          "variable '" + name +
              "' occurs only once in this rule; use '_' for a don't-care");
      d.witness.emplace_back("rule", tgd.ToString(program.symbols()));
      out->push_back(std::move(d));
    }
  }
  for (const ConjunctiveQuery& query : program.queries()) {
    if (query.var_names == nullptr) continue;
    std::unordered_map<uint64_t, size_t> occurrences;
    std::unordered_map<uint64_t, SourceLoc> first_loc;
    for (const Atom& a : query.atoms) {
      for (Term t : a.args) {
        if (!t.is_variable()) continue;
        ++occurrences[t.index()];
        first_loc.emplace(t.index(), a.loc);
      }
    }
    std::unordered_set<uint64_t> output;
    for (Term t : query.output) {
      if (t.is_variable()) output.insert(t.index());
    }
    std::map<uint64_t, size_t> ordered(occurrences.begin(), occurrences.end());
    for (const auto& [index, count] : ordered) {
      if (count != 1 || output.count(index) > 0) continue;
      std::string name = VariableName(query.var_names, Term::Variable(index));
      if (name == "_") continue;
      Diagnostic d = MakeDiagnostic(
          "V201", first_loc.at(index),
          "variable '" + name +
              "' occurs only once in this query; use '_' for a don't-care");
      d.witness.emplace_back("query", query.ToString(program.symbols()));
      out->push_back(std::move(d));
    }
  }
}

// ---- V202: unsafe queries -----------------------------------------------

void CheckUnsafeQueries(const Program& program, std::vector<Diagnostic>* out) {
  for (const ConjunctiveQuery& query : program.queries()) {
    std::unordered_set<Term> bound;
    for (const Atom& a : query.atoms) {
      for (Term t : a.args) {
        if (t.is_variable()) bound.insert(t);
      }
    }
    for (Term t : query.output) {
      if (!t.is_variable() || bound.count(t) > 0) continue;
      Diagnostic d = MakeDiagnostic(
          "V202", query.loc,
          "query output variable '" + VariableName(query.var_names, t) +
              "' is not bound by any query atom");
      d.witness.emplace_back("query", query.ToString(program.symbols()));
      out->push_back(std::move(d));
    }
  }
}

// ---- V301/V302: dead predicates -----------------------------------------

void CheckDeadPredicates(const Program& program,
                         std::vector<Diagnostic>* out) {
  const SymbolTable& symbols = program.symbols();

  // Where each predicate is first defined (head or fact), for anchoring.
  std::unordered_map<PredicateId, SourceLoc> defined_at;
  std::vector<PredicateId> defined_order;
  auto define = [&](PredicateId p, SourceLoc loc) {
    if (defined_at.emplace(p, loc).second) defined_order.push_back(p);
  };
  std::unordered_set<PredicateId> read;
  for (const Tgd& tgd : program.tgds()) {
    for (const Atom& a : tgd.body) read.insert(a.predicate);
    for (const Atom& a : tgd.negative_body) read.insert(a.predicate);
    for (const Atom& a : tgd.head) define(a.predicate, tgd.loc);
  }
  for (const Atom& fact : program.facts()) define(fact.predicate, fact.loc);
  for (const ConjunctiveQuery& query : program.queries()) {
    for (const Atom& a : query.atoms) read.insert(a.predicate);
  }

  // V301 — only meaningful when the program says what its outputs are:
  // without a query, every derived predicate is a potential output.
  if (!program.queries().empty()) {
    for (PredicateId p : defined_order) {
      if (read.count(p) > 0) continue;
      out->push_back(MakeDiagnostic(
          "V301", defined_at.at(p),
          "predicate '" + PredicateDisplay(symbols, p) +
              "' is never read by any rule body or query"));
    }
  }

  // V302 — supported-predicate fixpoint. Extensional predicates (never in
  // a head) count as supported even without facts in this file: the EDB
  // may arrive later (daemon ADD_FACTS). An intensional predicate outside
  // the fixpoint can never be derived by any input.
  std::unordered_set<PredicateId> intensional = program.IntensionalPredicates();
  std::unordered_set<PredicateId> supported;
  for (PredicateId p : program.SchemaPredicates()) {
    if (intensional.count(p) == 0) supported.insert(p);
  }
  for (const Atom& fact : program.facts()) supported.insert(fact.predicate);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Tgd& tgd : program.tgds()) {
      bool body_supported = std::all_of(
          tgd.body.begin(), tgd.body.end(), [&](const Atom& a) {
            return supported.count(a.predicate) > 0;
          });
      if (!body_supported) continue;
      for (const Atom& h : tgd.head) {
        if (supported.insert(h.predicate).second) changed = true;
      }
    }
  }
  for (PredicateId p : defined_order) {
    if (intensional.count(p) == 0 || supported.count(p) > 0) continue;
    out->push_back(MakeDiagnostic(
        "V302", defined_at.at(p),
        "predicate '" + PredicateDisplay(symbols, p) +
            "' can never be derived: no rule chain grounds it in facts or "
            "extensional input"));
  }
}

// ---- V401/V402: duplicate and subsumed rules ----------------------------

// Canonical serialization with variables renumbered in first-occurrence
// order, so alpha-equivalent rules collide.
std::string CanonicalRule(const Tgd& tgd) {
  std::unordered_map<uint64_t, uint64_t> rename;
  std::string out;
  auto emit = [&](const std::vector<Atom>& atoms) {
    for (const Atom& a : atoms) {
      out += std::to_string(a.predicate) + "(";
      for (Term t : a.args) {
        if (t.is_variable()) {
          auto [it, inserted] = rename.emplace(t.index(), rename.size());
          out += "v" + std::to_string(it->second);
        } else {
          out += DebugString(t);
        }
        out += ",";
      }
      out += ")";
    }
  };
  emit(tgd.body);
  out += "|not|";
  emit(tgd.negative_body);
  out += "|head|";
  emit(tgd.head);
  return out;
}

// Does `general` subsume `specific`? True when some substitution θ on
// general's variables maps its head onto specific's head and every body
// atom into specific's body. Restricted to single-head rules without
// negation (the common case; anything else is skipped conservatively).
// With `renaming`, θ must map variables one-to-one onto variables.
bool MatchAtoms(const Atom& from, const Atom& to, bool renaming,
                std::unordered_map<uint64_t, Term>* theta) {
  if (from.predicate != to.predicate || from.args.size() != to.args.size()) {
    return false;
  }
  std::vector<std::pair<uint64_t, bool>> added;  // (key, was-new) for undo
  for (size_t i = 0; i < from.args.size(); ++i) {
    Term f = from.args[i], t = to.args[i];
    if (!f.is_variable()) {
      if (f != t) {
        for (auto& [key, was_new] : added) {
          if (was_new) theta->erase(key);
        }
        return false;
      }
      continue;
    }
    bool clash = false;
    if (renaming) {
      // A variable image that is a constant, or already the image of
      // another variable, breaks the one-to-one renaming.
      clash = !t.is_variable() ||
              std::any_of(theta->begin(), theta->end(), [&](const auto& kv) {
                return kv.first != f.index() && kv.second == t;
              });
    }
    auto [it, inserted] = theta->emplace(f.index(), t);
    added.emplace_back(f.index(), inserted);
    if (clash || (!inserted && it->second != t)) {
      for (auto& [key, was_new] : added) {
        if (was_new) theta->erase(key);
      }
      return false;
    }
  }
  return true;
}

bool MatchBody(const std::vector<Atom>& general,
               const std::vector<Atom>& specific, size_t next, bool renaming,
               std::unordered_map<uint64_t, Term>* theta) {
  if (next == general.size()) return true;
  for (const Atom& target : specific) {
    std::unordered_map<uint64_t, Term> saved = *theta;
    if (MatchAtoms(general[next], target, renaming, theta) &&
        MatchBody(general, specific, next + 1, renaming, theta)) {
      return true;
    }
    *theta = std::move(saved);
  }
  return false;
}

bool Subsumes(const Tgd& general, const Tgd& specific, bool renaming) {
  if (general.head.size() != 1 || specific.head.size() != 1 ||
      !general.negative_body.empty() || !specific.negative_body.empty()) {
    return false;
  }
  std::unordered_map<uint64_t, Term> theta;
  if (!MatchAtoms(general.head[0], specific.head[0], renaming, &theta)) {
    return false;
  }
  return MatchBody(general.body, specific.body, 0, renaming, &theta);
}

// Equal up to variable renaming and body order: a one-to-one renaming maps
// one rule's head onto the other's and its body into a body of the same
// size (distinct atoms stay distinct under a renaming, so into is onto).
bool SameUpToRenamingAndOrder(const Tgd& a, const Tgd& b) {
  return a.body.size() == b.body.size() && Subsumes(a, b, /*renaming=*/true);
}

void CheckRedundantRules(const Program& program,
                         std::vector<Diagnostic>* out) {
  const std::vector<Tgd>& tgds = program.tgds();
  std::unordered_map<std::string, size_t> canonical_first;
  std::vector<bool> duplicate(tgds.size(), false);
  for (size_t i = 0; i < tgds.size(); ++i) {
    auto [it, inserted] = canonical_first.emplace(CanonicalRule(tgds[i]), i);
    if (inserted) continue;
    duplicate[i] = true;
    const Tgd& first = tgds[it->second];
    Diagnostic d = MakeDiagnostic(
        "V401", tgds[i].loc,
        "rule duplicates the rule at " + LocDisplay(first.loc, it->second) +
            " up to variable renaming");
    d.witness.emplace_back("rule", tgds[i].ToString(program.symbols()));
    d.witness.emplace_back("first-occurrence",
                           LocDisplay(first.loc, it->second));
    out->push_back(std::move(d));
  }
  // Rule j makes rule i redundant when it subsumes i, unless i subsumes
  // j right back and is the one to keep — of two rules that subsume each
  // other, the one with fewer body atoms, then the earlier one. So each
  // pair is reported once, and deleting every reported rule keeps a rule
  // of each set of mutually subsuming ones.
  auto preferred = [&tgds](size_t a, size_t b) {
    return tgds[a].body.size() != tgds[b].body.size()
               ? tgds[a].body.size() < tgds[b].body.size()
               : a < b;
  };
  for (size_t i = 0; i < tgds.size(); ++i) {
    if (duplicate[i]) continue;
    for (size_t j = 0; j < tgds.size(); ++j) {
      if (i == j || duplicate[j]) continue;
      if (!Subsumes(tgds[j], tgds[i], /*renaming=*/false)) continue;
      bool mutual = Subsumes(tgds[i], tgds[j], /*renaming=*/false);
      if (mutual && preferred(i, j)) continue;
      bool same = mutual && SameUpToRenamingAndOrder(tgds[j], tgds[i]);
      std::string other = LocDisplay(tgds[j].loc, j);
      Diagnostic d =
          same ? MakeDiagnostic("V401", tgds[i].loc,
                                "rule duplicates the rule at " + other +
                                    " up to variable renaming and body order")
               : MakeDiagnostic("V402", tgds[i].loc,
                                "rule is subsumed by the more general rule "
                                "at " + other +
                                    " and can never derive anything new");
      d.witness.emplace_back("rule", tgds[i].ToString(program.symbols()));
      d.witness.emplace_back(same ? "first-occurrence" : "subsumed-by", other);
      out->push_back(std::move(d));
      break;
    }
  }
}

void SortDiagnostics(std::vector<Diagnostic>* diagnostics) {
  std::stable_sort(diagnostics->begin(), diagnostics->end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.loc.line != b.loc.line) {
                       return a.loc.line < b.loc.line;
                     }
                     if (a.loc.column != b.loc.column) {
                       return a.loc.column < b.loc.column;
                     }
                     return a.id < b.id;
                   });
}

}  // namespace

LintResult LintProgram(const Program& program, std::string file_name) {
  LintResult result;
  result.file.file = std::move(file_name);
  std::vector<Diagnostic>* out = &result.file.diagnostics;

  PredicateGraph graph(program);
  ProgramClassification cls = ClassifyProgram(program);
  result.classification = cls;

  CheckUnstratifiedNegation(program, graph, out);
  CheckUnsupportedFragment(program, cls, out);
  CheckWarded(program, out);
  CheckFragmentDowngrade(program, graph, cls, out);
  CheckSingletons(program, out);
  CheckUnsafeQueries(program, out);
  CheckDeadPredicates(program, out);
  CheckRedundantRules(program, out);

  SortDiagnostics(out);
  return result;
}

LintResult LintSource(std::string_view text, std::string file_name) {
  ParseResult parsed = ParseProgram(text);
  if (!parsed.ok()) {
    LintResult result;
    result.file.file = std::move(file_name);
    result.file.source = std::string(text);
    // Strip the parser's own "line N: " prefix; the location carries it.
    std::string message = parsed.error;
    if (message.rfind("line ", 0) == 0) {
      size_t colon = message.find(": ");
      if (colon != std::string::npos) message = message.substr(colon + 2);
    }
    // Arity overflows are lint-catalogued in their own right (V002); the
    // parser phrases them with the kMaxArity bound.
    bool arity = message.find("the maximum is 65535") != std::string::npos;
    result.file.diagnostics.push_back(
        MakeDiagnostic(arity ? "V002" : "V001", parsed.error_loc,
                       std::move(message)));
    return result;
  }
  LintResult result = LintProgram(*parsed.program, std::move(file_name));
  result.file.source = std::string(text);
  return result;
}

}  // namespace vadalog
