#include "rewriting/pwl_to_datalog.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "analysis/fragments.h"
#include "analysis/predicate_graph.h"
#include "engine/resolution.h"
#include "engine/state.h"

namespace vadalog {
namespace {

/// Builder context: translates exploration states (with sentinel nulls as
/// frozen output variables) into Datalog rules over fresh C[·] predicates.
class RewriteBuilder {
 public:
  RewriteBuilder(const Program& input, const RewriteOptions& options,
                 RewriteResult* result)
      : input_(input), options_(options), result_(result) {
    // Clone symbols so constant/predicate ids stay aligned.
    const SymbolTable& symbols = input.symbols();
    for (size_t i = 0; i < symbols.num_constants(); ++i) {
      out_.symbols().InternConstant(symbols.ConstantName(Term::Constant(i)));
    }
    for (size_t i = 0; i < symbols.num_predicates(); ++i) {
      PredicateId id = static_cast<PredicateId>(i);
      out_.symbols().InternPredicate(symbols.PredicateName(id),
                                     symbols.PredicateArity(id));
    }
    intensional_ = input.IntensionalPredicates();
  }

  /// Runs the exploration from the frozen initial state; returns the goal
  /// predicate (C[S0]) and its sentinel pre-images in S0-input space.
  bool Run(const ConjunctiveQuery& query) {
    size_t width = options_.node_width;
    if (width == 0) {
      PredicateGraph graph(input_);
      width = NodeWidthBoundPwl(query.atoms.size(), input_, graph);
    }
    width_ = width;
    max_chunk_ = options_.max_chunk == 0
                     ? width
                     : std::min(options_.max_chunk, width);

    // Freeze distinct output variables as sentinel nulls.
    Substitution freeze;
    std::vector<Term> output_sentinels;  // sentinel per distinct output var
    std::vector<Term> distinct_outputs;
    for (Term t : query.output) {
      if (t.is_variable() && freeze.count(t) == 0) {
        Term sentinel = Term::Null(freeze.size());
        freeze.emplace(t, sentinel);
        distinct_outputs.push_back(t);
        output_sentinels.push_back(sentinel);
      }
    }
    std::vector<Atom> initial = ApplySubstitution(freeze, query.atoms);

    std::unordered_map<Term, Term> mapping;
    CanonicalState s0 =
        Canonicalize(std::move(initial), /*rename_nulls=*/true, &mapping);
    if (s0.atoms.size() > width_) return false;
    PredicateId c0 = StateFor(s0);

    // Goal rule: Goal(output terms) :- C[S0](args).
    PredicateId goal = out_.symbols().MakeFreshPredicate(
        "Goal", static_cast<uint32_t>(query.output.size()));
    {
      Tgd rule;
      uint64_t next_var = 0;
      std::unordered_map<Term, Term> tau;  // distinct output var -> rule var
      Atom head(goal, {});
      for (Term t : query.output) {
        if (t.is_constant()) {
          head.args.push_back(t);
        } else {
          auto [it, inserted] = tau.try_emplace(t, Term::Variable(next_var));
          if (inserted) ++next_var;
          head.args.push_back(it->second);
        }
      }
      // C[S0] arguments: canonical sentinel j corresponds to the distinct
      // output variable whose sentinel maps to Null(j).
      uint32_t arity = out_.symbols().PredicateArity(c0);
      std::vector<Term> args(arity);
      for (size_t i = 0; i < output_sentinels.size(); ++i) {
        auto it = mapping.find(output_sentinels[i]);
        if (it == mapping.end()) continue;  // output var absent from body
        args[it->second.index()] = tau.at(distinct_outputs[i]);
      }
      // Any unfilled argument would be unsafe; sentinels always occur in
      // S0's atoms, so this only triggers for output vars missing from the
      // query body (ill-formed CQ) — bail out.
      for (Term t : args) {
        if (t == Term()) return false;
      }
      Atom call(c0, std::move(args));
      rule.head.push_back(std::move(head));
      rule.body.push_back(std::move(call));
      EmitRule(std::move(rule));
    }

    goal_query_.output.clear();
    goal_query_.atoms.clear();
    {
      std::vector<Term> vars;
      for (size_t i = 0; i < query.output.size(); ++i) {
        vars.push_back(Term::Variable(i));
      }
      goal_query_.atoms.push_back(Atom(goal, vars));
      goal_query_.output = vars;
    }

    // BFS over canonical states.
    while (!queue_.empty()) {
      if (options_.max_states != 0 &&
          result_->states_explored >= options_.max_states) {
        result_->budget_exhausted = true;
        return false;
      }
      CanonicalState state = std::move(queue_.front());
      queue_.pop_front();
      ++result_->states_explored;
      Expand(state);
    }
    return true;
  }

  Program TakeProgram() { return std::move(out_); }
  ConjunctiveQuery goal_query() const { return goal_query_; }

 private:
  /// Registers (or finds) the C[·] predicate of a canonical state; new
  /// states are enqueued. Arity = number of distinct sentinels.
  PredicateId StateFor(const CanonicalState& state) {
    auto it = predicate_of_.find(state.encoding);
    if (it != predicate_of_.end()) return it->second;
    uint64_t sentinels = 0;
    for (const Atom& a : state.atoms) {
      for (Term t : a.args) {
        if (t.is_null()) sentinels = std::max(sentinels, t.index() + 1);
      }
    }
    PredicateId pred = out_.symbols().MakeFreshPredicate(
        "C", static_cast<uint32_t>(sentinels));
    predicate_of_.emplace(state.encoding, pred);
    queue_.push_back(state);
    return pred;
  }

  void EmitRule(Tgd rule) {
    std::string signature = rule.ToString(out_.symbols());
    if (emitted_.insert(std::move(signature)).second) {
      out_.AddTgd(std::move(rule));
      ++result_->rules_emitted;
    }
  }

  /// Converts an exploration-space term (variable / sentinel null /
  /// constant) into a rule variable or constant, allocating rule variables
  /// on demand.
  Term Tau(Term t, std::unordered_map<Term, Term>* tau, uint64_t* next_var) {
    if (t.is_constant()) return t;
    auto [it, inserted] = tau->try_emplace(t, Term::Variable(*next_var));
    if (inserted) ++(*next_var);
    return it->second;
  }

  Atom TauAtom(const Atom& a, std::unordered_map<Term, Term>* tau,
               uint64_t* next_var) {
    Atom out;
    out.predicate = a.predicate;
    out.args.reserve(a.args.size());
    for (Term t : a.args) out.args.push_back(Tau(t, tau, next_var));
    return out;
  }

  void Expand(const CanonicalState& state) {
    PredicateId c_pred = predicate_of_.at(state.encoding);
    uint32_t arity = out_.symbols().PredicateArity(c_pred);

    std::vector<Atom> edb_part;
    std::vector<Atom> idb_part;
    for (const Atom& a : state.atoms) {
      if (intensional_.count(a.predicate) > 0) {
        idb_part.push_back(a);
      } else {
        edb_part.push_back(a);
      }
    }

    if (!edb_part.empty()) {
      // Extensional atoms can only ever be leaves: retire them all.
      ExpandRetire(c_pred, arity, edb_part, idb_part);
    } else {
      ExpandResolve(state, c_pred, arity);
      // An intensional atom may also be a leaf (the database of the
      // general CQAns problem can hold facts over intensional
      // predicates); retire one atom at a time — sequences compose.
      for (size_t i = 0; i < state.atoms.size(); ++i) {
        std::vector<Atom> leaf = {state.atoms[i]};
        std::vector<Atom> rest;
        for (size_t j = 0; j < state.atoms.size(); ++j) {
          if (j != i) rest.push_back(state.atoms[j]);
        }
        ExpandRetire(c_pred, arity, leaf, rest);
      }
    }
  }

  /// Retire step: the atoms of `edb_part` become proof-tree leaves; the
  /// variables shared with the remainder are promoted to frozen outputs
  /// (specialization, Definition 4.5, followed by a leaf decomposition,
  /// Definition 4.4).
  void ExpandRetire(PredicateId c_pred, uint32_t arity,
                    const std::vector<Atom>& edb_part,
                    const std::vector<Atom>& idb_part) {
    // Promote shared variables to fresh sentinels.
    std::unordered_set<Term> edb_vars = VariablesOf(edb_part);
    std::unordered_set<Term> idb_vars = VariablesOf(idb_part);
    uint64_t next_sentinel = arity;
    Substitution promote;
    for (Term v : edb_vars) {
      if (idb_vars.count(v) > 0) {
        promote.emplace(v, Term::Null(next_sentinel++));
      }
    }
    std::vector<Atom> child_atoms = ApplySubstitution(promote, idb_part);

    std::unordered_map<Term, Term> mapping;
    CanonicalState child =
        Canonicalize(std::move(child_atoms), /*rename_nulls=*/true, &mapping);

    // Rule: C[S](sentinels) :- edb atoms, C[child](pre-images).
    Tgd rule;
    uint64_t next_var = 0;
    std::unordered_map<Term, Term> tau;
    Atom head(c_pred, {});
    for (uint32_t i = 0; i < arity; ++i) {
      head.args.push_back(Tau(Term::Null(i), &tau, &next_var));
    }
    rule.head.push_back(std::move(head));
    for (const Atom& a : edb_part) {
      rule.body.push_back(TauAtom(a, &tau, &next_var));
    }
    if (!child.atoms.empty()) {
      PredicateId child_pred = StateFor(child);
      uint32_t child_arity = out_.symbols().PredicateArity(child_pred);
      // Pre-image of each canonical child sentinel in state space: either
      // one of S's sentinels, or a promoted shared variable.
      std::vector<Term> call_args(child_arity, Term());
      bool complete = true;
      auto note = [&](Term pre, Term image) {
        auto it = mapping.find(image);
        if (it == mapping.end()) return;  // image absent from child
        call_args[it->second.index()] = Tau(pre, &tau, &next_var);
      };
      for (uint32_t i = 0; i < arity; ++i) {
        note(Term::Null(i), Term::Null(i));
      }
      for (const auto& [var, sentinel] : promote) {
        note(var, sentinel);
      }
      for (Term t : call_args) {
        if (t == Term()) complete = false;
      }
      if (!complete) return;  // defensive: unsafe rule, skip
      rule.body.push_back(Atom(child_pred, std::move(call_args)));
    }
    EmitRule(std::move(rule));
  }

  /// Resolution step: chunk-based resolution (Definition 4.3) with frozen
  /// sentinels acting as rigid names; one rule per resolvent.
  void ExpandResolve(const CanonicalState& state, PredicateId c_pred,
                     uint32_t arity) {
    uint64_t fresh_base = 0;
    for (const Atom& a : state.atoms) {
      for (Term t : a.args) {
        if (t.is_variable()) fresh_base = std::max(fresh_base, t.index() + 1);
      }
    }
    for (size_t tgd_index = 0; tgd_index < input_.tgds().size(); ++tgd_index) {
      std::vector<Resolvent> resolvents = ResolveWithTgd(
          state.atoms, input_, tgd_index, fresh_base, max_chunk_);
      for (Resolvent& r : resolvents) {
        if (r.atoms.size() > width_) continue;  // Theorem 4.8 pruning
        std::unordered_map<Term, Term> mapping;
        CanonicalState child =
            Canonicalize(std::move(r.atoms), /*rename_nulls=*/true, &mapping);
        Tgd rule;
        uint64_t next_var = 0;
        std::unordered_map<Term, Term> tau;
        Atom head(c_pred, {});
        for (uint32_t i = 0; i < arity; ++i) {
          head.args.push_back(Tau(Term::Null(i), &tau, &next_var));
        }
        rule.head.push_back(std::move(head));
        if (child.atoms.empty()) {
          // A resolvent can only be empty if the TGD body was empty, which
          // the parser forbids; skip defensively.
          continue;
        }
        PredicateId child_pred = StateFor(child);
        uint32_t child_arity = out_.symbols().PredicateArity(child_pred);
        std::vector<Term> call_args(child_arity, Term());
        bool complete = true;
        for (uint32_t i = 0; i < arity; ++i) {
          auto it = mapping.find(Term::Null(i));
          if (it == mapping.end()) continue;
          call_args[it->second.index()] = Tau(Term::Null(i), &tau, &next_var);
        }
        for (Term t : call_args) {
          if (t == Term()) complete = false;
        }
        if (!complete) continue;  // sentinel vanished: cannot happen, skip
        rule.body.push_back(Atom(child_pred, std::move(call_args)));
        EmitRule(std::move(rule));
      }
    }
  }

  const Program& input_;
  const RewriteOptions& options_;
  RewriteResult* result_;

  Program out_;
  std::unordered_set<PredicateId> intensional_;
  size_t width_ = 0;
  size_t max_chunk_ = 0;
  ConjunctiveQuery goal_query_;

  struct EncodingHash {
    size_t operator()(const std::vector<uint64_t>& e) const {
      return HashRange(e.begin(), e.end());
    }
  };
  std::unordered_map<std::vector<uint64_t>, PredicateId, EncodingHash>
      predicate_of_;
  std::deque<CanonicalState> queue_;
  std::unordered_set<std::string> emitted_;
};

}  // namespace

RewriteResult RewritePwlWardedToDatalog(const Program& program,
                                        const ConjunctiveQuery& query,
                                        const RewriteOptions& options) {
  RewriteResult result;
  RewriteBuilder builder(program, options, &result);
  bool ok = builder.Run(query);
  result.goal = builder.goal_query();
  if (ok) {
    result.datalog = builder.TakeProgram();
  }
  return result;
}

}  // namespace vadalog
