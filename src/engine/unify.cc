#include "engine/unify.h"

namespace vadalog {

void Unifier::Bind(Term v, Term to) {
  uint64_t i = v.index();
  if (i < kMaxNear) {
    if (i >= near_.size()) {
      size_t old = near_.size();
      near_.resize(i + 1);
      for (size_t k = old; k <= i; ++k) near_[k] = Term::Variable(k);
    }
    near_[i] = to;
  } else {
    far_.emplace_back(i, to);
  }
  journal_.push_back(v);
}

bool Unifier::Unify(Term a, Term b) {
  a = Resolve(a);
  b = Resolve(b);
  if (a == b) return true;
  if (a.is_variable()) {
    Bind(a, b);
    return true;
  }
  if (b.is_variable()) {
    Bind(b, a);
    return true;
  }
  return false;  // two distinct rigid terms
}

bool Unifier::UnifyAtoms(const Atom& a, const Atom& b, uint64_t b_offset) {
  if (a.predicate != b.predicate || a.args.size() != b.args.size()) {
    return false;
  }
  for (size_t i = 0; i < a.args.size(); ++i) {
    Term t = b.args[i];
    if (t.is_variable()) t = Term::Variable(t.index() + b_offset);
    if (!Unify(a.args[i], t)) return false;
  }
  return true;
}

void Unifier::Rewind(size_t mark) {
  while (journal_.size() > mark) {
    uint64_t i = journal_.back().index();
    if (i < kMaxNear) {
      near_[i] = journal_.back();
    } else {
      far_.pop_back();  // far bindings are journaled in the same order
    }
    journal_.pop_back();
  }
}

}  // namespace vadalog
