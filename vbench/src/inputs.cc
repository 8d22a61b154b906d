#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "base/rng.h"
#include "chase/chase.h"
#include "gen/generators.h"
#include "storage/homomorphism.h"

namespace vbench {

using vadalog::Atom;
using vadalog::Program;
using vadalog::Rng;

namespace {

// Input sizes. Costs differ a lot between generated instances (a random
// forest's depth, a random graph's reachability), so each workload
// averages over many instances per run rather than leaning on one: the
// per-seed spread of a run's figures shrinks with the instance count.
struct OntologySize {
  uint32_t classes;
  uint32_t properties;
  uint32_t individuals;
};
// chase_enum: kEnumSessions ontologies of a few ms of chase each. Their
// loading is the set-up: at this count it takes a few hundred ms, long
// enough that a host hiccup of tens of ms moves setup_s little.
constexpr size_t kEnumSessions = 256;
constexpr OntologySize kEnumOntology = {30, 6, 120};
constexpr size_t kEnumQueriesPerSession = 6;
// search_cold: kColdInstances programs of each kind, a fresh one each
// round (a 40 s run uses about a hundred of each). The
// ontologies are tiny because linear refutations over the OWL 2 QL rules
// already cost tens of ms at 4 classes and grow quickly (to seconds, and
// erratically, from about 6 classes); the sparse graph keeps most
// alternating refutations short.
constexpr size_t kColdInstances = 256;
constexpr OntologySize kColdOntology = {4, 1, 8};
constexpr uint32_t kColdGraphNodes = 16;
constexpr uint64_t kColdGraphEdges = 12;
constexpr size_t kColdEntailed = 4;   // decisions per instance...
constexpr size_t kColdRefuted = 10;  // ...mostly refutations
// warm_stream: one session; mostly entailed decisions, so a cone-hitting
// write invalidates a handful of refutations, not the whole pool.
constexpr OntologySize kStreamOntology = {4, 1, 8};
constexpr size_t kStreamEntailed = 12;
constexpr size_t kStreamRefuted = 6;
constexpr size_t kNotesPerWrite = 6;  // cone-disjoint facts per write
// One write in each block of kWritesPerHit (at a seeded position) is
// cone-hitting, so every run sees the same number of invalidations.
constexpr size_t kWritesPerHit = 16;

constexpr size_t kFactsPerBatch = 25;  // database streaming after load

// The max_states budget every proof-search QUERY carries. Ordinary
// refutations here need a few hundred states; a search that explores
// far more (a warm cache can send a refutation into a state explosion)
// gives up and answers complete:false instead of holding a worker, the
// session's data lock and hundreds of MiB for seconds.
constexpr uint64_t kMaxStates = 1000;

std::string RulesText(const Program& program) {
  std::string text;
  for (const vadalog::Tgd& tgd : program.tgds()) {
    text += tgd.ToString(program.symbols());
    text += '\n';
  }
  return text;
}

std::string FactText(const Program& program, const Atom& fact) {
  return fact.ToString(program.symbols()) + ".\n";
}

/// Splits the program's facts into ADD_FACTS payloads.
std::vector<std::string> FactBatches(const Program& program) {
  std::vector<std::string> batches;
  for (size_t i = 0; i < program.facts().size(); ++i) {
    if (i % kFactsPerBatch == 0) batches.emplace_back();
    batches.back() += FactText(program, program.facts()[i]);
  }
  return batches;
}

std::string Name(const char* prefix, uint64_t index) {
  return prefix + std::to_string(index);
}

SessionSpec OntologySession(const std::string& name, const std::string& engine,
                            const OntologySize& size, Rng* rng) {
  Program program = vadalog::MakeOwl2QlProgram();
  vadalog::AddOntologyFacts(&program, size.classes, size.properties,
                            size.individuals, rng);
  SessionSpec session;
  session.name = name;
  session.engine = engine;
  session.program = RulesText(program);
  session.fact_batches = FactBatches(program);
  session.num_facts = program.facts().size();
  return session;
}

/// Appends a pool of boolean decisions drawn from `candidate` to the
/// session's program: up to `want_entailed` entailed and `want_refuted`
/// non-entailed ones according to the chase over its full database.
void AddDecisionPool(SessionSpec* session, size_t want_entailed,
                     size_t want_refuted, Rng* rng,
                     const std::function<std::string(Rng*)>& candidate) {
  Oracle probe(*session);
  std::vector<std::string> entailed, refuted;
  for (int attempt = 0; attempt < 10000 && (entailed.size() < want_entailed ||
                                              refuted.size() < want_refuted);
       ++attempt) {
    std::string text = candidate(rng);
    bool certain = probe.Entails(text);
    std::vector<std::string>& bucket = certain ? entailed : refuted;
    size_t want = certain ? want_entailed : want_refuted;
    if (bucket.size() < want &&
        std::find(bucket.begin(), bucket.end(), text) == bucket.end()) {
      bucket.push_back(text);
    }
  }
  // Refutations first: search_cold's stampede takes the first decision.
  for (const std::string& text : refuted) session->program += text;
  for (const std::string& text : entailed) session->program += text;
  session->num_queries = refuted.size() + entailed.size();
  session->num_refuted = refuted.size();
  session->boolean_queries = true;
}

}  // namespace

uint64_t WorkloadInputs::Fingerprint() const {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&](const std::string& text) {
    for (unsigned char c : text) {
      hash ^= c;
      hash *= 1099511628211ull;
    }
    hash ^= 0xff;
    hash *= 1099511628211ull;
  };
  for (const SessionSpec& session : sessions) {
    mix(session.name);
    mix(session.program);
    for (const std::string& batch : session.fact_batches) mix(batch);
    mix(session.cone_write);
  }
  for (const WriteBatch& write : writes) mix(write.facts);
  return hash;
}

bool MakeInputs(const std::string& workload, uint64_t seed, double seconds,
                WorkloadInputs* inputs) {
  *inputs = WorkloadInputs();
  inputs->workload = workload;
  inputs->seed = seed;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + workload.size());

  if (workload == "chase_enum") {
    const OntologySize& size = kEnumOntology;
    for (size_t i = 0; i < kEnumSessions; ++i) {
      SessionSpec session =
          OntologySession(Name("enum", i), "auto", size, &rng);
      for (size_t q = 0; q < kEnumQueriesPerSession; ++q) {
        std::string ind = Name("ind", rng.Below(size.individuals));
        std::string cls = Name("class", rng.Below(size.classes));
        switch (q % 4) {
          case 0:
            session.program += "?(X) :- type(" + ind + ", X).\n";
            break;
          case 1:
            session.program += "?(X) :- type(X, " + cls + ").\n";
            break;
          case 2:
            session.program += "?(Y) :- triple(" + ind + ", Y, Z).\n";
            break;
          default:
            session.program +=
                "?(X, Y) :- type(X, " + cls + "), triple(X, Y, Z).\n";
            break;
        }
      }
      session.num_queries = kEnumQueriesPerSession;
      inputs->sessions.push_back(std::move(session));
    }
    inputs->setup_sessions = kEnumSessions;
    return true;
  }

  if (workload == "search_cold") {
    inputs->max_states = kMaxStates;
    const OntologySize& size = kColdOntology;
    for (size_t i = 0; i < kColdInstances; ++i) {
      SessionSpec owl = OntologySession("owl", "linear", size, &rng);
      AddDecisionPool(&owl, kColdEntailed, kColdRefuted, &rng, [&](Rng* r) {
        return "?() :- type(" + Name("ind", r->Below(size.individuals)) +
               ", " + Name("class", r->Below(size.classes)) + ").\n";
      });
      owl.cone_write = "type(" + Name("ind", rng.Below(size.individuals)) +
                       ", " + Name("class", rng.Below(size.classes)) + ").\n";
      Program graph = vadalog::MakeTransitiveClosureProgram(/*linear=*/false);
      vadalog::AddRandomGraphFacts(&graph, "e", kColdGraphNodes,
                                   kColdGraphEdges, &rng);
      SessionSpec tc;
      tc.name = "tc";
      tc.engine = "alternating";
      tc.program = RulesText(graph);
      tc.fact_batches = FactBatches(graph);
      tc.num_facts = graph.facts().size();
      AddDecisionPool(&tc, kColdEntailed, kColdRefuted, &rng, [&](Rng* r) {
        return "?() :- t(" + Name("v", r->Below(kColdGraphNodes)) + ", " +
               Name("v", r->Below(kColdGraphNodes)) + ").\n";
      });
      tc.cone_write = "e(" + Name("v", rng.Below(kColdGraphNodes)) + ", " +
                      Name("v", rng.Below(kColdGraphNodes)) + ").\n";
      inputs->sessions.push_back(std::move(owl));
      inputs->sessions.push_back(std::move(tc));
    }
    inputs->setup_sessions = 2;
    return true;
  }

  if (workload == "warm_stream") {
    inputs->max_states = kMaxStates;
    const OntologySize& size = kStreamOntology;
    SessionSpec session = OntologySession("stream", "linear", size, &rng);
    AddDecisionPool(&session, kStreamEntailed, kStreamRefuted, &rng,
                    [&](Rng* r) {
      return "?() :- type(" + Name("ind", r->Below(size.individuals)) +
             ", " + Name("class", r->Below(size.classes)) + ").\n";
    });
    inputs->sessions.push_back(std::move(session));
    inputs->setup_sessions = 1;

    // The writer's schedule, with slack for a late generator's catch-up.
    size_t count = static_cast<size_t>(seconds * 1000.0 / kWritePeriodMs) + 8;
    uint64_t note = 0;
    size_t hit_at = 0;
    for (size_t i = 0; i < count; ++i) {
      if (i % kWritesPerHit == 0) hit_at = i + rng.Below(kWritesPerHit);
      WriteBatch write;
      // `note` appears in no rule: its cone is itself, so these facts
      // leave every cached refutation valid.
      for (size_t n = 0; n < kNotesPerWrite; ++n) {
        write.facts += "note(" + Name("ind", rng.Below(size.individuals)) +
                       ", " + Name("tag", note++) + ").\n";
      }
      write.cone_hitting = i == hit_at;
      if (write.cone_hitting) {
        // A new type or subclass edge (subclass stays a forest-like DAG:
        // children point to smaller class indices).
        if (rng.Chance(0.5)) {
          write.facts += "type(" + Name("ind", rng.Below(size.individuals)) +
                         ", " + Name("class", rng.Below(size.classes)) +
                         ").\n";
        } else {
          uint64_t child = 1 + rng.Below(size.classes - 1);
          write.facts += "subclass(" + Name("class", child) + ", " +
                         Name("class", rng.Below(child)) + ").\n";
        }
      }
      inputs->writes.push_back(std::move(write));
    }
    return true;
  }
  return false;
}

Oracle::Oracle(const SessionSpec& session) {
  std::string error;
  reasoner_ = vadalog::Reasoner::FromText(session.program, &error);
  if (reasoner_ == nullptr) {
    std::fprintf(stderr, "vbench: generated program does not parse: %s\n",
                 error.c_str());
    std::abort();
  }
  for (const std::string& batch : session.fact_batches) AddFacts(batch);
}

void Oracle::AddFacts(const std::string& facts) {
  std::string error = reasoner_->AddFactsText(facts);
  if (!error.empty()) {
    std::fprintf(stderr, "vbench: generated facts do not parse: %s\n",
                 error.c_str());
    std::abort();
  }
  chase_.reset();
  answers_.clear();
}

const vadalog::Instance& Oracle::Chase() {
  if (!chase_.has_value()) {
    chase_ = vadalog::RunChase(reasoner_->program(), reasoner_->database());
  }
  return chase_->instance;
}

Rows Oracle::Evaluate(
    const vadalog::ConjunctiveQuery& query) {
  const vadalog::SymbolTable& symbols = reasoner_->program().symbols();
  Rows rows;
  for (const std::vector<vadalog::Term>& tuple :
       vadalog::EvaluateQuerySorted(query, Chase())) {
    std::vector<std::string> row;
    for (vadalog::Term t : tuple) row.push_back(symbols.TermToString(t));
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

const std::vector<Rows>& Oracle::Answers() {
  if (answers_.empty()) {
    for (const vadalog::ConjunctiveQuery& query :
         reasoner_->program().queries()) {
      answers_.push_back(Evaluate(query));
    }
  }
  return answers_;
}

bool Oracle::Entails(const std::string& query_text) {
  std::string error;
  std::optional<vadalog::ConjunctiveQuery> query =
      reasoner_->ParseQuery(query_text, &error);
  if (!query.has_value()) {
    std::fprintf(stderr, "vbench: generated query does not parse: %s\n",
                 error.c_str());
    std::abort();
  }
  return !Evaluate(*query).empty();
}

}  // namespace vbench
