// Seeded workload inputs for the vbench load generator, and the chase
// oracle that checks the daemon's answers against them.
//
// Every input is generated from the --seed argument with the library's
// own generators (src/gen) and rendered to surface syntax; the daemon
// receives only that text (LOAD_PROGRAM / ADD_FACTS / query_index into
// the loaded queries), and the oracle parses the very same text.

#ifndef VBENCH_INPUTS_H_
#define VBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "vadalog/reasoner.h"

namespace vbench {

/// One protocol session: its program (rules + the query pool, no facts),
/// the database streamed into it by ADD_FACTS right after LOAD_PROGRAM,
/// and the engine its queries are sent with.
struct SessionSpec {
  std::string name;
  std::string engine;  // QUERY "engine" field; "auto" is sent as the default
  std::string program;                   // LOAD_PROGRAM text
  std::vector<std::string> fact_batches;  // ADD_FACTS payloads
  size_t num_queries = 0;                // pool size (query_index range)
  size_t num_refuted = 0;  // decision pools: the leading non-entailed ones
  size_t num_facts = 0;
  bool boolean_queries = false;  // pool of decisions, not enumerations
  /// search_cold: one more fact inside the pool's cone (a new type or
  /// edge fact). Only the layer replay inserts it, after the pool's
  /// decisions, so InvalidateForDelta runs against a warm cache.
  std::string cone_write;
};

/// One scheduled ADD_FACTS of warm_stream's writer.
struct WriteBatch {
  std::string facts;
  bool cone_hitting = false;  // adds subclass/type edges (invalidates)
};

struct WorkloadInputs {
  std::string workload;
  uint64_t seed = 0;
  /// Every session program of the run. The first `setup_sessions` are
  /// loaded at set-up; search_cold's rounds then cycle through all of
  /// them, each round replacing the session of the same name.
  std::vector<SessionSpec> sessions;
  size_t setup_sessions = 0;
  std::vector<WriteBatch> writes;  // warm_stream only, in schedule order
  uint64_t max_states = 0;  // proof-search QUERY budget (0: none)

  /// FNV-1a over every generated text: equal seeds give equal
  /// fingerprints, and the self-test checks that a new seed changes it.
  uint64_t Fingerprint() const;
};

/// Builds the inputs of `workload` from `seed`. `seconds` sizes the
/// writer's schedule (warm_stream). Returns false for an unknown name.
bool MakeInputs(const std::string& workload, uint64_t seed, double seconds,
                WorkloadInputs* inputs);

/// warm_stream's writer period: one ADD_FACTS batch is due every
/// kWritePeriodMs milliseconds of the measured phase.
inline constexpr double kWritePeriodMs = 50.0;

/// A query's certain answers: sorted rows of rendered constants. A
/// boolean query is {{}} when certain and {} when not.
using Rows = std::vector<std::vector<std::string>>;

/// The answer oracle: an in-process Reasoner over the session's text,
/// answering with the chase engine (one materialization per database
/// state, shared by every pool query — what CertainAnswersViaChase does
/// per query).
class Oracle {
 public:
  /// Loads the session program and streams its fact batches.
  explicit Oracle(const SessionSpec& session);

  /// Inserts one more ADD_FACTS payload; aborts on a parse error (the
  /// generator produced it, so that is a benchmark bug).
  void AddFacts(const std::string& facts);

  /// Certain answers of every pool query over the current database.
  const std::vector<Rows>& Answers();

  /// True when the boolean query `query_text` is entailed by the current
  /// database (used to draw pools with both verdicts).
  bool Entails(const std::string& query_text);

 private:
  const vadalog::Instance& Chase();
  Rows Evaluate(const vadalog::ConjunctiveQuery& query);

  std::unique_ptr<vadalog::Reasoner> reasoner_;
  std::optional<vadalog::ChaseResult> chase_;
  std::vector<Rows> answers_;
};

}  // namespace vbench

#endif  // VBENCH_INPUTS_H_
