// The traced run's in-process layer replay: a workload's generated inputs
// pushed single-threaded through each layer's public entry points,
// timing every call and recording the counts the library returns. The
// counts are deterministic for a seed (the self-test pins them).

#ifndef VBENCH_REPLAY_H_
#define VBENCH_REPLAY_H_

#include "inputs.h"
#include "report.h"

namespace vbench {

/// Replays `inputs` through ParseProgram, ClassifyProgram, the
/// ProofSearchCache constructor, Reasoner::AddFactsText,
/// ProofSearchCache::InvalidateForDelta, RunChase, EvaluateQuerySorted,
/// protocol::EncodeResponse and Linear/AlternatingProofSearch, and adds
/// the ast.*, analysis.*, chase.*, storage.* and replay-sourced engine.*
/// metrics to `metrics`. `writes` is how many of warm_stream's scheduled
/// writes the replay streams.
void ReplayLayers(const WorkloadInputs& inputs, size_t writes,
                  Metrics* metrics);

}  // namespace vbench

#endif  // VBENCH_REPLAY_H_
