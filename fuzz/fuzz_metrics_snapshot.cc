// Fuzz target: the METRICS/STATS snapshot consumption path — JSON text
// in, Prometheus exposition text out (server/prometheus.h). This is the
// whole `vadalog_client --metrics` stdin mode on untrusted bytes: saved
// snapshots are converted offline, so the converter must be total over
// arbitrary documents, not just registry-produced ones.

#include <cstddef>
#include <cstdint>
#include <string>

#include "server/prometheus.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string text(reinterpret_cast<const char*>(data), size);
  std::string out;
  std::string error;
  if (!vadalog::prometheus::RenderDocumentText(text, &out, &error)) {
    if (error.empty()) __builtin_trap();  // failure without a message
    return 0;
  }
  // Exposition output is line-framed: every sample/header line the
  // renderer emits must end in a newline (an unterminated tail would
  // corrupt a textfile-collector concatenation).
  if (!out.empty() && out.back() != '\n') __builtin_trap();
  return 0;
}
