// Prometheus text-exposition rendering (format 0.0.4) of a METRICS
// snapshot: one `# HELP` / `# TYPE` header per metric family, one sample
// line per label set, histograms expanded into cumulative
// `_bucket{le="..."}` series plus `_sum` and `_count`.
//
// A library call so that `vadalog_client --metrics` (live scrape or a
// saved snapshot on stdin) is a thin wrapper, the unit tests exercise the
// renderer against registry snapshots directly, and the fuzz harness
// (fuzz/fuzz_metrics_snapshot.cc) can drive the whole
// parse-JSON → render-text path on untrusted bytes without a process
// boundary. Renders into a string — no I/O here.

#ifndef VADALOG_SERVER_PROMETHEUS_H_
#define VADALOG_SERVER_PROMETHEUS_H_

#include <string>

#include "server/json.h"

namespace vadalog {
namespace prometheus {

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
std::string EscapeLabelValue(const std::string& value);

/// Converts one registry snapshot (the "metrics" array of a METRICS
/// response) to the text exposition format, appended to `*out`. The
/// snapshot arrives sorted by (name, labels), so HELP/TYPE headers are
/// emitted on each name change. False when the document is not a
/// snapshot (not an array, a nameless metric, or a histogram whose
/// buckets/bounds disagree); `*out` then holds the prefix rendered so
/// far and should be discarded.
bool RenderMetricsText(const JsonValue& metrics, std::string* out);

/// Accepts either a full METRICS response ({"ok":true,"metrics":[...]})
/// or the bare metrics array, as JSON text. False + `*error` on a parse
/// failure or a document that is not a METRICS snapshot.
bool RenderDocumentText(const std::string& text, std::string* out,
                        std::string* error);

}  // namespace prometheus
}  // namespace vadalog

#endif  // VADALOG_SERVER_PROMETHEUS_H_
