// vadalogd wire protocol: newline-delimited JSON requests, versioned and
// negotiated per connection, over a TCP or Unix-domain stream.
//
// Request shape (field presence per command):
//
//   {"v":1|2, "id":<any>, "cmd":"<COMMAND>", ...}
//
//   HELLO         [max_version=2], [encodings=["binary","json",...]]
//   LOAD_PROGRAM  session, program (surface syntax), [replace=false]
//   ANALYZE       session — lint diagnostics + classification for the
//                 session's loaded program text (analysis/lint.h)
//   ADD_FACTS     session, facts (surface-syntax fact clauses)
//   QUERY         session, query | query_index, [engine=auto],
//                 [max_states=0], [max_millis=0], [trace=false]
//   EXPLAIN       session, query | query_index, answer (constant strings),
//                 [trace=false]
//   STATS         [session]
//   METRICS       - (full metrics-registry snapshot as JSON)
//   UNLOAD        session
//   PING          -
//
// `"trace": true` on QUERY/EXPLAIN asks the server to attach a "trace"
// object to the response body: the request's span breakdown in
// microseconds (queue_wait, parse, lock_wait, search, encode) plus
// total_us. The body is the head line under every encoding, so traced
// responses carry identical spans on v1 JSON and v2 binary.
//
// Version negotiation (wire-API v2): every connection starts at v1 with
// newline-JSON responses. A HELLO announces the client's highest
// supported version and its response-encoding preference list; the
// server answers with the negotiated version = min(client, server) and
// the first client-preferred encoding it both knows and allows — unknown
// encoding names are skipped (forward compatibility), an empty
// intersection falls back to JSON. A `max_version` below 1, like a
// request `v` outside [1, kMaxVersion], is EVERSION. `id` is echoed
// verbatim so clients can pipeline.
//
// Responses are a transport-independent model (`Response`): a JSON body
// plus an optional answer table, rendered by the negotiated encoding:
//
//   * json (default): the table is inlined into the body as
//     "answers":[[cell,...],...] and the response is one JSON line;
//   * binary (v2): the body line carries
//     "answers_frame":{"rows":R,"cols":C,"bytes":K} instead of the rows,
//     and K bytes of columnar payload follow the newline — see
//     EncodeAnswerFrame for the exact layout. Responses without an
//     answer table (errors, PING, STATS, ...) stay pure JSON lines on
//     every encoding, so the control channel is always line-framed.
//
// Budgets surface the engine's completeness signal: a QUERY answered by
// a proof-search engine carries "complete" (false when some refutation
// gave up on a budget — the answers are then a sound subset, not
// definitive) and "budget_exhausted_candidates".
//
// This module is the pure wire layer: request parsing, negotiation, and
// response encoding only. Session lookup and execution live in
// server/session.h; both encodings share that one execution path and
// differ only in how EncodeResponse renders the model.

#ifndef VADALOG_SERVER_PROTOCOL_H_
#define VADALOG_SERVER_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "server/json.h"

namespace vadalog {
namespace protocol {

/// Baseline protocol version: what every connection speaks before (or
/// without) a HELLO, and the lowest version a HELLO can negotiate.
inline constexpr int kVersion = 1;
/// Highest version this server can negotiate (wire-API v2: HELLO itself
/// plus the binary answer encoding).
inline constexpr int kMaxVersion = 2;

enum class Command : uint8_t {
  kHello,
  kLoadProgram,
  kAnalyze,
  kAddFacts,
  kQuery,
  kExplain,
  kStats,
  kMetrics,
  kUnload,
  kPing,
};

const char* CommandName(Command cmd);

/// Response encodings a connection can negotiate via HELLO.
enum class Encoding : uint8_t { kJson, kBinary };

const char* EncodingName(Encoding encoding);
std::optional<Encoding> EncodingFromName(std::string_view name);

/// Per-connection negotiated wire state. Default-constructed = the v1
/// contract every connection starts with.
struct WireState {
  int version = kVersion;
  Encoding encoding = Encoding::kJson;
};

/// A structured protocol error: a stable machine-readable code plus a
/// human-readable message.
///
///   EPROTO    malformed JSON / not an object / bad field type
///   EVERSION  unsupported protocol version
///   ECMD      unknown command
///   EBADREQ   missing or invalid field for the command
///   EPARSE    program / facts / query text failed to parse
///   ENOSESSION  no session with that name
///   EEXISTS   LOAD_PROGRAM onto an existing session without replace
///   EUNSUPPORTED  the program's fragment cannot be served (e.g.
///                 negation outside Datalog)
///   EBUSY     admission control rejected the request; retry later
struct Error {
  std::string code;
  std::string message;
};

struct Request {
  int version = kVersion;
  JsonValue id;  // null when the client sent none; echoed verbatim
  Command cmd = Command::kPing;
  std::string session;

  // HELLO: the client's highest supported version and its encoding
  // preference list (first match wins; unknown names are skipped).
  int64_t max_version = kVersion;
  std::vector<std::string> client_encodings;

  // LOAD_PROGRAM
  std::string program;
  bool replace = false;

  // ADD_FACTS
  std::string facts;

  // QUERY / EXPLAIN: either inline surface-syntax text or an index into
  // the loaded program's parsed queries.
  std::string query_text;
  int64_t query_index = -1;

  // EXPLAIN
  std::vector<std::string> answer;

  // QUERY execution knobs.
  std::string engine = "auto";
  uint64_t max_states = 0;
  uint64_t max_millis = 0;

  // QUERY / EXPLAIN: attach the span breakdown to the response body.
  // Wire field; must be a JSON boolean when present.
  bool trace = false;

  // Not a wire field: the daemon's dispatch path stamps how long this
  // request sat in the worker queue, and the session layer renders it
  // into the trace/slow-log spans. In-process callers leave it 0.
  uint64_t queue_wait_us = 0;
};

/// Parses one request line (strict JSON, known command, per-command
/// required fields). On failure returns nullopt with `error` filled; when
/// the line was at least a JSON object, `*id` receives its "id" member so
/// the error response can still be correlated.
std::optional<Request> ParseRequest(std::string_view line, Error* error,
                                    JsonValue* id);

/// A query's certain-answer rows as the transport-independent model both
/// encodings render: `columns` cells per row, row-major, every cell
/// already rendered to its wire string (the same TermToString text the
/// JSON encoding has always carried).
struct AnswerTable {
  size_t columns = 0;
  /// Stored explicitly, not derived from cells.size()/columns: a boolean
  /// query has zero columns yet one row when certain ("answers":[[]])
  /// and zero rows when not — a distinction a quotient would erase.
  size_t row_count = 0;
  std::vector<std::string> cells;  // row_count * columns, row-major

  size_t rows() const { return row_count; }
  bool operator==(const AnswerTable&) const = default;
};

/// One response in the transport-independent model: the JSON body (never
/// containing the rows) plus the optional answer table. Implicitly
/// constructible from a bare JsonValue so error/status paths stay as
/// terse as they were when responses *were* JsonValues.
struct Response {
  JsonValue body;
  std::optional<AnswerTable> answers;

  Response() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): by design, see above.
  Response(JsonValue b) : body(std::move(b)) {}

  /// The v1 JSON rendering as a value (answers inlined as "answers");
  /// what HandleLine returns and what the tests assert against.
  JsonValue ToJson() const;
};

/// {"ok":false,"id":...,"error":{"code":...,"message":...}}
JsonValue ErrorResponse(const Error& error, const JsonValue& id);

/// {"ok":true,"id":...} — callers Set() additional members.
JsonValue OkResponse(const JsonValue& id);

/// Applies one HELLO to `state` and builds its response. `allowed` is
/// the server's encoding allowlist (ServerConfig.encodings, already
/// validated); negotiation picks the first client preference present in
/// it, falling back to JSON. EVERSION (state untouched) when the client's
/// max_version is below kVersion.
Response NegotiateHello(const Request& request,
                        const std::vector<Encoding>& allowed,
                        WireState* state);

/// Renders one response for the wire under the negotiated encoding:
/// always a single JSON line ending in '\n', followed — only for
/// Encoding::kBinary responses that carry an answer table — by the
/// binary answer frame announced in the line's "answers_frame" member.
std::string EncodeResponse(const Response& response, Encoding encoding);

/// The binary answer frame (v2, little-endian throughout):
///
///   offset 0   "VDF2" magic (4 bytes)
///          4   uint32 rows
///          8   uint32 cols
///         12   cols column blocks, each:
///                uint32 cell_lengths[rows]
///                cell bytes, concatenated in row order
///
/// Columnar by design: a consumer scanning one output column touches one
/// contiguous block, and the per-cell JSON escaping of the v1 encoding
/// disappears entirely. EncodeAnswerFrame returns the payload (what
/// "answers_frame".bytes counts); DecodeAnswerFrame is its exact inverse
/// and fails (false + error) on any malformed frame.
std::string EncodeAnswerFrame(const AnswerTable& table);
bool DecodeAnswerFrame(std::string_view payload, AnswerTable* table,
                       std::string* error);

}  // namespace protocol
}  // namespace vadalog

#endif  // VADALOG_SERVER_PROTOCOL_H_
