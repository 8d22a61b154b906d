#include "server/protocol.h"

#include <cstring>
#include <utility>

namespace vadalog {
namespace protocol {
namespace {

std::optional<Command> CommandFromName(std::string_view name) {
  if (name == "HELLO") return Command::kHello;
  if (name == "LOAD_PROGRAM") return Command::kLoadProgram;
  if (name == "ANALYZE") return Command::kAnalyze;
  if (name == "ADD_FACTS") return Command::kAddFacts;
  if (name == "QUERY") return Command::kQuery;
  if (name == "EXPLAIN") return Command::kExplain;
  if (name == "STATS") return Command::kStats;
  if (name == "METRICS") return Command::kMetrics;
  if (name == "UNLOAD") return Command::kUnload;
  if (name == "PING") return Command::kPing;
  return std::nullopt;
}

bool Fail(Error* error, std::string code, std::string message) {
  error->code = std::move(code);
  error->message = std::move(message);
  return false;
}

/// Commands whose requests must name a session.
bool NeedsSession(Command cmd) {
  return cmd != Command::kStats && cmd != Command::kMetrics &&
         cmd != Command::kPing && cmd != Command::kHello;
}

void AppendU32(std::string* out, uint32_t value) {
  // Little-endian, byte by byte: independent of host endianness and
  // alignment, and the frame layout stays bit-stable across platforms.
  out->push_back(static_cast<char>(value & 0xff));
  out->push_back(static_cast<char>((value >> 8) & 0xff));
  out->push_back(static_cast<char>((value >> 16) & 0xff));
  out->push_back(static_cast<char>((value >> 24) & 0xff));
}

bool ReadU32(std::string_view payload, size_t* offset, uint32_t* value) {
  if (payload.size() - *offset < 4) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data()) +
                  *offset;
  *value = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
  *offset += 4;
  return true;
}

/// `object` without its `key` member.
JsonValue WithoutMember(const JsonValue& object, std::string_view key) {
  JsonValue out = JsonValue::Object();
  for (const auto& [name, value] : object.Members()) {
    if (name != key) out.Set(name, value);
  }
  return out;
}

bool ParseFields(const JsonValue& object, Request* request, Error* error) {
  const JsonValue* version = object.Find("v");
  if (version != nullptr) {
    double v = version->is_number() ? version->AsNumber() : -1.0;
    if (v < static_cast<double>(kVersion) ||
        v > static_cast<double>(kMaxVersion) ||
        v != static_cast<double>(static_cast<int>(v))) {
      return Fail(error, "EVERSION",
                  "unsupported protocol version (supported: " +
                      std::to_string(kVersion) + ".." +
                      std::to_string(kMaxVersion) + ")");
    }
    request->version = static_cast<int>(v);
  }

  const JsonValue* cmd = object.Find("cmd");
  if (cmd == nullptr || !cmd->is_string()) {
    return Fail(error, "EPROTO", "missing string field \"cmd\"");
  }
  std::optional<Command> command = CommandFromName(cmd->AsString());
  if (!command.has_value()) {
    return Fail(error, "ECMD", "unknown command \"" + cmd->AsString() + "\"");
  }
  request->cmd = *command;

  request->session = object.GetString("session");
  if (NeedsSession(request->cmd) && request->session.empty()) {
    return Fail(error, "EBADREQ", "missing string field \"session\"");
  }

  switch (request->cmd) {
    case Command::kHello: {
      // Absent max_version means "everything you have": HELLO itself is
      // a v2 verb, so a client sending it without the field is not an
      // old client to protect — give it the newest version.
      uint64_t max_version = static_cast<uint64_t>(kMaxVersion);
      switch (object.TryGetUint("max_version", &max_version)) {
        case JsonValue::UintField::kAbsent:
        case JsonValue::UintField::kValid:
          break;
        case JsonValue::UintField::kInvalid:
          return Fail(error, "EBADREQ",
                      "\"max_version\" must be a non-negative integer");
      }
      if (max_version < static_cast<uint64_t>(kVersion)) {
        return Fail(error, "EVERSION",
                    "client max_version " + std::to_string(max_version) +
                        " is below the oldest supported version " +
                        std::to_string(kVersion));
      }
      request->max_version = static_cast<int64_t>(
          max_version > static_cast<uint64_t>(kMaxVersion)
              ? static_cast<uint64_t>(kMaxVersion)
              : max_version);
      const JsonValue* encodings = object.Find("encodings");
      if (encodings != nullptr) {
        if (!encodings->is_array()) {
          return Fail(error, "EBADREQ",
                      "\"encodings\" must be an array of strings");
        }
        for (const JsonValue& item : encodings->Items()) {
          if (!item.is_string()) {
            return Fail(error, "EBADREQ",
                        "\"encodings\" items must be strings");
          }
          request->client_encodings.push_back(item.AsString());
        }
      }
      break;
    }
    case Command::kLoadProgram: {
      const JsonValue* program = object.Find("program");
      if (program == nullptr || !program->is_string()) {
        return Fail(error, "EBADREQ", "missing string field \"program\"");
      }
      request->program = program->AsString();
      request->replace = object.GetBool("replace", false);
      break;
    }
    case Command::kAddFacts: {
      const JsonValue* facts = object.Find("facts");
      if (facts == nullptr || !facts->is_string()) {
        return Fail(error, "EBADREQ", "missing string field \"facts\"");
      }
      request->facts = facts->AsString();
      break;
    }
    case Command::kQuery:
    case Command::kExplain: {
      const JsonValue* query = object.Find("query");
      uint64_t query_index = 0;
      JsonValue::UintField index_field =
          object.TryGetUint("query_index", &query_index);
      if (query != nullptr && query->is_string()) {
        request->query_text = query->AsString();
      } else if (index_field == JsonValue::UintField::kValid) {
        // TryGetUint already rejected negatives, fractions, and doubles
        // past 2^53 — the values whose raw int64_t cast is undefined.
        request->query_index = static_cast<int64_t>(query_index);
      } else {
        return Fail(error, "EBADREQ",
                    "need string \"query\" or a non-negative integer "
                    "\"query_index\"");
      }
      if (request->cmd == Command::kExplain) {
        const JsonValue* answer = object.Find("answer");
        if (answer == nullptr || !answer->is_array()) {
          return Fail(error, "EBADREQ", "missing array field \"answer\"");
        }
        for (const JsonValue& item : answer->Items()) {
          if (!item.is_string()) {
            return Fail(error, "EBADREQ",
                        "\"answer\" items must be constant-name strings");
          }
          request->answer.push_back(item.AsString());
        }
      }
      request->engine = object.GetString("engine", "auto");
      if (request->engine != "auto" && request->engine != "chase" &&
          request->engine != "linear" && request->engine != "alternating") {
        return Fail(error, "EBADREQ",
                    "\"engine\" must be auto|chase|linear|alternating");
      }
      // Budgets: a present-but-malformed value (wrong type, negative,
      // fractional, non-finite, or past 2^53) is a request error, not a
      // silent fall-back to "unlimited" — a client that sent
      // {"max_states": -1} almost certainly did not want an unbudgeted
      // search.
      struct UintSpec {
        const char* key;
        uint64_t* dest;
      };
      const UintSpec specs[] = {
          {"max_states", &request->max_states},
          {"max_millis", &request->max_millis},
      };
      for (const UintSpec& spec : specs) {
        switch (object.TryGetUint(spec.key, spec.dest)) {
          case JsonValue::UintField::kAbsent:
          case JsonValue::UintField::kValid:
            break;
          case JsonValue::UintField::kInvalid:
            return Fail(error, "EBADREQ",
                        std::string("\"") + spec.key +
                            "\" must be a non-negative integer");
        }
      }
      const JsonValue* trace = object.Find("trace");
      if (trace != nullptr) {
        // Strict boolean, like the budgets: {"trace": "yes"} is a
        // request error, not a silent no-trace.
        if (!trace->is_bool()) {
          return Fail(error, "EBADREQ", "\"trace\" must be a boolean");
        }
        request->trace = trace->AsBool();
      }
      break;
    }
    case Command::kAnalyze:
    case Command::kStats:
    case Command::kMetrics:
    case Command::kUnload:
    case Command::kPing:
      break;
  }
  return true;
}

}  // namespace

const char* CommandName(Command cmd) {
  switch (cmd) {
    case Command::kHello: return "HELLO";
    case Command::kLoadProgram: return "LOAD_PROGRAM";
    case Command::kAnalyze: return "ANALYZE";
    case Command::kAddFacts: return "ADD_FACTS";
    case Command::kQuery: return "QUERY";
    case Command::kExplain: return "EXPLAIN";
    case Command::kStats: return "STATS";
    case Command::kMetrics: return "METRICS";
    case Command::kUnload: return "UNLOAD";
    case Command::kPing: return "PING";
  }
  return "?";
}

const char* EncodingName(Encoding encoding) {
  switch (encoding) {
    case Encoding::kJson: return "json";
    case Encoding::kBinary: return "binary";
  }
  return "?";
}

std::optional<Encoding> EncodingFromName(std::string_view name) {
  if (name == "json") return Encoding::kJson;
  if (name == "binary") return Encoding::kBinary;
  return std::nullopt;
}

std::optional<Request> ParseRequest(std::string_view line, Error* error,
                                    JsonValue* id) {
  *id = JsonValue();
  std::string json_error;
  std::optional<JsonValue> parsed = JsonValue::Parse(line, &json_error);
  if (!parsed.has_value()) {
    Fail(error, "EPROTO", "malformed JSON: " + json_error);
    return std::nullopt;
  }
  if (!parsed->is_object()) {
    Fail(error, "EPROTO", "request must be a JSON object");
    return std::nullopt;
  }
  const JsonValue* id_field = parsed->Find("id");
  if (id_field != nullptr) *id = *id_field;

  Request request;
  request.id = *id;
  if (!ParseFields(*parsed, &request, error)) return std::nullopt;
  return request;
}

JsonValue Response::ToJson() const {
  if (!answers.has_value()) return body;
  JsonValue with_rows = body;
  JsonValue rows = JsonValue::Array();
  for (size_t r = 0; r < answers->rows(); ++r) {
    JsonValue row = JsonValue::Array();
    for (size_t c = 0; c < answers->columns; ++c) {
      row.Append(
          JsonValue::String(answers->cells[r * answers->columns + c]));
    }
    rows.Append(std::move(row));
  }
  with_rows.Set("answers", std::move(rows));
  return with_rows;
}

JsonValue ErrorResponse(const Error& error, const JsonValue& id) {
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(false));
  if (!id.is_null()) response.Set("id", id);
  JsonValue detail = JsonValue::Object();
  detail.Set("code", JsonValue::String(error.code));
  detail.Set("message", JsonValue::String(error.message));
  response.Set("error", std::move(detail));
  return response;
}

JsonValue OkResponse(const JsonValue& id) {
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(true));
  if (!id.is_null()) response.Set("id", id);
  return response;
}

Response NegotiateHello(const Request& request,
                        const std::vector<Encoding>& allowed,
                        WireState* state) {
  // ParseRequest already rejected max_version < kVersion with EVERSION
  // and clamped the top end, so here negotiation cannot fail.
  state->version = static_cast<int>(request.max_version);
  // First client preference the server both knows and allows wins;
  // unknown names are skipped so future encodings degrade gracefully,
  // and no usable intersection falls back to the JSON default. The
  // binary encoding is a v2 feature: a client that pinned max_version=1
  // negotiated v1 and keeps the v1 contract (JSON only).
  state->encoding = Encoding::kJson;
  if (state->version >= 2) {
    for (const std::string& name : request.client_encodings) {
      std::optional<Encoding> encoding = EncodingFromName(name);
      if (!encoding.has_value()) continue;
      bool allow = false;
      for (Encoding candidate : allowed) {
        if (candidate == *encoding) {
          allow = true;
          break;
        }
      }
      if (allow) {
        state->encoding = *encoding;
        break;
      }
    }
  }
  JsonValue body = OkResponse(request.id);
  body.Set("version", JsonValue::Number(state->version));
  body.Set("max_version", JsonValue::Number(kMaxVersion));
  body.Set("encoding", JsonValue::String(EncodingName(state->encoding)));
  JsonValue offered = JsonValue::Array();
  for (Encoding encoding : allowed) {
    offered.Append(JsonValue::String(EncodingName(encoding)));
  }
  body.Set("encodings", std::move(offered));
  return Response(std::move(body));
}

std::string EncodeAnswerFrame(const AnswerTable& table) {
  std::string payload;
  size_t rows = table.rows();
  size_t data_bytes = 0;
  for (const std::string& cell : table.cells) data_bytes += cell.size();
  payload.reserve(12 + 4 * table.cells.size() + data_bytes);
  payload.append("VDF2", 4);
  AppendU32(&payload, static_cast<uint32_t>(rows));
  AppendU32(&payload, static_cast<uint32_t>(table.columns));
  for (size_t c = 0; c < table.columns; ++c) {
    for (size_t r = 0; r < rows; ++r) {
      AppendU32(&payload, static_cast<uint32_t>(
                              table.cells[r * table.columns + c].size()));
    }
    for (size_t r = 0; r < rows; ++r) {
      payload.append(table.cells[r * table.columns + c]);
    }
  }
  return payload;
}

bool DecodeAnswerFrame(std::string_view payload, AnswerTable* table,
                       std::string* error) {
  auto fail = [error](const char* message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (payload.size() < 12 || payload.compare(0, 4, "VDF2") != 0) {
    return fail("answer frame: bad magic or truncated header");
  }
  size_t offset = 4;
  uint32_t rows = 0;
  uint32_t cols = 0;
  ReadU32(payload, &offset, &rows);
  ReadU32(payload, &offset, &cols);
  // Every cell costs at least its 4-byte length entry, so a well-formed
  // frame has rows*cols*4 + 12 <= size; rejecting anything bigger bounds
  // the allocation below by the payload size (and kills overflow-crafted
  // headers before they allocate anything).
  if (cols != 0 && rows > (payload.size() / 4) / cols) {
    return fail("answer frame: implausible dimensions");
  }
  table->columns = cols;
  table->row_count = rows;
  table->cells.assign(static_cast<size_t>(rows) * cols, std::string());
  // Sized zero when there are no columns: a 0-column frame carries no
  // length tables, so `rows` alone must not drive an allocation.
  std::vector<uint32_t> lengths(cols == 0 ? 0 : rows);
  for (uint32_t c = 0; c < cols; ++c) {
    for (uint32_t r = 0; r < rows; ++r) {
      if (!ReadU32(payload, &offset, &lengths[r])) {
        return fail("answer frame: truncated length table");
      }
    }
    for (uint32_t r = 0; r < rows; ++r) {
      if (payload.size() - offset < lengths[r]) {
        return fail("answer frame: truncated cell data");
      }
      table->cells[static_cast<size_t>(r) * cols + c].assign(
          payload.data() + offset, lengths[r]);
      offset += lengths[r];
    }
  }
  if (offset != payload.size()) {
    return fail("answer frame: trailing bytes");
  }
  return true;
}

std::string EncodeResponse(const Response& response, Encoding encoding) {
  if (encoding == Encoding::kJson || !response.answers.has_value()) {
    return response.ToJson().Dump() + "\n";
  }
  std::string frame = EncodeAnswerFrame(*response.answers);
  JsonValue head = response.body;
  JsonValue descriptor = JsonValue::Object();
  descriptor.Set("rows", JsonValue::Number(
                             static_cast<uint64_t>(response.answers->rows())));
  descriptor.Set("cols", JsonValue::Number(static_cast<uint64_t>(
                             response.answers->columns)));
  descriptor.Set("bytes",
                 JsonValue::Number(static_cast<uint64_t>(frame.size())));
  head.Set("answers_frame", std::move(descriptor));
  std::string wire = head.Dump();
  wire.push_back('\n');
  wire.append(frame);
  return wire;
}

bool DecodeResponse(std::string_view wire, Response* response,
                    size_t* consumed, std::string* error) {
  auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  *consumed = 0;
  size_t newline = wire.find('\n');
  if (newline == std::string_view::npos) return true;
  std::string parse_error;
  std::optional<JsonValue> head =
      JsonValue::Parse(wire.substr(0, newline), &parse_error);
  if (!head.has_value()) return fail("response head: " + parse_error);
  if (!head->is_object()) return fail("response head is not an object");
  size_t end = newline + 1;
  if (const JsonValue* descriptor = head->Find("answers_frame")) {
    uint64_t rows = 0;
    uint64_t cols = 0;
    uint64_t bytes = 0;
    if (descriptor->TryGetUint("rows", &rows) != JsonValue::UintField::kValid ||
        descriptor->TryGetUint("cols", &cols) != JsonValue::UintField::kValid ||
        descriptor->TryGetUint("bytes", &bytes) !=
            JsonValue::UintField::kValid) {
      return fail("answers_frame needs integer rows, cols and bytes");
    }
    if (wire.size() - end < bytes) return true;  // frame still arriving
    AnswerTable table;
    if (!DecodeAnswerFrame(wire.substr(end, bytes), &table, error)) {
      return false;
    }
    if (table.rows() != rows || table.columns != cols) {
      return fail("answers_frame: descriptor disagrees with the frame");
    }
    end += bytes;
    *response = Response(WithoutMember(*head, "answers_frame"));
    response->answers = std::move(table);
  } else {
    *response = Response(std::move(*head));
  }
  *consumed = end;
  return true;
}

}  // namespace protocol
}  // namespace vadalog
