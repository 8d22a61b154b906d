// Fuzz target: the v2 binary answer-frame decoder
// (protocol::DecodeAnswerFrame) and the response decoder around it
// (protocol::DecodeResponse, what server/client.h reads with). Clients
// decode what the server produces, but a client library must also
// survive a malicious or corrupted peer, so both are treated as
// untrusted-input parsers. Checks the inverse properties the header
// promises: any payload that decodes must re-encode and decode back to
// an equal table, and any response that decodes must re-encode and
// decode back to an equal response.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "server/protocol.h"

namespace {

/// The input as a whole wire (head line plus optional frame).
void CheckResponse(std::string_view wire) {
  namespace protocol = vadalog::protocol;
  protocol::Response response;
  size_t consumed = 0;
  std::string error;
  if (!protocol::DecodeResponse(wire, &response, &consumed, &error) ||
      consumed == 0) {
    return;
  }
  if (consumed > wire.size()) __builtin_trap();
  std::string reencoded =
      protocol::EncodeResponse(response, protocol::Encoding::kBinary);
  protocol::Response roundtrip;
  if (!protocol::DecodeResponse(reencoded, &roundtrip, &consumed, &error) ||
      consumed != reencoded.size() ||
      roundtrip.body.Dump() != response.body.Dump() ||
      roundtrip.answers != response.answers) {
    __builtin_trap();  // encode is not the inverse of decode
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  namespace protocol = vadalog::protocol;
  std::string_view payload(reinterpret_cast<const char*>(data), size);
  CheckResponse(payload);
  protocol::AnswerTable table;
  std::string error;
  if (!protocol::DecodeAnswerFrame(payload, &table, &error)) return 0;
  std::string reencoded = protocol::EncodeAnswerFrame(table);
  protocol::AnswerTable roundtrip;
  if (!protocol::DecodeAnswerFrame(reencoded, &roundtrip, &error) ||
      !(roundtrip == table)) {
    __builtin_trap();  // encode is not the inverse of decode
  }
  return 0;
}
