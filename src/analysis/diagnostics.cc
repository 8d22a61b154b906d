#include "analysis/diagnostics.h"

#include <algorithm>

namespace vadalog {

std::string_view SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "error";
}

size_t FileDiagnostics::CountSeverity(Severity severity) const {
  return static_cast<size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [severity](const Diagnostic& d) {
                      return d.severity == severity;
                    }));
}

const std::vector<CheckInfo>& CheckCatalog() {
  static const std::vector<CheckInfo> kCatalog = {
      {"V001", "parse-error", "The program text failed to parse.",
       Severity::kError},
      {"V002", "arity-overflow",
       "A predicate's arity exceeds 65535, the widest index the packed "
       "schema-position encoding (predicate << 16 | index) can represent.",
       Severity::kError},
      {"V003", "unstratified-negation",
       "A negated predicate depends, through the predicate graph, on the "
       "head it guards: negation inside a recursive cycle has no "
       "stratified semantics.",
       Severity::kError},
      {"V004", "unsupported-fragment",
       "The program combines features no shipped engine serves (negation "
       "outside plain Datalog, or unsafe negation).",
       Severity::kWarning},
      {"V101", "non-warded",
       "A rule's dangerous variables admit no ward (Definition 3.1): no "
       "body atom contains all of them while sharing only harmless "
       "variables with the rest of the body.",
       Severity::kWarning},
      {"V102", "fragment-downgrade",
       "The program is warded but falls outside piece-wise linearity, so "
       "proof search loses the polynomial node-width bound.",
       Severity::kNote},
      {"V201", "singleton-variable",
       "A named variable occurs exactly once in its rule; use '_' to mark "
       "an intentional don't-care.",
       Severity::kWarning},
      {"V202", "unsafe-query",
       "A query output variable is not bound by any query atom.",
       Severity::kWarning},
      {"V301", "unused-predicate",
       "A predicate is derived or asserted but never read by any rule "
       "body or query.",
       Severity::kWarning},
      {"V302", "underivable-predicate",
       "An intensional predicate can never be derived: every defining "
       "rule depends on predicates that are themselves underivable.",
       Severity::kWarning},
      {"V401", "duplicate-rule",
       "A rule repeats an earlier rule up to variable renaming and body "
       "order.",
       Severity::kWarning},
      {"V402", "subsumed-rule",
       "A rule is subsumed by another rule and can never derive anything "
       "new; of two rules that subsume each other, only the one with more "
       "body atoms (or, at equal size, the later one) is reported.",
       Severity::kWarning},
  };
  return kCatalog;
}

const CheckInfo* FindCheck(std::string_view id) {
  for (const CheckInfo& info : CheckCatalog()) {
    if (info.id == id) return &info;
  }
  return nullptr;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

// The 1-based `line`-th line of `source`, without its newline.
std::string_view SourceLine(std::string_view source, uint32_t line) {
  size_t start = 0;
  for (uint32_t current = 1; current < line; ++current) {
    size_t nl = source.find('\n', start);
    if (nl == std::string_view::npos) return {};
    start = nl + 1;
  }
  size_t end = source.find('\n', start);
  if (end == std::string_view::npos) end = source.size();
  return source.substr(start, end - start);
}

void AppendQuoted(std::string* out, std::string_view text) {
  *out += '"';
  *out += JsonEscape(text);
  *out += '"';
}

void AppendWitnessObject(std::string* out, const Diagnostic& d) {
  *out += '{';
  for (size_t i = 0; i < d.witness.size(); ++i) {
    if (i > 0) *out += ',';
    AppendQuoted(out, d.witness[i].first);
    *out += ':';
    AppendQuoted(out, d.witness[i].second);
  }
  *out += '}';
}

}  // namespace

std::string RenderText(const FileDiagnostics& file) {
  std::string out;
  for (const Diagnostic& d : file.diagnostics) {
    out += file.file;
    if (d.loc.valid()) {
      out += ':' + std::to_string(d.loc.line) + ':' +
             std::to_string(d.loc.column);
    }
    out += ": ";
    out += SeverityName(d.severity);
    out += ": ";
    out += d.id;
    if (const CheckInfo* info = FindCheck(d.id)) {
      out += ' ';
      out += info->name;
    }
    out += ": ";
    out += d.message;
    out += '\n';
    if (d.loc.valid() && !file.source.empty()) {
      std::string_view excerpt = SourceLine(file.source, d.loc.line);
      if (!excerpt.empty() && d.loc.column <= excerpt.size() + 1) {
        out += "    ";
        out += excerpt;
        out += "\n    ";
        // Mirror tabs so the caret lines up under tab-indented code.
        for (uint32_t i = 0; i + 1 < d.loc.column; ++i) {
          out += (i < excerpt.size() && excerpt[i] == '\t') ? '\t' : ' ';
        }
        out += "^\n";
      }
    }
    for (const auto& [key, value] : d.witness) {
      out += "  " + key + ": " + value + "\n";
    }
  }
  return out;
}

std::string RenderJson(const std::vector<FileDiagnostics>& files) {
  size_t errors = 0, warnings = 0, notes = 0;
  std::string out = "{\n  \"files\": [";
  for (size_t f = 0; f < files.size(); ++f) {
    const FileDiagnostics& file = files[f];
    errors += file.CountSeverity(Severity::kError);
    warnings += file.CountSeverity(Severity::kWarning);
    notes += file.CountSeverity(Severity::kNote);
    out += (f > 0) ? ",\n    {" : "\n    {";
    out += "\"file\": ";
    AppendQuoted(&out, file.file);
    out += ", \"diagnostics\": [";
    for (size_t i = 0; i < file.diagnostics.size(); ++i) {
      const Diagnostic& d = file.diagnostics[i];
      out += (i > 0) ? ",\n      {" : "\n      {";
      out += "\"id\": ";
      AppendQuoted(&out, d.id);
      out += ", \"severity\": ";
      AppendQuoted(&out, SeverityName(d.severity));
      out += ", \"line\": " + std::to_string(d.loc.line);
      out += ", \"column\": " + std::to_string(d.loc.column);
      out += ", \"message\": ";
      AppendQuoted(&out, d.message);
      out += ", \"witness\": ";
      AppendWitnessObject(&out, d);
      out += '}';
    }
    out += file.diagnostics.empty() ? "]}" : "\n    ]}";
  }
  out += files.empty() ? "],\n" : "\n  ],\n";
  out += "  \"errors\": " + std::to_string(errors);
  out += ", \"warnings\": " + std::to_string(warnings);
  out += ", \"notes\": " + std::to_string(notes);
  out += "\n}\n";
  return out;
}

std::string RenderSarif(const std::vector<FileDiagnostics>& files) {
  std::string out =
      "{\n"
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [{\n"
      "    \"tool\": {\"driver\": {\"name\": \"vadalog_lint\",\n"
      "      \"rules\": [";
  const std::vector<CheckInfo>& catalog = CheckCatalog();
  for (size_t i = 0; i < catalog.size(); ++i) {
    const CheckInfo& info = catalog[i];
    out += (i > 0) ? ",\n        {" : "\n        {";
    out += "\"id\": ";
    AppendQuoted(&out, info.id);
    out += ", \"name\": ";
    AppendQuoted(&out, info.name);
    out += ",\n         \"shortDescription\": {\"text\": ";
    AppendQuoted(&out, info.description);
    out += "},\n         \"defaultConfiguration\": {\"level\": ";
    AppendQuoted(&out, SeverityName(info.severity));
    out += "}}";
  }
  out +=
      "\n      ]}},\n"
      "    \"results\": [";
  bool first = true;
  for (const FileDiagnostics& file : files) {
    for (const Diagnostic& d : file.diagnostics) {
      out += first ? "\n      {" : ",\n      {";
      first = false;
      out += "\"ruleId\": ";
      AppendQuoted(&out, d.id);
      size_t rule_index = 0;
      for (size_t i = 0; i < catalog.size(); ++i) {
        if (catalog[i].id == d.id) rule_index = i;
      }
      out += ", \"ruleIndex\": " + std::to_string(rule_index);
      out += ", \"level\": ";
      AppendQuoted(&out, SeverityName(d.severity));
      out += ",\n       \"message\": {\"text\": ";
      AppendQuoted(&out, d.message);
      out += "},\n       \"locations\": [{\"physicalLocation\": {";
      out += "\"artifactLocation\": {\"uri\": ";
      AppendQuoted(&out, file.file);
      out += "}";
      if (d.loc.valid()) {
        out += ", \"region\": {\"startLine\": " + std::to_string(d.loc.line) +
               ", \"startColumn\": " + std::to_string(d.loc.column) + "}";
      }
      out += "}}]";
      if (!d.witness.empty()) {
        out += ",\n       \"properties\": ";
        AppendWitnessObject(&out, d);
      }
      out += '}';
    }
  }
  out += first ? "]\n" : "\n    ]\n";
  out += "  }]\n}\n";
  return out;
}

}  // namespace vadalog
